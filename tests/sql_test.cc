// SQL front-end tests: tokenizer, parser, binder.

#include <gtest/gtest.h>

#include "sql/binder.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

// --------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, BasicQuery) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       Tokenize("SELECT COUNT(*) FROM t WHERE a < 5"));
  ASSERT_EQ(tokens.size(), 12u);  // incl. kEnd
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("COUNT"));
  EXPECT_TRUE(tokens[2].IsSymbol("("));
  EXPECT_TRUE(tokens[3].IsSymbol("*"));
  EXPECT_TRUE(tokens[4].IsSymbol(")"));
  EXPECT_TRUE(tokens[5].IsKeyword("FROM"));
  EXPECT_EQ(tokens[6].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[6].text, "t");
  EXPECT_TRUE(tokens[7].IsKeyword("WHERE"));
  EXPECT_TRUE(tokens[9].IsSymbol("<"));
  EXPECT_EQ(tokens[10].ival, 5);
  EXPECT_EQ(tokens[11].type, TokenType::kEnd);
}

TEST(TokenizerTest, KeywordsAreCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("select From wHeRe"));
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[2].IsKeyword("WHERE"));
}

TEST(TokenizerTest, IdentifiersPreserveCase) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("MyTable my_col2"));
  EXPECT_EQ(tokens[0].text, "MyTable");
  EXPECT_EQ(tokens[1].text, "my_col2");
}

TEST(TokenizerTest, TwoCharOperatorsAndAliases) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("<= >= <> != < >"));
  EXPECT_EQ(tokens[0].text, "<=");
  EXPECT_EQ(tokens[1].text, ">=");
  EXPECT_EQ(tokens[2].text, "<>");
  EXPECT_EQ(tokens[3].text, "<>") << "!= normalizes to <>";
  EXPECT_EQ(tokens[4].text, "<");
  EXPECT_EQ(tokens[5].text, ">");
}

TEST(TokenizerTest, StringAndNegativeLiterals) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("'CA' -42"));
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "CA");
  EXPECT_EQ(tokens[1].type, TokenType::kInteger);
  EXPECT_EQ(tokens[1].ival, -42);
}

TEST(TokenizerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ; b").ok());
  EXPECT_FALSE(Tokenize("99999999999999999999999").ok());
}

// ------------------------------------------------------------------ Parser

TEST(ParserTest, CountStar) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery q,
                       ParseSql("SELECT COUNT(*) FROM T WHERE C2 < 100"));
  EXPECT_TRUE(q.count);
  EXPECT_EQ(q.count_arg, "*");
  EXPECT_EQ(q.table0, "T");
  EXPECT_FALSE(q.has_join);
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].column, "C2");
  EXPECT_EQ(q.where[0].op, CmpOp::kLt);
  EXPECT_EQ(q.where[0].ival, 100);
}

TEST(ParserTest, CountColumnAndConjunction) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseSql("SELECT COUNT(padding) FROM T "
               "WHERE C2 >= 5 AND C3 <> 7 AND s = 'CA'"));
  EXPECT_EQ(q.count_arg, "padding");
  ASSERT_EQ(q.where.size(), 3u);
  EXPECT_EQ(q.where[0].op, CmpOp::kGe);
  EXPECT_EQ(q.where[1].op, CmpOp::kNe);
  EXPECT_TRUE(q.where[2].is_string);
  EXPECT_EQ(q.where[2].sval, "CA");
}

TEST(ParserTest, SelectColumnList) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery q, ParseSql("SELECT a, t.b FROM t"));
  EXPECT_FALSE(q.count);
  ASSERT_EQ(q.select_cols.size(), 2u);
  EXPECT_EQ(q.select_cols[0].column, "a");
  EXPECT_EQ(q.select_cols[1].table, "t");
  EXPECT_EQ(q.select_cols[1].column, "b");
}

TEST(ParserTest, JoinWithQualifiedColumns) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseSql("SELECT COUNT(*) FROM T1 JOIN T ON T1.C2 = T.C2 "
               "WHERE T1.C1 < 500"));
  EXPECT_TRUE(q.has_join);
  EXPECT_EQ(q.table0, "T1");
  EXPECT_EQ(q.table1, "T");
  EXPECT_EQ(q.join_left.table, "T1");
  EXPECT_EQ(q.join_left.column, "C2");
  EXPECT_EQ(q.join_right.table, "T");
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].table, "T1");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELECT").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) T").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM t WHERE a <").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM t WHERE a 5").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM t extra").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(* FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM t JOIN").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM a JOIN b ON x = ").ok());
}

TEST(ParserTest, ErrorsCarryOffsets) {
  Status st = ParseSql("SELECT COUNT(*) FROM t WHERE a ! 5").status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("offset"), std::string::npos);
}

// ------------------------------------------------------------------ Binder

class BinderTest : public dpcf::testing::SyntheticDbTest {};

TEST_F(BinderTest, BindsSingleTableQuery) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(*db_, "SELECT COUNT(padding) FROM T WHERE C2 < 100"));
  EXPECT_FALSE(q.is_join);
  EXPECT_EQ(q.single.table, t_);
  EXPECT_TRUE(q.single.count_star);
  EXPECT_EQ(q.single.count_col, kPadding);
  ASSERT_EQ(q.single.pred.size(), 1u);
  EXPECT_EQ(q.single.pred.atoms()[0].col(), kC2);
}

TEST_F(BinderTest, BindsProjectionQuery) {
  ASSERT_OK_AND_ASSIGN(BoundQuery q,
                       BindSql(*db_, "SELECT C1, C5 FROM T WHERE C1 <= 3"));
  EXPECT_FALSE(q.single.count_star);
  EXPECT_EQ(q.single.projection, (std::vector<int>{kC1, kC5}));
}

TEST_F(BinderTest, BindsJoinAndPartitionsPredicates) {
  SyntheticOptions s1;
  s1.num_rows = 1000;
  s1.seed = 99;
  s1.build_indexes = false;
  ASSERT_TRUE(BuildSyntheticTable(db_.get(), "T1", s1).ok());
  ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(*db_,
              "SELECT COUNT(T.padding) FROM T1 JOIN T ON T1.C3 = T.C3 "
              "WHERE T1.C1 < 50 AND T.C5 > 7"));
  ASSERT_TRUE(q.is_join);
  EXPECT_EQ(q.join.outer_table->name(), "T1");
  EXPECT_EQ(q.join.inner_table->name(), "T");
  EXPECT_EQ(q.join.outer_col, kC3);
  EXPECT_EQ(q.join.inner_col, kC3);
  EXPECT_EQ(q.join.outer_pred.size(), 1u);
  EXPECT_EQ(q.join.inner_pred.size(), 1u);
  EXPECT_EQ(q.join.inner_count_col, kPadding);
  EXPECT_EQ(q.join.outer_count_col, -1);
}

TEST_F(BinderTest, UnqualifiedColumnsResolveWhenUnambiguous) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery q, BindSql(*db_, "SELECT COUNT(*) FROM T WHERE C4 = 9"));
  EXPECT_EQ(q.single.pred.atoms()[0].col(), kC4);
}

TEST_F(BinderTest, AmbiguousColumnRejectedInJoin) {
  SyntheticOptions s1;
  s1.num_rows = 1000;
  s1.seed = 99;
  s1.build_indexes = false;
  ASSERT_TRUE(BuildSyntheticTable(db_.get(), "T1", s1).ok());
  Status st = BindSql(*db_,
                      "SELECT COUNT(*) FROM T1 JOIN T ON T1.C2 = T.C2 "
                      "WHERE C1 < 5")
                  .status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ambiguous"), std::string::npos);
}

TEST_F(BinderTest, TypeMismatchesRejected) {
  EXPECT_FALSE(
      BindSql(*db_, "SELECT COUNT(*) FROM T WHERE C1 = 'x'").ok());
  EXPECT_FALSE(
      BindSql(*db_, "SELECT COUNT(*) FROM T WHERE padding = 5").ok());
  EXPECT_FALSE(BindSql(*db_,
                       "SELECT COUNT(*) FROM T WHERE padding = "
                       "'waaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
                       "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaytoolong'")
                   .ok());
}

TEST_F(BinderTest, UnknownNamesRejected) {
  EXPECT_EQ(BindSql(*db_, "SELECT COUNT(*) FROM Missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      BindSql(*db_, "SELECT COUNT(*) FROM T WHERE nope = 1").status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(BindSql(*db_, "SELECT COUNT(*) FROM T WHERE Bad.C1 = 1")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(BinderTest, JoinConditionMustSpanBothTables) {
  SyntheticOptions s1;
  s1.num_rows = 1000;
  s1.seed = 99;
  s1.build_indexes = false;
  ASSERT_TRUE(BuildSyntheticTable(db_.get(), "T1", s1).ok());
  EXPECT_FALSE(BindSql(*db_,
                       "SELECT COUNT(*) FROM T1 JOIN T ON T.C2 = T.C3")
                   .ok());
}

TEST_F(BinderTest, JoinOnNonInt64ColumnsRejected) {
  // Every join operator and the join oracle key on int64 values, so a join
  // over a CHAR column would compare garbage keys: reject it at bind time.
  Schema schema({Column::Int64("k"), Column::Char("name", 12)});
  for (const char* name : {"A", "B"}) {
    ASSERT_OK_AND_ASSIGN(
        Table * t, db_->CreateTable(name, schema, TableOrganization::kHeap));
    TableBuilder b(t);
    int64_t k = 0;
    for (const char* s : {"ann", "bob", "cat", "dan"}) {
      ASSERT_OK(b.AddRow({Value::Int64(k++), Value::String(s)}));
    }
    ASSERT_OK(b.Finish());
  }
  SyntheticOptions s1;
  s1.num_rows = 1000;
  s1.seed = 99;
  s1.build_indexes = false;
  ASSERT_TRUE(BuildSyntheticTable(db_.get(), "T1", s1).ok());
  for (const char* sql :
       {"SELECT COUNT(*) FROM A JOIN B ON A.name = B.name WHERE A.k < 100",
        "SELECT COUNT(*) FROM T1 JOIN T ON T1.C2 = T.padding"}) {
    EXPECT_EQ(BindSql(*db_, sql).status().code(), StatusCode::kNotSupported)
        << sql;
  }
  EXPECT_TRUE(BindSql(*db_, "SELECT COUNT(*) FROM A JOIN B ON A.k = B.k").ok());
}

TEST_F(BinderTest, StringPredicateBindsWithColumnWidth) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      BindSql(*db_, "SELECT COUNT(*) FROM T WHERE padding = 'pad'"));
  const PredicateAtom& atom = q.single.pred.atoms()[0];
  EXPECT_TRUE(atom.is_string());
  EXPECT_EQ(atom.string_operand().size(),
            t_->schema().column(kPadding).size);
}

}  // namespace
}  // namespace dpcf
