// Predicate tests: atom evaluation across operators and types,
// short-circuit semantics and charging, prefix detection, canonical keys.

#include <gtest/gtest.h>

#include "exec/predicate.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

class PredicateTest : public ::testing::Test {
 protected:
  PredicateTest()
      : schema_({Column::Int64("a"), Column::Int64("b"),
                 Column::Char("s", 4)}),
        codec_(&schema_) {}

  std::vector<char> Encode(int64_t a, int64_t b, const std::string& s) {
    std::vector<char> buf(schema_.row_size());
    Status st = codec_.Encode(
        {Value::Int64(a), Value::Int64(b), Value::String(s)}, buf.data());
    EXPECT_TRUE(st.ok());
    return buf;
  }

  Schema schema_;
  RowCodec codec_;
};

struct OpCase {
  CmpOp op;
  int64_t operand;
  int64_t value;
  bool expected;
};

class IntAtomTest : public PredicateTest,
                    public ::testing::WithParamInterface<OpCase> {};

TEST_P(IntAtomTest, EvaluatesCorrectly) {
  const OpCase& c = GetParam();
  auto row = Encode(c.value, 0, "x");
  PredicateAtom atom = PredicateAtom::Int64(0, c.op, c.operand);
  EXPECT_EQ(atom.Eval(RowView(row.data(), &schema_)), c.expected);
  EXPECT_EQ(atom.EvalInt(c.value), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IntAtomTest,
    ::testing::Values(OpCase{CmpOp::kEq, 5, 5, true},
                      OpCase{CmpOp::kEq, 5, 6, false},
                      OpCase{CmpOp::kNe, 5, 6, true},
                      OpCase{CmpOp::kNe, 5, 5, false},
                      OpCase{CmpOp::kLt, 5, 4, true},
                      OpCase{CmpOp::kLt, 5, 5, false},
                      OpCase{CmpOp::kLe, 5, 5, true},
                      OpCase{CmpOp::kLe, 5, 6, false},
                      OpCase{CmpOp::kGt, 5, 6, true},
                      OpCase{CmpOp::kGt, 5, 5, false},
                      OpCase{CmpOp::kGe, 5, 5, true},
                      OpCase{CmpOp::kGe, 5, 4, false},
                      OpCase{CmpOp::kLt, -10, -11, true},
                      OpCase{CmpOp::kGt, INT64_MAX - 1, INT64_MAX, true}));

TEST_F(PredicateTest, StringAtomsComparePadded) {
  auto row = Encode(0, 0, "ca");
  RowView view(row.data(), &schema_);
  EXPECT_TRUE(PredicateAtom::String(2, CmpOp::kEq, "ca", 4).Eval(view));
  EXPECT_FALSE(PredicateAtom::String(2, CmpOp::kEq, "wa", 4).Eval(view));
  EXPECT_TRUE(PredicateAtom::String(2, CmpOp::kNe, "wa", 4).Eval(view));
  // Lexicographic on the padded representation.
  EXPECT_TRUE(PredicateAtom::String(2, CmpOp::kLt, "cb", 4).Eval(view));
  EXPECT_TRUE(PredicateAtom::String(2, CmpOp::kGe, "ca", 4).Eval(view));
}

TEST_F(PredicateTest, ShortCircuitStopsAtFirstFalse) {
  Predicate p({PredicateAtom::Int64(0, CmpOp::kLt, 10),
               PredicateAtom::Int64(1, CmpOp::kEq, 7),
               PredicateAtom::Int64(0, CmpOp::kGe, 0)});
  CpuStats cpu;
  auto row = Encode(50, 7, "x");  // first atom fails
  EXPECT_EQ(p.EvalLeading(RowView(row.data(), &schema_), &cpu), 0u);
  EXPECT_EQ(cpu.predicate_atom_evals, 1);

  cpu.Reset();
  auto row2 = Encode(5, 9, "x");  // second fails
  EXPECT_EQ(p.EvalLeading(RowView(row2.data(), &schema_), &cpu), 1u);
  EXPECT_EQ(cpu.predicate_atom_evals, 2);

  cpu.Reset();
  auto row3 = Encode(5, 7, "x");  // all pass
  EXPECT_EQ(p.EvalLeading(RowView(row3.data(), &schema_), &cpu), 3u);
  EXPECT_TRUE(p.Eval(RowView(row3.data(), &schema_), &cpu));
}

TEST_F(PredicateTest, NoShortCircuitChargesEveryAtom) {
  Predicate p({PredicateAtom::Int64(0, CmpOp::kLt, 10),
               PredicateAtom::Int64(1, CmpOp::kEq, 7),
               PredicateAtom::Int64(0, CmpOp::kGe, 0)});
  CpuStats cpu;
  auto row = Encode(50, 9, "x");  // fails immediately
  EXPECT_FALSE(p.EvalNoShortCircuit(RowView(row.data(), &schema_), &cpu));
  EXPECT_EQ(cpu.predicate_atom_evals, 3)
      << "short-circuiting off must evaluate all atoms";
}

TEST_F(PredicateTest, EmptyPredicateAcceptsEverything) {
  Predicate p;
  CpuStats cpu;
  auto row = Encode(1, 2, "x");
  EXPECT_TRUE(p.Eval(RowView(row.data(), &schema_), &cpu));
  EXPECT_EQ(cpu.predicate_atom_evals, 0);
  EXPECT_EQ(p.ToString(schema_), "TRUE");
  EXPECT_EQ(p.CanonicalKey(schema_), "TRUE");
}

TEST_F(PredicateTest, PrefixDetection) {
  PredicateAtom a1 = PredicateAtom::Int64(0, CmpOp::kLt, 10);
  PredicateAtom a2 = PredicateAtom::Int64(1, CmpOp::kEq, 7);
  PredicateAtom a3 = PredicateAtom::Int64(0, CmpOp::kGe, 0);
  Predicate pushed({a1, a2, a3});

  EXPECT_TRUE(Predicate().IsPrefixOf(pushed));
  EXPECT_TRUE(Predicate({a1}).IsPrefixOf(pushed));
  EXPECT_TRUE(Predicate({a1, a2}).IsPrefixOf(pushed));
  EXPECT_TRUE(Predicate({a1, a2, a3}).IsPrefixOf(pushed));
  EXPECT_FALSE(Predicate({a2}).IsPrefixOf(pushed)) << "non-leading atom";
  EXPECT_FALSE(Predicate({a2, a1}).IsPrefixOf(pushed)) << "wrong order";
  EXPECT_FALSE(Predicate({a1, a2, a3, a1}).IsPrefixOf(pushed))
      << "longer than pushed";
  // Same column, different operand: not the same atom.
  EXPECT_FALSE(
      Predicate({PredicateAtom::Int64(0, CmpOp::kLt, 11)}).IsPrefixOf(
          pushed));
}

TEST_F(PredicateTest, ToStringAndCanonicalKey) {
  Predicate p({PredicateAtom::Int64(1, CmpOp::kEq, 7),
               PredicateAtom::Int64(0, CmpOp::kLt, 10)});
  EXPECT_EQ(p.ToString(schema_), "b=7 AND a<10");
  // Canonical key sorts atoms, so evaluation order doesn't fragment the
  // feedback store.
  Predicate q({PredicateAtom::Int64(0, CmpOp::kLt, 10),
               PredicateAtom::Int64(1, CmpOp::kEq, 7)});
  EXPECT_EQ(p.CanonicalKey(schema_), q.CanonicalKey(schema_));
}

TEST_F(PredicateTest, StringAtomToStringTrimsPadding) {
  PredicateAtom a = PredicateAtom::String(2, CmpOp::kEq, "ca", 4);
  EXPECT_EQ(a.ToString(schema_), "s='ca'");
  EXPECT_STREQ(CmpOpSymbol(CmpOp::kNe), "<>");
  EXPECT_STREQ(CmpOpSymbol(CmpOp::kLe), "<=");
  EXPECT_STREQ(CmpOpSymbol(CmpOp::kGe), ">=");
}

TEST_F(PredicateTest, SameAsComparesOperandAndType) {
  PredicateAtom a = PredicateAtom::Int64(0, CmpOp::kLt, 10);
  EXPECT_TRUE(a.SameAs(PredicateAtom::Int64(0, CmpOp::kLt, 10)));
  EXPECT_FALSE(a.SameAs(PredicateAtom::Int64(0, CmpOp::kLe, 10)));
  EXPECT_FALSE(a.SameAs(PredicateAtom::Int64(1, CmpOp::kLt, 10)));
  EXPECT_FALSE(a.SameAs(PredicateAtom::Int64(0, CmpOp::kLt, 11)));
  EXPECT_FALSE(a.SameAs(PredicateAtom::String(0, CmpOp::kLt, "10", 4)));
}

}  // namespace
}  // namespace dpcf
