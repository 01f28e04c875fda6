// Unit tests for table/: values, schemas, row codec, heap files, builder,
// catalog/database.

#include <gtest/gtest.h>

#include "common/random.h"
#include "table/catalog.h"
#include "table/row_codec.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

TEST(ValueTest, TypeAndCompare) {
  Value a = Value::Int64(3), b = Value::Int64(7);
  EXPECT_EQ(a.type(), ValueType::kInt64);
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(b.Compare(a), 0);
  EXPECT_EQ(a.Compare(Value::Int64(3)), 0);
  EXPECT_TRUE(a < b);

  Value s1 = Value::String("abc"), s2 = Value::String("abd");
  EXPECT_LT(s1.Compare(s2), 0);
  EXPECT_TRUE(s1 == Value::String("abc"));
  EXPECT_FALSE(s1 == a);  // different type compares unequal
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
  EXPECT_EQ(TupleToString({Value::Int64(1), Value::String("x")}),
            "(1, 'x')");
}

TEST(SchemaTest, OffsetsAndRowSize) {
  Schema s({Column::Int64("a"), Column::Char("b", 10), Column::Int64("c")});
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.offset(2), 18u);
  EXPECT_EQ(s.row_size(), 26u);
  EXPECT_EQ(s.ColumnIndex("b"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_EQ(s.ToString(), "(a INT64, b CHAR(10), c INT64)");
}

class RowCodecTest : public ::testing::Test {
 protected:
  RowCodecTest()
      : schema_({Column::Int64("id"), Column::Char("name", 8),
                 Column::Int64("v")}),
        codec_(&schema_) {}
  Schema schema_;
  RowCodec codec_;
};

TEST_F(RowCodecTest, Roundtrip) {
  Tuple in{Value::Int64(42), Value::String("bob"), Value::Int64(-1)};
  std::vector<char> buf(schema_.row_size());
  ASSERT_OK(codec_.Encode(in, buf.data()));
  Tuple out = codec_.Decode(buf.data());
  EXPECT_EQ(out[0].AsInt64(), 42);
  EXPECT_EQ(out[1].AsString(), "bob");  // padding trimmed
  EXPECT_EQ(out[2].AsInt64(), -1);
}

TEST_F(RowCodecTest, RowViewZeroCopyAccess) {
  Tuple in{Value::Int64(7), Value::String("xy"), Value::Int64(9)};
  std::vector<char> buf(schema_.row_size());
  ASSERT_OK(codec_.Encode(in, buf.data()));
  RowView view(buf.data(), &schema_);
  EXPECT_EQ(view.GetInt64(0), 7);
  EXPECT_EQ(view.GetString(1), std::string_view("xy      "));
  EXPECT_EQ(view.GetInt64(2), 9);
  Tuple proj = view.Materialize({2, 0});
  EXPECT_EQ(proj[0].AsInt64(), 9);
  EXPECT_EQ(proj[1].AsInt64(), 7);
}

TEST_F(RowCodecTest, EncodeRejectsArityMismatch) {
  EXPECT_FALSE(codec_.Encode({Value::Int64(1)}, nullptr).ok());
}

TEST_F(RowCodecTest, EncodeRejectsTypeMismatch) {
  std::vector<char> buf(schema_.row_size());
  Tuple bad{Value::String("no"), Value::String("x"), Value::Int64(1)};
  EXPECT_EQ(codec_.Encode(bad, buf.data()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RowCodecTest, EncodeRejectsOverlongString) {
  std::vector<char> buf(schema_.row_size());
  Tuple bad{Value::Int64(1), Value::String("waytoolongname"),
            Value::Int64(1)};
  EXPECT_EQ(codec_.Encode(bad, buf.data()).code(),
            StatusCode::kInvalidArgument);
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : disk_(256), pool_(&disk_, 16) {
    schema_ = std::make_unique<Schema>(std::vector<Column>{
        Column::Int64("a"), Column::Int64("b")});
    seg_ = disk_.CreateSegment("t");
    file_ = std::make_unique<HeapFile>(&pool_, seg_, schema_.get());
  }
  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<Schema> schema_;
  SegmentId seg_;
  std::unique_ptr<HeapFile> file_;
};

TEST_F(HeapFileTest, RowsPerPageArithmetic) {
  // (256 - 8) / 16 = 15 rows per page.
  EXPECT_EQ(file_->rows_per_page(), 15u);
}

TEST_F(HeapFileTest, AppendSpillsToNewPages) {
  for (int64_t i = 0; i < 40; ++i) {
    auto rid = file_->Append({Value::Int64(i), Value::Int64(i * 2)});
    ASSERT_TRUE(rid.ok());
    EXPECT_EQ(rid->page_no, static_cast<PageNo>(i / 15));
    EXPECT_EQ(rid->slot, static_cast<uint16_t>(i % 15));
  }
  ASSERT_OK(file_->Seal());
  EXPECT_EQ(file_->page_count(), 3u);
  EXPECT_EQ(file_->row_count(), 40);
}

// A load writes each page straight to the disk, once, when it fills and at
// Seal: nothing passes through the pool, and a raw walk sees every row as
// soon as Seal returns.
TEST_F(HeapFileTest, SealedPagesAreOnDiskWithoutThePool) {
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(file_->Append({Value::Int64(i), Value::Int64(i * 2)}).ok());
  }
  ASSERT_OK(file_->Seal());
  EXPECT_EQ(pool_.cached_pages(), 0u);
  EXPECT_EQ(disk_.io_stats()->physical_writes, 3);
  int64_t next = 0;
  file_->ForEachRawRow(&disk_, [&](PageNo p, uint16_t s, const RowView& row) {
    EXPECT_EQ(p, static_cast<PageNo>(next / 15));
    EXPECT_EQ(s, static_cast<uint16_t>(next % 15));
    EXPECT_EQ(row.GetInt64(0), next);
    EXPECT_EQ(row.GetInt64(1), next * 2);
    ++next;
  });
  EXPECT_EQ(next, 40);
}

TEST_F(HeapFileTest, FetchRowReturnsStoredBytes) {
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(file_->Append({Value::Int64(i), Value::Int64(i * i)}).ok());
  }
  ASSERT_OK(file_->Seal());
  const char* row = nullptr;
  auto guard = file_->FetchRow(Rid{1, 2}, &row);  // 18th row: i = 17
  ASSERT_TRUE(guard.ok());
  RowView view(row, schema_.get());
  EXPECT_EQ(view.GetInt64(0), 17);
  EXPECT_EQ(view.GetInt64(1), 289);
}

TEST_F(HeapFileTest, FetchRowRejectsBadRids) {
  ASSERT_TRUE(file_->Append({Value::Int64(1), Value::Int64(2)}).ok());
  ASSERT_OK(file_->Seal());
  const char* row = nullptr;
  EXPECT_EQ(file_->FetchRow(Rid{5, 0}, &row).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file_->FetchRow(Rid{0, 9}, &row).status().code(),
            StatusCode::kOutOfRange);
}

TEST(RidTest, PackUnpackRoundtrip) {
  Rid r{123456, 789};
  Rid back = Rid::Unpack(r.Pack());
  EXPECT_EQ(back, r);
  EXPECT_EQ(back.ToString(), "123456.789");
}

TEST(TableBuilderTest, ClusteredTableIsSortedByKey) {
  Database db([] { DatabaseOptions o; o.page_size = 512; o.buffer_pool_pages = 64; return o; }());
  Schema schema({Column::Int64("k"), Column::Int64("v")});
  auto table =
      db.CreateTable("t", schema, TableOrganization::kClustered, 0);
  ASSERT_TRUE(table.ok());
  TableBuilder builder(*table);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(builder.AddRow(
        {Value::Int64(rng.NextInt(0, 10'000)), Value::Int64(i)}));
  }
  ASSERT_OK(builder.Finish());

  // Walk pages in order; keys must be non-decreasing.
  const HeapFile* file = (*table)->file();
  int64_t prev = INT64_MIN;
  int64_t rows_seen = 0;
  const int64_t raw_before = db.disk()->io_stats()->raw_page_reads;
  file->ForEachRawRow(db.disk(), [&](PageNo, uint16_t, const RowView& row) {
    EXPECT_GE(row.GetInt64(0), prev);
    prev = row.GetInt64(0);
    ++rows_seen;
  });
  EXPECT_EQ(rows_seen, 500);
  // The walk reads each page image once, through the counted RawPage.
  EXPECT_EQ(db.disk()->io_stats()->raw_page_reads - raw_before,
            static_cast<int64_t>(file->page_count()));
}

TEST(TableBuilderTest, HeapPreservesInsertionOrder) {
  Database db([] { DatabaseOptions o; o.page_size = 512; o.buffer_pool_pages = 64; return o; }());
  Schema schema({Column::Int64("k")});
  auto table = db.CreateTable("h", schema, TableOrganization::kHeap);
  ASSERT_TRUE(table.ok());
  TableBuilder builder(*table);
  for (int i = 9; i >= 0; --i) {
    ASSERT_OK(builder.AddRow({Value::Int64(i)}));
  }
  ASSERT_OK(builder.Finish());
  const char* row = nullptr;
  auto g = (*table)->file()->FetchRow(Rid{0, 0}, &row);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(RowView(row, &(*table)->schema()).GetInt64(0), 9);
}

TEST(CatalogTest, DuplicateNamesRejected) {
  Database db;
  Schema schema({Column::Int64("k")});
  ASSERT_TRUE(db.CreateTable("t", schema, TableOrganization::kHeap).ok());
  EXPECT_EQ(db.CreateTable("t", schema, TableOrganization::kHeap)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.GetTable("missing"), nullptr);
  EXPECT_NE(db.GetTable("t"), nullptr);
}

TEST(CatalogTest, ClusteredTableNeedsValidKeyColumn) {
  Database db;
  Schema schema({Column::Int64("k")});
  EXPECT_FALSE(
      db.CreateTable("bad", schema, TableOrganization::kClustered, 5).ok());
  EXPECT_FALSE(
      db.CreateTable("bad2", schema, TableOrganization::kClustered, -1)
          .ok());
}

TEST(CatalogTest, IndexLookupAndPerTableListing) {
  Database db([] { DatabaseOptions o; o.page_size = 512; o.buffer_pool_pages = 64; return o; }());
  Schema schema({Column::Int64("a"), Column::Int64("b")});
  auto t = db.CreateTable("t", schema, TableOrganization::kHeap);
  ASSERT_TRUE(t.ok());
  TableBuilder builder(*t);
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(builder.AddRow({Value::Int64(i), Value::Int64(50 - i)}));
  }
  ASSERT_OK(builder.Finish());
  ASSERT_TRUE(db.CreateIndex("t_a", "t", std::vector<int>{0}).ok());
  ASSERT_TRUE(
      db.CreateIndex("t_ab", "t",
                     std::vector<std::string>{"a", "b"})
          .ok());
  EXPECT_EQ(db.catalog().IndexesForTable(*t).size(), 2u);
  EXPECT_NE(db.GetIndex("t_a"), nullptr);
  EXPECT_EQ(db.GetIndex("nope"), nullptr);
  EXPECT_EQ(db.CreateIndex("t_a", "t", std::vector<int>{1})
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.CreateIndex("x", "missing", std::vector<int>{0})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, IndexRejectsStringKeyColumns) {
  Database db([] { DatabaseOptions o; o.page_size = 512; o.buffer_pool_pages = 64; return o; }());
  Schema schema({Column::Int64("a"), Column::Char("s", 8)});
  auto t = db.CreateTable("t", schema, TableOrganization::kHeap);
  ASSERT_TRUE(t.ok());
  TableBuilder builder(*t);
  ASSERT_OK(builder.AddRow({Value::Int64(1), Value::String("x")}));
  ASSERT_OK(builder.Finish());
  EXPECT_EQ(db.CreateIndex("t_s", "t", std::vector<int>{1})
                .status()
                .code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(db.CreateIndex("t_3", "t", std::vector<int>{0, 1, 0})
                .status()
                .code(),
            StatusCode::kNotSupported);
}

}  // namespace
}  // namespace dpcf
