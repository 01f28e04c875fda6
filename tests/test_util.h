// Shared helpers for the test suite.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/predicate.h"
#include "exec/simd.h"
#include "storage/disk_manager.h"
#include "table/catalog.h"
#include "table/row_codec.h"
#include "workload/synthetic.h"

namespace dpcf::testing {

#define ASSERT_OK(expr)                                    \
  do {                                                     \
    const ::dpcf::Status _st = (expr);                     \
    ASSERT_TRUE(_st.ok()) << _st.ToString();               \
  } while (0)

#define EXPECT_OK(expr)                                    \
  do {                                                     \
    const ::dpcf::Status _st = (expr);                     \
    EXPECT_TRUE(_st.ok()) << _st.ToString();               \
  } while (0)

// Unwraps a Result<T> or fails the test. Usage:
//   ASSERT_OK_AND_ASSIGN(auto value, SomeResultFn());
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  ASSERT_OK_AND_ASSIGN_IMPL(                                   \
      DPCF_ASSIGN_OR_RETURN_NAME(_test_result_, __LINE__), lhs, expr)
#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)              \
  auto tmp = (expr);                                           \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();            \
  lhs = std::move(tmp).value()

/// The row-at-a-time reference for a conjunction: `row` passes every atom
/// of `pred`, evaluated one by one and uncharged. The engine's own offline
/// walks evaluate whole pages through PredicateKernel; tests check them
/// against this.
inline bool MatchesRow(const Predicate& pred, const RowView& row) {
  for (const PredicateAtom& a : pred.atoms()) {
    if (!a.Eval(row)) return false;
  }
  return true;
}

/// Appends `pages` zeroed pages to `segment`.
inline void AppendZeroPages(DiskManager* disk, SegmentId segment,
                            PageNo pages) {
  const std::vector<char> zero(disk->page_size(), 0);
  for (PageNo p = 0; p < pages; ++p) {
    ASSERT_TRUE(disk->AppendPage(segment, zero.data()).ok());
  }
}

/// Pins the process-wide SIMD table for a scope, restoring the previous
/// ISA on exit so test order doesn't leak.
class ScopedSimd {
 public:
  explicit ScopedSimd(SimdIsa isa) : prev_(ActiveSimdIsa()) {
    EXPECT_TRUE(SetActiveSimd(isa).ok()) << SimdIsaName(isa);
  }
  ~ScopedSimd() { (void)SetActiveSimd(prev_); }

 private:
  SimdIsa prev_;
};

/// A small synthetic database shared by integration-style tests.
class SyntheticDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.buffer_pool_pages = 512;
    db_ = std::make_unique<Database>(opts);
    SyntheticOptions sopts;
    sopts.num_rows = 20'000;
    sopts.seed = 7;
    auto table = BuildSyntheticTable(db_.get(), "T", sopts);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    t_ = *table;
  }

  std::unique_ptr<Database> db_;
  Table* t_ = nullptr;
};

}  // namespace dpcf::testing
