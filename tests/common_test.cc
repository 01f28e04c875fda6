// Unit tests for common/: Status/Result, hashing, RNG, string utilities.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace dpcf {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table X");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table X");
  EXPECT_EQ(s.ToString(), "NotFound: table X");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotSupported), "NotSupported");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

Result<int> Chain(int v) {
  DPCF_ASSIGN_OR_RETURN(int doubled, ParsePositive(v));
  return doubled + 1;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(ok.status().ok());

  Result<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = Chain(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 11);
  Result<int> err = Chain(0);
  EXPECT_FALSE(err.ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10'000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10'000u) << "Mix64 is bijective on distinct inputs";
}

TEST(HashTest, SeededHashesDiffer) {
  int differing = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    if (Mix64Seeded(i, 1) != Mix64Seeded(i, 2)) ++differing;
  }
  EXPECT_GT(differing, 990);
}

TEST(RngTest, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, NextIntInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.NextBernoulli(0.1);
  EXPECT_NEAR(hits / 100'000.0, 0.1, 0.01);
}

TEST(PermutationTest, IdentityAndRandomArePermutations) {
  Rng rng(5);
  for (int64_t n : {1, 2, 17, 1000}) {
    auto id = IdentityPermutation(n);
    auto rand = RandomPermutation(n, &rng);
    auto sorted = rand;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, id) << "n=" << n;
  }
}

TEST(PermutationTest, WindowShuffleRespectsWindows) {
  Rng rng(6);
  const int64_t n = 1000, w = 10;
  auto perm = WindowShuffledPermutation(n, w, &rng);
  auto sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, IdentityPermutation(n));
  for (int64_t i = 0; i < n; ++i) {
    // Element at position i came from the same window.
    EXPECT_EQ(i / w, perm[static_cast<size_t>(i)] / w) << "i=" << i;
  }
}

TEST(PermutationTest, WindowOneIsIdentityFullIsShuffled) {
  Rng rng(7);
  EXPECT_EQ(WindowShuffledPermutation(100, 1, &rng),
            IdentityPermutation(100));
  auto full = WindowShuffledPermutation(1000, 1000, &rng);
  int64_t displaced = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    displaced += (full[static_cast<size_t>(i)] != i);
  }
  EXPECT_GT(displaced, 900);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, SamplesInRangeAndSkewed) {
  const double s = GetParam();
  ZipfDistribution zipf(1000, s);
  Rng rng(8);
  std::vector<int64_t> counts(1001, 0);
  for (int i = 0; i < 100'000; ++i) {
    int64_t v = zipf.Sample(&rng);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 1000);
    ++counts[static_cast<size_t>(v)];
  }
  if (s >= 1.0) {
    // Rank 1 should dominate rank 10 by roughly 10^s.
    ASSERT_GT(counts[1], 0);
    ASSERT_GT(counts[10], 0);
    double ratio = static_cast<double>(counts[1]) / counts[10];
    EXPECT_GT(ratio, std::pow(10.0, s) * 0.5);
    EXPECT_LT(ratio, std::pow(10.0, s) * 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfTest, ::testing::Values(0.0, 1.0, 1.5));

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
  EXPECT_EQ(XmlEscape("plain"), "plain");
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5, 4), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 4), "2.0");
  EXPECT_EQ(FormatDouble(0.125, 2), "0.12");  // round-half-even
  EXPECT_EQ(FormatDouble(0.375, 2), "0.38");
}

TEST(StringUtilTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-1234), "-1,234");
}

}  // namespace
}  // namespace dpcf
