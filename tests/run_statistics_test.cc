// MonitorRecord error factors and the statistics-xml rendering: the edge
// cases the diagnosis layer depends on (no estimate, empty results, XML
// escaping, optional estimate attributes).

#include <string>

#include <gtest/gtest.h>

#include "core/run_statistics.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

MonitorRecord Rec(double actual_dpc, double est_dpc, double actual_card = 0,
                  double est_card = -1) {
  return MonitorRecord{.table = "T",
                       .label = "k",
                       .expr_text = "C1<10",
                       .mechanism = "prefix-exact",
                       .actual_dpc = actual_dpc,
                       .actual_cardinality = actual_card,
                       .estimated_dpc = est_dpc,
                       .estimated_cardinality = est_card};
}

TEST(DpcErrorFactorTest, NoEstimateIsZero) {
  // -1 is the "no estimate attached" sentinel, not an estimate of -1.
  EXPECT_EQ(Rec(100, -1).DpcErrorFactor(), 0);
  EXPECT_EQ(Rec(100, 50, 10, -1).CardinalityErrorFactor(), 0);
}

TEST(DpcErrorFactorTest, SymmetricRatio) {
  // Over- and under-estimation by the same ratio give the same factor.
  EXPECT_DOUBLE_EQ(Rec(100, 400).DpcErrorFactor(), 4.0);
  EXPECT_DOUBLE_EQ(Rec(400, 100).DpcErrorFactor(), 4.0);
  EXPECT_DOUBLE_EQ(Rec(123, 123).DpcErrorFactor(), 1.0);
}

TEST(DpcErrorFactorTest, ZeroActualClampsToOnePage) {
  // An empty result (0 actual pages) must not produce an infinite factor;
  // both sides clamp to >= 1 page.
  EXPECT_DOUBLE_EQ(Rec(0, 8).DpcErrorFactor(), 8.0);
  EXPECT_DOUBLE_EQ(Rec(0, 0).DpcErrorFactor(), 1.0);
  EXPECT_DOUBLE_EQ(Rec(8, 0).DpcErrorFactor(), 8.0);
  // Sub-page fractional estimates (sampling can produce them) clamp too.
  EXPECT_DOUBLE_EQ(Rec(0.25, 0.5).DpcErrorFactor(), 1.0);
}

TEST(CardinalityErrorFactorTest, MirrorsDpcSemantics) {
  EXPECT_DOUBLE_EQ(Rec(0, -1, 0, 0).CardinalityErrorFactor(), 1.0);
  EXPECT_DOUBLE_EQ(Rec(0, -1, 10, 1000).CardinalityErrorFactor(), 100.0);
  EXPECT_DOUBLE_EQ(Rec(0, -1, 1000, 10).CardinalityErrorFactor(), 100.0);
}

TEST(RunStatisticsToXmlTest, RendersCountersAndMonitors) {
  RunStatistics stats;
  stats.plan_text = "TableScan(T, C1<10)";
  stats.rows_returned = 42;
  stats.io.logical_reads += 100;
  stats.io.buffer_hits += 60;
  stats.io.physical_seq_reads += 30;
  stats.io.physical_rand_reads += 10;
  stats.cpu.rows_processed = 2000;
  stats.simulated_ms = 12.5;
  stats.monitors.push_back(Rec(493, 500, 3103, 3103));

  const std::string xml = stats.ToXml();
  EXPECT_NE(xml.find("<Plan rows=\"42\">TableScan(T, C1&lt;10)</Plan>"),
            std::string::npos)
      << xml;
  EXPECT_NE(xml.find("<Io logical=\"100\" physicalSeq=\"30\" "
                     "physicalRand=\"10\" hits=\"60\"/>"),
            std::string::npos)
      << xml;
  EXPECT_NE(xml.find("mechanism=\"prefix-exact\""), std::string::npos);
  EXPECT_NE(xml.find("actualDpc=\"493.0\""), std::string::npos) << xml;
  EXPECT_NE(xml.find("estimatedDpc=\"500.0\""), std::string::npos) << xml;
  EXPECT_NE(xml.find("estimatedCard=\"3103.0\""), std::string::npos) << xml;
}

TEST(RunStatisticsToXmlTest, OmitsAbsentEstimates) {
  // A record the diagnosis layer never touched renders without the
  // estimated* attributes rather than with the -1 sentinel.
  RunStatistics stats;
  stats.monitors.push_back(Rec(493, -1));
  const std::string xml = stats.ToXml();
  EXPECT_EQ(xml.find("estimatedDpc"), std::string::npos) << xml;
  EXPECT_EQ(xml.find("estimatedCard"), std::string::npos) << xml;
  EXPECT_NE(xml.find("actualDpc=\"493.0\""), std::string::npos) << xml;
}

TEST(RunStatisticsToXmlTest, EscapesMarkupInExpressionText) {
  RunStatistics stats;
  MonitorRecord r = Rec(1, -1);
  r.expr_text = "C1<10 & C2>\"x\"";
  stats.monitors.push_back(r);
  const std::string xml = stats.ToXml();
  EXPECT_NE(xml.find("C1&lt;10 &amp; C2&gt;&quot;x&quot;"),
            std::string::npos)
      << xml;
}

}  // namespace
}  // namespace dpcf
