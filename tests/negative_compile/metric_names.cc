// Negative-compilation fixture for the metric naming convention
// (obs/metrics_registry.h): GetCounter, GetGauge and GetHistogram take
// their name as a MetricName, whose consteval constructor rejects a name
// off the convention.
//
// Compiled as-is it is the control and MUST compile under -Wall -Werror:
// every name follows the convention. Each CASE_<name> macro seeds exactly
// one bad name, and that compile MUST fail on the naming diagnostic (the
// CMake harness here asserts both).

#include "obs/metrics_registry.h"

namespace dpcf {

void Register(MetricsRegistry* reg) {
#if defined(CASE_metric_counter_without_total)
  reg->GetCounter("buffer_pool_hits", "BUG UNDER TEST: no _total");
#elif defined(CASE_metric_gauge_without_unit)
  reg->GetGauge("disk_read_latency", "BUG UNDER TEST: no unit suffix");
#elif defined(CASE_metric_histogram_named_like_counter)
  reg->GetHistogram("disk_reads_total", "BUG UNDER TEST: a counter's name",
                    1.0, 2.0, 16);
#elif defined(CASE_metric_camel_case_name)
  reg->GetHistogram("missReadLatencyUs", "BUG UNDER TEST: not snake_case",
                    1.0, 2.0, 16);
#endif

  // Control: each kind's suffixes, used correctly.
  reg->GetCounter("buffer_pool_hits_total", "Pool hits", {{"shard", "0"}});
  reg->GetGauge("disk_read_latency_us", "Configured latency");
  reg->GetGauge("dpcf_simd_dispatch_info", "Active ISA", {{"isa", "avx2"}});
  reg->GetGauge("estimation_drift_q_error_factor", "EWMA q-error");
  reg->GetHistogram("buffer_pool_miss_read_us", "Miss read latency", 1.0,
                    2.0, 16);
  reg->GetHistogram("dpcf_scan_batch_rows", "Rows per batch", 1.0, 2.0, 12);
}

}  // namespace dpcf
