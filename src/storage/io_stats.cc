#include "storage/io_stats.h"

#include "common/string_util.h"

namespace dpcf {

std::string IoStats::ToString() const {
  return StrFormat(
      "IoStats{seq=%lld rand=%lld writes=%lld prefetch=%lld "
      "prefetch_hits=%lld prefetch_rejected=%lld logical=%lld hits=%lld "
      "raw=%lld}",
      static_cast<long long>(physical_seq_reads),
      static_cast<long long>(physical_rand_reads),
      static_cast<long long>(physical_writes),
      static_cast<long long>(prefetch_reads),
      static_cast<long long>(prefetch_hits),
      static_cast<long long>(prefetch_rejected),
      static_cast<long long>(logical_reads),
      static_cast<long long>(buffer_hits),
      static_cast<long long>(raw_page_reads));
}

std::string CpuStats::ToString() const {
  return StrFormat(
      "CpuStats{rows=%lld pred_atoms=%lld monitor_hashes=%lld "
      "monitor_rows=%lld ht_ops=%lld}",
      static_cast<long long>(rows_processed),
      static_cast<long long>(predicate_atom_evals),
      static_cast<long long>(monitor_hash_ops),
      static_cast<long long>(monitor_row_ops),
      static_cast<long long>(hash_table_ops));
}

double SimulatedMillis(const IoStats& io, const CpuStats& cpu,
                       const SimCostParams& p) {
  double ms = 0.0;
  ms += static_cast<double>(io.physical_seq_reads) * p.seq_read_ms;
  ms += static_cast<double>(io.physical_rand_reads) * p.rand_read_ms;
  // Readahead streams pages in order ahead of the scan cursor, so a
  // prefetched page costs a sequential transfer even though it bypasses
  // the read-head classifier.
  ms += static_cast<double>(io.prefetch_reads) * p.seq_read_ms;
  ms += static_cast<double>(cpu.rows_processed) * p.cpu_row_ms;
  ms += static_cast<double>(cpu.predicate_atom_evals) * p.cpu_pred_atom_ms;
  ms += static_cast<double>(cpu.monitor_hash_ops) * p.cpu_hash_ms;
  ms += static_cast<double>(cpu.monitor_row_ops) * p.cpu_monitor_row_ms;
  ms += static_cast<double>(cpu.hash_table_ops) * p.cpu_probe_ms;
  return ms;
}

}  // namespace dpcf
