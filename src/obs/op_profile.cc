#include "obs/op_profile.h"

#include <algorithm>

#include "common/string_util.h"

namespace dpcf {

namespace {

const MonitorRecord* FindEstimate(const MonitorRecord& rec,
                                  const std::vector<MonitorRecord>& pool) {
  auto it = std::find_if(pool.begin(), pool.end(),
                         [&rec](const MonitorRecord& e) {
                           return e.label == rec.label &&
                                  e.mechanism == rec.mechanism;
                         });
  return it == pool.end() ? &rec : &*it;
}

void RenderRec(const OpProfileNode& node,
               const std::vector<MonitorRecord>& estimated,
               const SimCostParams& params, int depth, std::string* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  const OpProfile& p = node.profile;
  out->append(indent);
  out->append(node.describe);
  out->append("\n");
  out->append(indent);
  out->append(StrFormat(
      "    (actual rows=%lld  next=%lld  wall=%sms  sim=%sms  "
      "io: logical=%lld hits=%lld seq=%lld rand=%lld",
      static_cast<long long>(p.rows), static_cast<long long>(p.next_calls),
      FormatDouble(p.wall_ms(), 2).c_str(),
      FormatDouble(SimulatedMillis(p.io, p.cpu, params), 2).c_str(),
      static_cast<long long>(p.io.logical_reads),
      static_cast<long long>(p.io.buffer_hits),
      static_cast<long long>(p.io.physical_seq_reads),
      static_cast<long long>(p.io.physical_rand_reads)));
  // Readahead: pages read ahead / of those, fetched. Without it a parallel
  // scan's prefetched pages would show only as hits that read nothing.
  if (p.io.prefetch_reads != 0 || p.io.prefetch_hits != 0) {
    out->append(StrFormat(" prefetch=%lld/%lld",
                          static_cast<long long>(p.io.prefetch_reads),
                          static_cast<long long>(p.io.prefetch_hits)));
  }
  out->append(")\n");
  if (!p.stall.empty()) {
    out->append(indent);
    out->append(StrFormat(
        "    (stall: io_wait=%lldus/%lld loading=%lldus/%lld)\n",
        static_cast<long long>(p.stall.io_wait_us),
        static_cast<long long>(p.stall.io_waits),
        static_cast<long long>(p.stall.loading_wait_us),
        static_cast<long long>(p.stall.loading_waits)));
  }
  for (const MonitorRecord& rec : node.records) {
    // Prefer a record from `estimated` (the feedback driver attaches
    // optimizer estimates after the run, outside this snapshot).
    const MonitorRecord& r =
        rec.estimated_dpc >= 0 ? rec : *FindEstimate(rec, estimated);
    out->append(indent);
    out->append(StrFormat(
        "    [monitor %s] expr=\"%s\" actualDpc=%s actualCard=%s",
        r.mechanism.c_str(), r.expr_text.c_str(),
        FormatDouble(r.actual_dpc, 1).c_str(),
        FormatDouble(r.actual_cardinality, 1).c_str()));
    if (r.estimated_dpc >= 0) {
      out->append(StrFormat(" estDpc=%s errFactor=%sx",
                            FormatDouble(r.estimated_dpc, 1).c_str(),
                            FormatDouble(r.DpcErrorFactor(), 2).c_str()));
    } else {
      out->append(" estDpc=none");
    }
    if (r.estimated_cardinality >= 0) {
      out->append(StrFormat(" estCard=%s",
                            FormatDouble(r.estimated_cardinality, 1).c_str()));
    }
    out->append("\n");
  }
  for (const OpProfileNode& child : node.children) {
    RenderRec(child, estimated, params, depth + 1, out);
  }
}

}  // namespace

std::string RenderAnnotatedPlan(const OpProfileNode& root,
                                const std::vector<MonitorRecord>& estimated,
                                const SimCostParams& params) {
  std::string out;
  RenderRec(root, estimated, params, 0, &out);
  return out;
}

}  // namespace dpcf
