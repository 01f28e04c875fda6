#include "core/dpsample.h"

#include <cassert>

#include "common/hash.h"

namespace dpcf {

const char* ScanMonitorModeName(ScanMonitorMode mode) {
  switch (mode) {
    case ScanMonitorMode::kPrefixExact:
      return "prefix-exact";
    case ScanMonitorMode::kFullExact:
      return "full-exact";
    case ScanMonitorMode::kSampled:
      return "dpsample";
  }
  return "?";
}

ScanMonitorBundle::ScanMonitorBundle(Predicate pushed, const Schema* schema,
                                     double sample_fraction, uint64_t seed)
    : pushed_(std::move(pushed)),
      schema_(schema),
      sample_fraction_(sample_fraction),
      seed_(seed) {
  assert(sample_fraction_ > 0.0 && sample_fraction_ <= 1.0);
}

Status ScanMonitorBundle::AddRequest(ScanExprRequest request) {
  Entry e;
  e.mode = ScanMonitorMode::kSampled;
  if (request.bitvector_slot < 0 && request.expr.IsPrefixOf(pushed_)) {
    // Free exact counting: the scan's own evaluation already tells us
    // whether the first prefix_len atoms held.
    e.mode = ScanMonitorMode::kPrefixExact;
    e.prefix_len = request.expr.size();
  } else if (sample_fraction_ >= 1.0) {
    e.mode = ScanMonitorMode::kFullExact;
  }
  if (request.bitvector_slot >= 0 && request.bv_col < 0) {
    return Status::InvalidArgument(
        "bitvector request needs the probe column (bv_col)");
  }
  if (e.mode != ScanMonitorMode::kPrefixExact) {
    e.kernel = PredicateKernel(request.expr, schema_);
  }
  e.request = std::move(request);
  entries_.push_back(std::move(e));
  return Status::OK();
}

std::unique_ptr<ScanMonitorBundle> ScanMonitorBundle::Clone() const {
  auto clone = std::make_unique<ScanMonitorBundle>(pushed_, schema_,
                                                   sample_fraction_, seed_);
  for (const Entry& e : entries_) {
    Status st = clone->AddRequest(e.request);
    assert(st.ok() && "requests were already validated");
    (void)st;
  }
  return clone;
}

Status ScanMonitorBundle::MergeFrom(const ScanMonitorBundle& other) {
  if (entries_.size() != other.entries_.size() ||
      sample_fraction_ != other.sample_fraction_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "bundle merge requires identically configured bundles");
  }
  if (page_open_ || other.page_open_) {
    return Status::InvalidArgument("bundle merge with a page still open");
  }
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& o = other.entries_[i];
    if (entries_[i].mode != o.mode ||
        entries_[i].request.label != o.request.label) {
      return Status::InvalidArgument(
          "bundle merge with mismatched request entries");
    }
    entries_[i].counter.MergeFrom(o.counter);
  }
  pages_seen_ += other.pages_seen_;
  pages_sampled_ += other.pages_sampled_;
  return Status::OK();
}

void ScanMonitorBundle::BeginPage(CpuStats* cpu, PageNo page_no) {
  (void)cpu;
  ++pages_seen_;
  page_open_ = true;
  // One Bernoulli draw per page, shared by all non-prefix requests — the
  // analog of turning short-circuiting off for the whole sampled page. The
  // draw hashes the page number (53-bit uniform, as Rng::NextDouble) so
  // the sampled set is a function of the seed alone, not the visit order.
  page_sampled_ =
      sample_fraction_ >= 1.0 ||
      static_cast<double>(Mix64Seeded(page_no, seed_) >> 11) * 0x1.0p-53 <
          sample_fraction_;
  if (page_sampled_) ++pages_sampled_;
  for (Entry& e : entries_) e.counter.BeginPage();
}

void ScanMonitorBundle::OnRow(
    const RowView& row, uint32_t leading_true, CpuStats* cpu,
    const std::vector<const BitvectorFilter*>& filter_slots) {
  for (Entry& e : entries_) {
    if (e.mode == ScanMonitorMode::kPrefixExact) {
      // One comparison per row (paper III-B) — charged as cheap monitor
      // bookkeeping.
      ++cpu->monitor_row_ops;
      if (leading_true >= e.prefix_len) e.counter.OnRowSatisfies();
      continue;
    }
    if (!page_sampled_) continue;
    // Short-circuiting is off for this row: evaluate the full requested
    // expression and charge every atom.
    bool pass = e.request.expr.EvalNoShortCircuit(row, cpu);
    if (e.request.bitvector_slot >= 0) {
      const BitvectorFilter* filter =
          static_cast<size_t>(e.request.bitvector_slot) < filter_slots.size()
              ? filter_slots[static_cast<size_t>(e.request.bitvector_slot)]
              : nullptr;
      ++cpu->monitor_hash_ops;
      pass = pass && filter != nullptr &&
             filter->MayContain(
                 row.GetInt64(static_cast<size_t>(e.request.bv_col)));
    }
    if (pass) e.counter.OnRowSatisfies();
  }
}

void ScanMonitorBundle::ObserveBatch(
    RowBlock* block, const uint32_t* leading, CpuStats* cpu,
    const std::vector<const BitvectorFilter*>& filter_slots) {
  const uint32_t n = block->size();
  for (Entry& e : entries_) {
    if (e.mode == ScanMonitorMode::kPrefixExact) {
      // One comparison per row, exactly like the per-row path.
      cpu->monitor_row_ops += n;
      const uint32_t plen = static_cast<uint32_t>(e.prefix_len);
      int64_t sat = 0;
      for (uint32_t r = 0; r < n; ++r) sat += leading[r] >= plen;
      e.counter.OnBatchSatisfies(sat);
      continue;
    }
    if (!page_sampled_) continue;
    // Short-circuiting is off for the sampled page: the compiled kernel
    // evaluates every atom on every row and charges atoms x rows, matching
    // EvalNoShortCircuit per row.
    pass_scratch_.resize(n);
    uint8_t* pass = pass_scratch_.data();
    e.kernel.EvalBatchDense(block, cpu, pass);
    if (e.request.bitvector_slot >= 0) {
      const BitvectorFilter* filter =
          static_cast<size_t>(e.request.bitvector_slot) < filter_slots.size()
              ? filter_slots[static_cast<size_t>(e.request.bitvector_slot)]
              : nullptr;
      cpu->monitor_hash_ops += n;
      const size_t bv_col = static_cast<size_t>(e.request.bv_col);
      for (uint32_t r = 0; r < n; ++r) {
        // The probe only happens for rows whose expression passed (the
        // serial path's && short-circuit); MayContain is pure, so probing
        // row-by-row here is observationally identical.
        if (pass[r]) {
          pass[r] = filter != nullptr &&
                    filter->MayContain(
                        RowView(block->row(r), schema_).GetInt64(bv_col));
        }
      }
    }
    int64_t sat = 0;
    for (uint32_t r = 0; r < n; ++r) sat += pass[r];
    e.counter.OnBatchSatisfies(sat);
  }
}

void ScanMonitorBundle::EndPage() {
  for (Entry& e : entries_) {
    if (e.mode == ScanMonitorMode::kPrefixExact || page_sampled_) {
      e.counter.EndPage();
    } else {
      // Unsampled page: discard the flag without counting the page as
      // inspected (the estimator divides by the sampled fraction).
      e.counter.BeginPage();
    }
  }
  page_sampled_ = false;
  page_open_ = false;
}

std::vector<ScanExprResult> ScanMonitorBundle::Finish() const {
  std::vector<ScanExprResult> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    ScanExprResult r;
    r.label = e.request.label;
    r.expr_text = e.request.expr.ToString(*schema_);
    if (e.request.bitvector_slot >= 0) {
      std::string bv = "bitvector(" +
                       schema_->column(static_cast<size_t>(e.request.bv_col))
                           .name +
                       ")";
      r.expr_text = r.expr_text == "TRUE" ? bv : r.expr_text + " AND " + bv;
    }
    r.mode = e.mode;
    r.pages_seen = pages_seen_;
    if (e.mode == ScanMonitorMode::kPrefixExact) {
      r.sample_fraction = 1.0;
      r.pages_sampled = pages_seen_;
      r.dpc = static_cast<double>(e.counter.pages_satisfying());
      r.cardinality = static_cast<double>(e.counter.rows_satisfying());
    } else {
      r.sample_fraction = sample_fraction_;
      r.pages_sampled = pages_sampled_;
      // DPSample step 7: PageCount / f (unbiased under Bernoulli page
      // sampling). The same scaling applies to the satisfying-row count.
      double f_effective = sample_fraction_ >= 1.0 ? 1.0 : sample_fraction_;
      r.dpc = static_cast<double>(e.counter.pages_satisfying()) / f_effective;
      r.cardinality =
          static_cast<double>(e.counter.rows_satisfying()) / f_effective;
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace dpcf
