// MetricsRegistry: the engine-wide metric store behind the observability
// layer (DESIGN.md section 11).
//
// Registration (GetCounter / GetGauge / GetHistogram) is latched and
// idempotent — callers resolve a raw pointer once, typically at attach time
// (BufferPool::AttachObservability, DiskManager::AttachMetrics,
// MonitorManager's constructor) — while the returned handles update with
// relaxed atomics only, so publishing from the storage hot path never takes
// a lock and never serializes scan workers. Exposition renders the whole
// registry as Prometheus text at quiescent points; like IoStats,
// cross-metric consistency is only guaranteed then.
//
// Naming convention (checked by the compiler: see MetricName below):
// snake_case with a unit suffix — counters end in `_total`, gauges and
// histograms in a unit such as `_us`, `_bytes`, `_pages`, `_rows`. A
// constant gauge whose payload is a label value (the Prometheus info-metric
// idiom, e.g. dpcf_simd_dispatch_info{isa="avx2"} 1) ends in `_info`.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace dpcf {

/// Sorted (key, value) label pairs identifying one child of a metric
/// family, e.g. {{"shard", "3"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Not constexpr on purpose: MetricName's consteval constructor calls it
/// only for a name off the convention, so a bad name fails to compile and
/// the diagnostic names this function.
inline void metric_name_violates_naming_convention() {}

/// A metric name, checked against the naming convention where it is
/// written: it converts from a string literal at compile time only.
template <MetricKind kKind>
class MetricName {
 public:
  consteval MetricName(const char* name) : name_(name) {
    if (!Follows(name)) metric_name_violates_naming_convention();
  }
  const char* c_str() const { return name_; }

 private:
  static consteval bool Follows(std::string_view s) {
    if (s.empty() || s.front() < 'a' || s.front() > 'z' || s.back() == '_') {
      return false;
    }
    for (size_t i = 1; i < s.size(); ++i) {
      const bool alnum = (s[i] >= 'a' && s[i] <= 'z') ||
                         (s[i] >= '0' && s[i] <= '9');
      if (!alnum && (s[i] != '_' || s[i - 1] == '_')) return false;
    }
    bool unit = false;
    for (std::string_view suffix : {"_us", "_ms", "_seconds", "_bytes",
                                    "_pages", "_rows", "_ratio", "_factor",
                                    "_ops"}) {
      unit = unit || s.ends_with(suffix);
    }
    if (kKind == MetricKind::kCounter) return s.ends_with("_total");
    return unit || (kKind == MetricKind::kGauge && s.ends_with("_info"));
  }

  const char* name_;
};

using CounterName = MetricName<MetricKind::kCounter>;
using GaugeName = MetricName<MetricKind::kGauge>;
using HistogramName = MetricName<MetricKind::kHistogram>;

/// Monotonically increasing event count. Relaxed atomic: safe to bump from
/// any thread, totals exact at quiescent points.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Last-write-wins instantaneous value (e.g. a configured latency knob).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Bounded log-scale histogram: bucket i spans
/// (lower_bound * growth^(i-1), lower_bound * growth^i]; one overflow
/// bucket catches everything above the last bound. Observe() is lock-free
/// (a short scan over immutable bounds plus relaxed increments), so it is
/// safe on concurrent paths such as the buffer pool's miss read.
class LogHistogram {
 public:
  LogHistogram(double lower_bound, double growth, size_t num_buckets);
  /// A relaxed snapshot, like AtomicCounter's copy: exact at quiescent
  /// points.
  LogHistogram(const LogHistogram& other);
  LogHistogram& operator=(const LogHistogram&) = delete;

  void Observe(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  size_t num_buckets() const { return bounds_.size(); }
  /// Inclusive upper bound of bucket i (Prometheus `le`).
  double bucket_bound(size_t i) const { return bounds_[i]; }
  int64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  int64_t overflow_count() const {
    return overflow_.load(std::memory_order_relaxed);
  }

  /// Server-side quantile estimate (q in [0, 1]) with linear interpolation
  /// inside the covering bucket — the same convention as PromQL's
  /// histogram_quantile, computed here so metrics.prom is dashboardable
  /// without a query layer. Observations in the overflow bucket clamp to
  /// the last bound. Like the rest of exposition, the relaxed bucket reads
  /// are only cross-consistent at quiescent points.
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;  // immutable after the ctor
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> overflow_{0};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Name -> family -> labeled-child store with Prometheus-text exposition.
/// Pointers returned by the Get* methods are stable for the registry's
/// lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the counter `name` with `labels`. `help` is recorded
  /// on first registration of the family.
  Counter* GetCounter(CounterName name, const std::string& help,
                      MetricLabels labels = {}) EXCLUDES(mu_);

  Gauge* GetGauge(GaugeName name, const std::string& help,
                  MetricLabels labels = {}) EXCLUDES(mu_);

  /// LogHistogram bucket geometry is a property of the family: the parameters
  /// of the first registration win and later calls just resolve the child.
  LogHistogram* GetHistogram(HistogramName name, const std::string& help,
                             double lower_bound, double growth,
                             size_t num_buckets, MetricLabels labels = {})
      EXCLUDES(mu_);

  /// Prometheus text exposition format (# HELP / # TYPE + samples).
  std::string PrometheusText() const EXCLUDES(mu_);

 private:
  template <typename M>
  struct Child {
    MetricLabels labels;
    std::unique_ptr<M> metric;
  };
  template <typename M>
  struct Family {
    std::string help;
    // Keyed by the serialized label set for child lookup.
    std::map<std::string, Child<M>> children;
  };
  struct HistogramFamily : Family<LogHistogram> {
    double lower_bound = 1.0;
    double growth = 2.0;
    size_t num_buckets = 16;
  };

  static std::string LabelKey(const MetricLabels& labels);

  // Leaf rank: find-or-create and exposition hold no other latch.
  mutable Mutex mu_{lock_rank::kMetricsRegistry};
  std::map<std::string, Family<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, Family<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, HistogramFamily> histograms_ GUARDED_BY(mu_);
};

}  // namespace dpcf
