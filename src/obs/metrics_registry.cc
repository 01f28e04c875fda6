#include "obs/metrics_registry.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace dpcf {

namespace {

// Prometheus text exposition: inside a quoted label value, backslash,
// double-quote and newline must be escaped (\\, \", \n) or the line is
// unparseable and silently corrupts every sample after it.
std::string PromEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first + "=\"" + PromEscape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

MetricLabels Canonical(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

LogHistogram::LogHistogram(double lower_bound, double growth, size_t num_buckets) {
  assert(lower_bound > 0 && growth > 1 && num_buckets > 0);
  bounds_.reserve(num_buckets);
  double bound = lower_bound;
  for (size_t i = 0; i < num_buckets; ++i) {
    bounds_.push_back(bound);
    bound *= growth;
  }
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(num_buckets);
  for (size_t i = 0; i < num_buckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

LogHistogram::LogHistogram(const LogHistogram& other)
    : bounds_(other.bounds_),
      buckets_(std::make_unique<std::atomic<int64_t>[]>(bounds_.size())),
      overflow_(other.overflow_count()),
      count_(other.count()),
      sum_(other.sum()) {
  for (size_t i = 0; i < bounds_.size(); ++i) {
    buckets_[i].store(other.bucket_count(i), std::memory_order_relaxed);
  }
}

void LogHistogram::Observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      buckets_[i].fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  overflow_.fetch_add(1, std::memory_order_relaxed);
}

double LogHistogram::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  double rank = q * static_cast<double>(n);
  if (rank < 1.0) rank = 1.0;
  int64_t cumulative = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    const int64_t c = bucket_count(i);
    if (c > 0 && static_cast<double>(cumulative + c) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      return lo + (hi - lo) * ((rank - static_cast<double>(cumulative)) /
                               static_cast<double>(c));
    }
    cumulative += c;
  }
  return bounds_.back();
}

std::string MetricsRegistry::LabelKey(const MetricLabels& labels) {
  return RenderLabels(labels);
}

Counter* MetricsRegistry::GetCounter(CounterName name,
                                     const std::string& help,
                                     MetricLabels labels) {
  labels = Canonical(std::move(labels));
  MutexLock lock(&mu_);
  Family<Counter>& fam = counters_[name.c_str()];
  if (fam.help.empty()) fam.help = help;
  Child<Counter>& child = fam.children[LabelKey(labels)];
  if (child.metric == nullptr) {
    child.labels = std::move(labels);
    child.metric = std::make_unique<Counter>();
  }
  return child.metric.get();
}

Gauge* MetricsRegistry::GetGauge(GaugeName name, const std::string& help,
                                 MetricLabels labels) {
  labels = Canonical(std::move(labels));
  MutexLock lock(&mu_);
  Family<Gauge>& fam = gauges_[name.c_str()];
  if (fam.help.empty()) fam.help = help;
  Child<Gauge>& child = fam.children[LabelKey(labels)];
  if (child.metric == nullptr) {
    child.labels = std::move(labels);
    child.metric = std::make_unique<Gauge>();
  }
  return child.metric.get();
}

LogHistogram* MetricsRegistry::GetHistogram(HistogramName name,
                                            const std::string& help,
                                            double lower_bound, double growth,
                                            size_t num_buckets,
                                            MetricLabels labels) {
  labels = Canonical(std::move(labels));
  MutexLock lock(&mu_);
  HistogramFamily& fam = histograms_[name.c_str()];
  if (fam.children.empty()) {
    fam.help = help;
    fam.lower_bound = lower_bound;
    fam.growth = growth;
    fam.num_buckets = num_buckets;
  }
  Child<LogHistogram>& child = fam.children[LabelKey(labels)];
  if (child.metric == nullptr) {
    child.labels = std::move(labels);
    child.metric = std::make_unique<LogHistogram>(fam.lower_bound, fam.growth,
                                               fam.num_buckets);
  }
  return child.metric.get();
}

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& [name, fam] : counters_) {
    out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " counter\n";
    for (const auto& [key, child] : fam.children) {
      out += StrFormat("%s%s %lld\n", name.c_str(), key.c_str(),
                       static_cast<long long>(child.metric->value()));
    }
  }
  for (const auto& [name, fam] : gauges_) {
    out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " gauge\n";
    for (const auto& [key, child] : fam.children) {
      out += StrFormat("%s%s %s\n", name.c_str(), key.c_str(),
                       FormatDouble(child.metric->value(), 6).c_str());
    }
  }
  for (const auto& [name, fam] : histograms_) {
    out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " histogram\n";
    for (const auto& [key, child] : fam.children) {
      const LogHistogram& h = *child.metric;
      int64_t cumulative = 0;
      for (size_t i = 0; i < h.num_buckets(); ++i) {
        cumulative += h.bucket_count(i);
        MetricLabels le = child.labels;
        le.emplace_back("le", FormatDouble(h.bucket_bound(i), 6));
        out += StrFormat("%s_bucket%s %lld\n", name.c_str(),
                         RenderLabels(le).c_str(),
                         static_cast<long long>(cumulative));
      }
      MetricLabels le = child.labels;
      le.emplace_back("le", "+Inf");
      out += StrFormat("%s_bucket%s %lld\n", name.c_str(),
                       RenderLabels(le).c_str(),
                       static_cast<long long>(h.count()));
      out += StrFormat("%s_sum%s %s\n", name.c_str(), key.c_str(),
                       FormatDouble(h.sum(), 6).c_str());
      out += StrFormat("%s_count%s %lld\n", name.c_str(), key.c_str(),
                       static_cast<long long>(h.count()));
      // Server-side quantile estimates as summary-style samples under the
      // family name, so dashboards read p50/p95/p99 straight from the
      // text without a histogram_quantile() layer.
      for (double q : {0.5, 0.95, 0.99}) {
        MetricLabels ql = child.labels;
        ql.emplace_back("quantile", FormatDouble(q, 2));
        out += StrFormat("%s%s %s\n", name.c_str(),
                         RenderLabels(ql).c_str(),
                         FormatDouble(h.Quantile(q), 6).c_str());
      }
    }
  }
  return out;
}

}  // namespace dpcf
