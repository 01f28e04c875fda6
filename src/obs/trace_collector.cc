#include "obs/trace_collector.h"

#include "common/string_util.h"
#include "obs/event_journal.h"

namespace dpcf {

namespace {
thread_local uint64_t tls_query_id = 0;
}  // namespace

TraceCollector::QueryIdScope::QueryIdScope(uint64_t query_id)
    : prev_(tls_query_id) {
  tls_query_id = query_id;
}

TraceCollector::QueryIdScope::~QueryIdScope() { tls_query_id = prev_; }

uint64_t TraceCollector::current_query_id() { return tls_query_id; }

TraceCollector::TraceCollector() : epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceCollector::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceCollector::Record(Event event) {
  if (tls_query_id != 0) {
    event.args.emplace_back("qid", std::to_string(tls_query_id));
  }
  event.tid = ThisThreadIndex();
  MutexLock lock(&mu_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceCollector::AddSpan(const char* category, std::string name,
                             int64_t begin_us, TraceArgs args) {
  if (!enabled()) return;
  Event e;
  e.phase = 'X';
  e.category = category;
  e.name = std::move(name);
  e.ts_us = begin_us;
  const int64_t end_us = NowUs();
  e.dur_us = end_us > begin_us ? end_us - begin_us : 0;
  e.args = std::move(args);
  Record(std::move(e));
}

void TraceCollector::AddInstant(const char* category, std::string name,
                                TraceArgs args) {
  if (!enabled()) return;
  Event e;
  e.phase = 'i';
  e.category = category;
  e.name = std::move(name);
  e.ts_us = NowUs();
  e.args = std::move(args);
  Record(std::move(e));
}

size_t TraceCollector::event_count() const {
  MutexLock lock(&mu_);
  return events_.size();
}

size_t TraceCollector::dropped_events() const {
  MutexLock lock(&mu_);
  return dropped_;
}

void TraceCollector::Clear() {
  MutexLock lock(&mu_);
  events_.clear();
  dropped_ = 0;
}

std::string TraceCollector::ToJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out += i ? ",\n" : "\n";
    out += StrFormat(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
        "\"ts\": %lld, \"pid\": 1, \"tid\": %u",
        JsonEscape(e.name).c_str(), JsonEscape(e.category).c_str(), e.phase,
        static_cast<long long>(e.ts_us), e.tid);
    if (e.phase == 'X') {
      out += StrFormat(", \"dur\": %lld", static_cast<long long>(e.dur_us));
    }
    if (e.phase == 'i') {
      out += ", \"s\": \"t\"";  // thread-scoped instant
    }
    if (!e.args.empty()) {
      out += ", \"args\": {";
      for (size_t a = 0; a < e.args.size(); ++a) {
        if (a) out += ", ";
        out += '"';
        out += JsonEscape(e.args[a].first);
        out += "\": \"";
        out += JsonEscape(e.args[a].second);
        out += '"';
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace dpcf
