// Negative-compilation fixture for the [[nodiscard]] contracts: Status,
// Result<T>, and the constructors of the scope-only RAII guards.
//
// Compiled as-is it is the control and MUST compile under -Wall -Werror:
// every Status is consumed and every guard is named. Each CASE_<name>
// macro seeds exactly one discarded value, and that compile MUST fail on
// the nodiscard diagnostic (the CMake harness here asserts both).

#include <cstdint>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/trace_collector.h"

namespace dpcf {

struct FeedbackSink {
  Status Apply(int run_id);
  Status Flush();
};

using WriteAck = Status;  // the dropped type is Status only via the alias
WriteAck WriteRuns(int n);
Result<int> CountPages(int segment);

// Same method name, different return types: only the Status one counts.
struct Counter {
  void MergeFrom(const Counter& other);
};
struct Bundle {
  Status MergeFrom(const Bundle& other);
};

Status Drive(FeedbackSink* sink, TraceCollector* trace, uint64_t qid,
             Counter* counter, Bundle* bundle) {
  Mutex mu;
#if defined(CASE_discarded_status_member_call)
  sink->Apply(
      42);  // BUG UNDER TEST: Status dropped, call split across lines
#elif defined(CASE_discarded_result)
  CountPages(7);  // BUG UNDER TEST: Result<T> dropped
#elif defined(CASE_discarded_status_alias)
  WriteRuns(3);  // BUG UNDER TEST: alias-typed Status dropped
#elif defined(CASE_unnamed_mutex_lock)
  MutexLock{&mu};  // BUG UNDER TEST: unlocks at the semicolon
#elif defined(CASE_unnamed_scoped_span)
  ScopedSpan(trace, "exec", "scan");  // BUG UNDER TEST: span closes at once
#elif defined(CASE_unnamed_query_id_scope)
  TraceCollector::QueryIdScope{qid};  // BUG UNDER TEST: tags nothing
#endif

  // Control: the same shapes, used correctly.
  DPCF_RETURN_IF_ERROR(sink->Apply(42));
  Status st = sink->Flush();
  if (!st.ok()) return st;
  (void)WriteRuns(3);  // explicit, deliberate discard
  Result<int> pages = CountPages(7);
  if (!pages.ok()) return pages.status();
  counter->MergeFrom(*counter);  // void overload: nothing to drop
  DPCF_RETURN_IF_ERROR(bundle->MergeFrom(*bundle));
  {
    MutexLock lock(&mu);
    ScopedSpan span(trace, "exec", "scan");
    TraceCollector::QueryIdScope qid_scope{qid};
  }
  return Status::OK();
}

}  // namespace dpcf
