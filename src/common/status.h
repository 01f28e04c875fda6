// Status / Result error-handling primitives for the DPCF library.
//
// The library does not throw exceptions across its API boundary; fallible
// operations return a Status (or a Result<T> when they also produce a value),
// following the RocksDB / Arrow idiom.

#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace dpcf {

/// Coarse error taxonomy. Keep this small: callers branch on "ok or not"
/// almost everywhere; the code exists for tests and diagnostics.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kCorruption,
  kResourceExhausted,
  kNotSupported,
  kInternal,
  kCancelled,
};

/// Returns a short human-readable name ("InvalidArgument", ...) for a code.
const char* StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value.
///
/// An OK status carries no allocation; error statuses carry a message.
/// [[nodiscard]]: every build warns on a dropped Status (and DPCF_WERROR
/// builds fail); discard deliberately with an explicit (void) cast.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value-or-error holder. Access the value only after checking ok().
/// [[nodiscard]] for the same reason as Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(repr_).ok() &&
           "Result must not be constructed from an OK status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : std::get<Status>(repr_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(repr_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

namespace internal {
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}
/// Prints "<file>:<line>: unexpected failure: <status>" and aborts.
[[noreturn]] void CheckOkFailed(const char* file, int line,
                                const Status& status);
}  // namespace internal

// Propagate a non-OK Status to the caller.
#define DPCF_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::dpcf::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

// Abort on a non-OK Status or Result. For callers with no error channel
// (bench/example main()s, test fixtures returning values): Status is
// [[nodiscard]], so the compiler rejects silently dropping it, and a
// setup failure would otherwise surface as nonsense measurements.
#define DPCF_CHECK_OK(expr)                                         \
  do {                                                              \
    const auto& _res = (expr);                                      \
    if (!_res.ok()) {                                               \
      ::dpcf::internal::CheckOkFailed(__FILE__, __LINE__,           \
                                      ::dpcf::internal::StatusOf(_res)); \
    }                                                               \
  } while (0)

// Evaluate a Result-returning expression; assign its value to `lhs` or
// propagate the error.
#define DPCF_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#define DPCF_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define DPCF_ASSIGN_OR_RETURN_NAME(a, b) DPCF_ASSIGN_OR_RETURN_CONCAT(a, b)
#define DPCF_ASSIGN_OR_RETURN(lhs, expr) \
  DPCF_ASSIGN_OR_RETURN_IMPL(            \
      DPCF_ASSIGN_OR_RETURN_NAME(_dpcf_result_, __LINE__), lhs, expr)

}  // namespace dpcf
