// Minimal Status / Result types for fallible operations (I/O, parsing).
//
// Algorithms in hcore never throw on hot paths; functions that can fail for
// external reasons (missing file, malformed edge list) return Result<T>.

#ifndef HCORE_UTIL_STATUS_H_
#define HCORE_UTIL_STATUS_H_

#include <string>
#include <utility>

#include "util/check.h"

namespace hcore {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kInternal,
};

/// Error status carrying a code and a human-readable message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  // lint:allow(test-only-api): the boundary tests pin the error kind, which
  // the message text alone does not fix.
  StatusCode code() const { return code_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> holds either a value or an error Status.
template <typename T>
class Result {
 public:
  // Implicit by design: `return value;` and `return status;` both read
  // naturally at call sites.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)), status_() {}
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    HCORE_CHECK(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; aborts if this holds an error.
  const T& value() const& {
    HCORE_CHECK(ok());
    return value_;
  }
  T& value() & {
    HCORE_CHECK(ok());
    return value_;
  }
  T&& value() && {
    HCORE_CHECK(ok());
    return std::move(value_);
  }

 private:
  T value_{};
  Status status_;
};

}  // namespace hcore

#endif  // HCORE_UTIL_STATUS_H_
