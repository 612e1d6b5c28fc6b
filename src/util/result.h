#ifndef ACTOR_UTIL_RESULT_H_
#define ACTOR_UTIL_RESULT_H_

#include <optional>
#include <utility>

#include "util/logging.h"
#include "util/status.h"

namespace actor {

/// A value-or-error type: holds either a T or a non-OK Status.
/// Mirrors arrow::Result. Accessing the value of an errored Result aborts,
/// so callers must test ok() (or use ACTOR_ASSIGN_OR_RETURN).
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return value;` from functions returning
  /// Result<T>.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from error status. Constructing from an OK status is a
  /// programming error and yields an Internal error instead.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : status_;
  }

  /// The contained value. Aborts if this Result holds an error.
  T& ValueOrDie() {
    if (!ok()) status_.CheckOK();
    return *value_;
  }
  const T& ValueOrDie() const {
    if (!ok()) status_.CheckOK();
    return *value_;
  }

  /// Moves the contained value out. Aborts if this Result holds an error.
  T MoveValueOrDie() {
    if (!ok()) status_.CheckOK();
    return std::move(*value_);
  }

  T* operator->() { return &ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T& operator*() { return ValueOrDie(); }
  const T& operator*() const { return ValueOrDie(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace actor

/// Assigns the value of a Result expression to `lhs`, or propagates its
/// error status to the caller.
#define ACTOR_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                \
  lhs = tmp.MoveValueOrDie();

#define ACTOR_ASSIGN_OR_RETURN_CAT(a, b) a##b
#define ACTOR_ASSIGN_OR_RETURN_NAME(a, b) ACTOR_ASSIGN_OR_RETURN_CAT(a, b)

#define ACTOR_ASSIGN_OR_RETURN(lhs, rexpr) \
  ACTOR_ASSIGN_OR_RETURN_IMPL(             \
      ACTOR_ASSIGN_OR_RETURN_NAME(_result_tmp_, __LINE__), lhs, rexpr)

#endif  // ACTOR_UTIL_RESULT_H_
