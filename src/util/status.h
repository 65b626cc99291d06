// Exception-free error propagation, in the style common to C++ database
// engines (Arrow, RocksDB, LevelDB): fallible operations return a Status (or
// a Result<T>, see result.h) instead of throwing.

#ifndef FLEXREL_UTIL_STATUS_H_
#define FLEXREL_UTIL_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace flexrel {

/// Machine-readable classification of an error condition.
enum class StatusCode : int {
  kOk = 0,
  /// A caller-supplied argument is malformed (e.g. duplicate attribute in a
  /// flexible scheme, cardinality bounds out of range).
  kInvalidArgument = 1,
  /// A tuple or relation violates a scheme or dependency; the data is the
  /// problem, not the request.
  kConstraintViolation = 2,
  /// A named entity (attribute, relation, variant) does not exist.
  kNotFound = 3,
  /// An entity being created already exists.
  kAlreadyExists = 4,
  /// The operation is well-formed but not permitted in the current state
  /// (e.g. evaluating an unbound plan).
  kFailedPrecondition = 5,
  /// Arithmetic / capacity overflow (e.g. dnf() count exceeding 2^63).
  kOutOfRange = 6,
  /// Functionality intentionally not provided.
  kNotImplemented = 7,
  /// Catch-all for internal invariant breakage; indicates a library bug.
  kInternal = 8,
};

/// Returns the canonical lower-case name of `code` ("ok", "invalid-argument",
/// ...). Stable; safe to use in test expectations and log scraping.
const char* StatusCodeName(StatusCode code);

/// Outcome of a fallible operation: either OK or a code plus message.
///
/// The OK state allocates nothing, so functions returning Status on the hot
/// path (tuple type checks, dependency satisfaction probes) stay cheap.
/// Statuses are immutable value types; copying shares the error payload.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with `code` and a human-readable `message`.
  /// `code` must not be kOk — use the default constructor for success.
  Status(StatusCode code, std::string message);

  /// Named constructors, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg);
  static Status ConstraintViolation(std::string msg);
  static Status NotFound(std::string msg);
  static Status AlreadyExists(std::string msg);
  static Status FailedPrecondition(std::string msg);
  static Status OutOfRange(std::string msg);
  static Status NotImplemented(std::string msg);
  static Status Internal(std::string msg);

  /// True iff the operation succeeded.
  bool ok() const { return rep_ == nullptr; }

  /// The status code; kOk when ok().
  StatusCode code() const { return rep_ == nullptr ? StatusCode::kOk : rep_->code; }

  /// The error message; empty when ok().
  const std::string& message() const;

  /// "OK" or "<code-name>: <message>".
  std::string ToString() const;

  /// Returns a copy of this status with `context` prepended to the message,
  /// for annotating errors as they bubble up ("insert failed: ...").
  Status WithContext(const std::string& context) const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code() == b.code() && a.message() == b.message();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  // Null for OK; shared so copies are cheap.
  std::shared_ptr<const Rep> rep_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace flexrel

/// Propagates a non-OK Status out of the enclosing function.
#define FLEXREL_RETURN_IF_ERROR(expr)                  \
  do {                                                 \
    ::flexrel::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                         \
  } while (false)

#endif  // FLEXREL_UTIL_STATUS_H_
