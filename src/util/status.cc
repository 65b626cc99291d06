#include "util/status.h"

#include <cassert>

namespace flexrel {

namespace {
const std::string& EmptyString() {
  static const std::string* empty = new std::string();
  return *empty;
}
}  // namespace

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kConstraintViolation:
      return "constraint-violation";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kAlreadyExists:
      return "already-exists";
    case StatusCode::kFailedPrecondition:
      return "failed-precondition";
    case StatusCode::kOutOfRange:
      return "out-of-range";
    case StatusCode::kNotImplemented:
      return "not-implemented";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

Status::Status(StatusCode code, std::string message) {
  assert(code != StatusCode::kOk && "use Status() for success");
  rep_ = std::make_shared<const Rep>(Rep{code, std::move(message)});
}

Status Status::InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
Status Status::ConstraintViolation(std::string msg) {
  return Status(StatusCode::kConstraintViolation, std::move(msg));
}
Status Status::NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
Status Status::AlreadyExists(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
Status Status::FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
Status Status::OutOfRange(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
Status Status::NotImplemented(std::string msg) {
  return Status(StatusCode::kNotImplemented, std::move(msg));
}
Status Status::Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}

const std::string& Status::message() const {
  return rep_ == nullptr ? EmptyString() : rep_->message;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code());
  out += ": ";
  out += message();
  return out;
}

Status Status::WithContext(const std::string& context) const {
  if (ok()) return *this;
  return Status(code(), context + ": " + message());
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace flexrel
