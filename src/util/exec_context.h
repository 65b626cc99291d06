// Cooperative execution control for long-running engine jobs: a deadline
// and a cancellation token, carried as one `ExecContext` that discovery,
// validation, and evaluation thread through.
//
// The model is cooperative, in the style of Desbordante's interruptible
// algorithm harness and gRPC deadlines: the engine never kills a thread.
// Long-running loops call `Check()` at natural batch boundaries (a
// discovery level, a candidate, ~64 partition clusters, ~1k join probes)
// and unwind with Status kCancelled / kDeadlineExceeded when tripped.
// Because checks land on batch boundaries, every caller can state a
// partial-result contract: discovery returns the verified-so-far level
// prefix flagged partial, evaluation returns the error with no result.
//
// Cost model: a null ExecContext* costs one pointer test. A live check is
// one relaxed atomic load (cancellation) plus, only when a deadline is
// set, one steady_clock read — cheap enough for every few dozen clusters
// but still kept off per-tuple paths.

#ifndef FLEXREL_UTIL_EXEC_CONTEXT_H_
#define FLEXREL_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace flexrel {

/// Sticky cancellation flag shared between a controller thread (which calls
/// RequestCancel) and any number of workers (which poll cancelled()). Once
/// set it never clears — a cancelled job stays cancelled through every
/// subsequent check, which is what makes mid-flight unwinding race-free.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Safe from any thread, idempotent.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms a deterministic trip: the token cancels itself permanently on the
  /// n-th subsequent cancelled() poll. Deterministic replacement for
  /// wall-clock racing in tests ("cancel mid-candidate-batch"); a negative
  /// n disarms. Not meant for production callers.
  void CancelAfterChecks(int64_t n) {
    trip_after_.store(n, std::memory_order_relaxed);
  }

  /// True once cancellation was requested (or an armed check-count trip
  /// fired). One relaxed load on the common not-cancelled path.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (trip_after_.load(std::memory_order_relaxed) >= 0 &&
        trip_after_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<int64_t> trip_after_{-1};
};

/// Per-job execution context: optional cancellation token, optional
/// deadline. Plain value semantics for the configuration; the token is
/// referenced, not owned, so one controller can cancel many jobs. A
/// default-constructed ExecContext never trips.
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecContext() = default;

  /// Attaches a cancellation token (not owned; must outlive the context).
  void set_cancellation_token(const CancellationToken* token) {
    cancel_ = token;
  }
  const CancellationToken* cancellation_token() const { return cancel_; }

  /// Sets an absolute deadline on the steady clock.
  void set_deadline(Clock::time_point deadline) {
    has_deadline_ = true;
    deadline_ = deadline;
  }

  /// Sets the deadline `timeout` from now.
  void set_timeout(Clock::duration timeout) {
    set_deadline(Clock::now() + timeout);
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// The poll: OK while the job may continue, else kCancelled /
  /// kDeadlineExceeded. Cancellation wins ties. The first trip bumps the
  /// engine.exec.{cancelled,deadline_exceeded} telemetry counter exactly
  /// once per context; the status itself is sticky by construction (the
  /// token never un-cancels and deadlines never move backwards past now).
  Status Check() const;

 private:
  const CancellationToken* cancel_ = nullptr;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  // Whether this context already counted its trip in telemetry.
  mutable std::atomic<bool> counted_{false};
};

/// Null-tolerant poll — the form engine loops use, since `exec` is an
/// optional knob defaulting to nullptr on every options struct.
inline Status CheckExec(const ExecContext* exec) {
  return exec == nullptr ? Status::OK() : exec->Check();
}

}  // namespace flexrel

#endif  // FLEXREL_UTIL_EXEC_CONTEXT_H_
