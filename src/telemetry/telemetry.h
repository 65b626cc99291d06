// Engine-wide telemetry plane: a low-overhead metrics registry (counters,
// gauges, fixed-bucket histograms) plus RAII scoped-trace spans recorded
// into a bounded in-memory ring, with one JSON serializer for both.
//
// Every cost-based decision the engine makes — the partition cache's
// splice-or-drop flush policy, the evaluator's greedy join ordering — is
// invisible without per-decision attribution and timings. This subsystem
// is the single substrate all of them report through: `PliCache`, `Pli`
// intersections, the validator, `parallel_discovery`, the algebra
// evaluator, and `FlexibleRelation`'s batch mutation paths all increment
// named metrics and open spans here, and benches / `scripts/perf_smoke.py`
// dump the result as one JSON
// document (the unified stats channel that replaced bench_pli's hand-rolled
// counter printing).
//
// Cost model — telemetry is compiled in but OFF by default:
//
//  - `Enabled()` is a single relaxed atomic load. Every instrumentation
//    site guards on it, so a disabled build's overhead is one predictable
//    branch per site (measured within noise on BM_PliLevelSweep and the
//    mutate-then-query sweep).
//  - When enabled, counters and histograms update via relaxed atomics —
//    no locks on any hot path. Metric objects live forever once
//    registered (Reset() zeroes values in place, never deallocates), so
//    call sites may cache pointers in function-local statics and skip the
//    registry lookup after the first enabled pass (the FLEXREL_TELEMETRY_*
//    macros below do exactly that).
//  - Span records go through one mutex-guarded bounded ring; spans are
//    coarse (a flush, a discovery level, a batch apply), not per-tuple.
//
// Snapshot consistency: a counter snapshot is one atomic load; a histogram
// snapshot derives its total count from the bucket loads themselves, so
// `count == Σ buckets` holds by construction even while writers race; and
// ToJson() holds the registration lock, so no metric is ever torn between
// appearing in one section of the dump and missing from another.
// Individual relaxed counters may be mutually behind by in-flight
// increments — exact cross-metric identities (hits + misses == lookups)
// hold whenever the instrumented structure is quiescent, which is when
// benches and tests read them.

#ifndef FLEXREL_TELEMETRY_TELEMETRY_H_
#define FLEXREL_TELEMETRY_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace flexrel {
namespace telemetry {

/// The global on/off guard — one relaxed atomic load, the only cost every
/// instrumentation site pays when telemetry is off. Telemetry is compiled
/// in unconditionally; Enable() is the off-by-default switch.
bool Enabled();

/// Turns the plane on and clears the span ring back to its 4096-record
/// bound: once full, the oldest span records are overwritten (the dump
/// reports how many were dropped). bench/e2e relies on the clear to keep
/// only its last block's spans.
void Enable();

/// Turns it off. Metric values are retained (dumpable post-run); only new
/// updates stop.
void Disable();

// ---------------------------------------------------------------------------
// Metric kinds. All updates are relaxed atomics: exact totals, no ordering.
// ---------------------------------------------------------------------------

/// Monotone event count.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (plus a keep-max update for
/// high-watermarks like scratch capacity).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void KeepMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integer samples (latencies in
/// nanoseconds, burst sizes, row counts). Bucket i covers [2^(i-1), 2^i)
/// for i >= 1 and [0, 1] for i = 0; the last bucket absorbs everything
/// beyond — power-of-two edges keep Record() branch-free (bit width) and
/// the edges exactly testable.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  /// Inclusive upper edge of bucket `i` (the Prometheus-style `le` bound);
  /// the final bucket reports UINT64_MAX.
  static uint64_t BucketUpperEdge(size_t i);

  /// The bucket a sample lands in — exposed so tests can pin the edges.
  static size_t BucketIndex(uint64_t value);

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;  ///< Σ buckets — consistent with them by construction
    uint64_t sum = 0;
    std::array<uint64_t, kNumBuckets> buckets{};
  };
  Snapshot Snap() const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

// ---------------------------------------------------------------------------
// Scoped tracing: nested timed regions into a bounded ring.
// ---------------------------------------------------------------------------

/// One completed span. `name` is a static string supplied by the call site;
/// `detail` carries the per-decision attribution (flush arm, burst size,
/// the estimate that picked the arm, ...).
struct SpanRecord {
  const char* name = "";
  std::string detail;
  uint64_t start_ns = 0;  ///< since process start (monotonic)
  uint64_t dur_ns = 0;
  uint32_t thread = 0;  ///< small per-thread id (registration order)
  uint32_t depth = 0;   ///< nesting depth within the opening thread
};

/// RAII span: times the enclosing scope and records it into the ring on
/// destruction. Inert (no clock read, no allocation) when telemetry is
/// disabled at construction. `name` must be a string literal or otherwise
/// outlive the registry.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  /// Attaches free-form attribution, e.g. "arm=batched b=64 est=512".
  void SetDetail(std::string detail) { detail_ = std::move(detail); }

  bool active() const { return active_; }

 private:
  bool active_;
  const char* name_;
  std::string detail_;
  uint64_t start_ns_ = 0;
};

/// Monotonic nanoseconds since process start — the span clock, exposed for
/// call sites that time sub-regions by hand.
uint64_t NowNs();

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// Name -> metric. Registration takes a lock; the returned pointers are
/// valid for the life of the process (Reset() zeroes in place), so hot
/// sites cache them.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Point-in-time value of a counter, 0 when never registered — the
  /// convenient read for tests and perf_smoke-style invariant checks.
  uint64_t CounterValue(std::string_view name) const;

  /// One coherent dump of every metric plus the span ring, serialized as a
  /// single JSON document (the unified stats channel benches emit).
  std::string ToJson() const;

  /// Zeroes every metric and clears the span ring. Pointers handed out by
  /// Get* stay valid — values are reset in place, nothing is deallocated.
  void Reset();

  /// Spans recorded so far (including ones the ring has since dropped).
  size_t spans_recorded() const;

  // Internal: ring append for ScopedSpan.
  void RecordSpan(SpanRecord record);
  void SetTraceCapacity(size_t capacity);

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Convenience single-call reads of the global registry.
inline uint64_t CounterValue(std::string_view name) {
  return Registry::Global().CounterValue(name);
}

// ---------------------------------------------------------------------------
// Instrumentation macros: one relaxed load when disabled; a cached-pointer
// relaxed atomic update when enabled. The function-local static resolves
// the name exactly once per site.
// ---------------------------------------------------------------------------

#define FLEXREL_TELEMETRY_COUNT(name, n)                                   \
  do {                                                                     \
    if (::flexrel::telemetry::Enabled()) {                                 \
      static ::flexrel::telemetry::Counter* flexrel_telemetry_counter =    \
          ::flexrel::telemetry::Registry::Global().GetCounter(name);       \
      flexrel_telemetry_counter->Add(static_cast<uint64_t>(n));            \
    }                                                                      \
  } while (0)

#define FLEXREL_TELEMETRY_GAUGE_MAX(name, v)                               \
  do {                                                                     \
    if (::flexrel::telemetry::Enabled()) {                                 \
      static ::flexrel::telemetry::Gauge* flexrel_telemetry_gauge =        \
          ::flexrel::telemetry::Registry::Global().GetGauge(name);         \
      flexrel_telemetry_gauge->KeepMax(static_cast<int64_t>(v));           \
    }                                                                      \
  } while (0)

#define FLEXREL_TELEMETRY_GAUGE_SET(name, v)                               \
  do {                                                                     \
    if (::flexrel::telemetry::Enabled()) {                                 \
      static ::flexrel::telemetry::Gauge* flexrel_telemetry_gauge =        \
          ::flexrel::telemetry::Registry::Global().GetGauge(name);         \
      flexrel_telemetry_gauge->Set(static_cast<int64_t>(v));               \
    }                                                                      \
  } while (0)

#define FLEXREL_TELEMETRY_HIST(name, v)                                    \
  do {                                                                     \
    if (::flexrel::telemetry::Enabled()) {                                 \
      static ::flexrel::telemetry::Histogram* flexrel_telemetry_hist =     \
          ::flexrel::telemetry::Registry::Global().GetHistogram(name);     \
      flexrel_telemetry_hist->Record(static_cast<uint64_t>(v));            \
    }                                                                      \
  } while (0)

/// Scoped latency into histogram `name` (nanoseconds). Declares a local
/// whose destructor records; inert when disabled at entry.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist)
      : hist_(hist), start_ns_(hist != nullptr ? NowNs() : 0) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (hist_ != nullptr) hist_->Record(NowNs() - start_ns_);
  }

 private:
  Histogram* hist_;
  uint64_t start_ns_;
};

#define FLEXREL_TELEMETRY_LATENCY_IMPL2(var, name)                          \
  ::flexrel::telemetry::Histogram* var##_hist = nullptr;                    \
  if (::flexrel::telemetry::Enabled()) {                                    \
    static ::flexrel::telemetry::Histogram* flexrel_telemetry_lat_##var =   \
        ::flexrel::telemetry::Registry::Global().GetHistogram(name);        \
    var##_hist = flexrel_telemetry_lat_##var;                               \
  }                                                                         \
  ::flexrel::telemetry::ScopedLatency var(var##_hist)

/// FLEXREL_TELEMETRY_LATENCY(timer, "engine.pli.intersect_ns"); — times
/// the rest of the scope into that histogram.
#define FLEXREL_TELEMETRY_LATENCY(var, name) \
  FLEXREL_TELEMETRY_LATENCY_IMPL2(var, name)

}  // namespace telemetry
}  // namespace flexrel

#endif  // FLEXREL_TELEMETRY_TELEMETRY_H_
