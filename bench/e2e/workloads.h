// The four end-to-end workloads. Each is one closed-loop client: the next
// op starts when the previous one has returned. Ops call the library's
// public entry points only, one benchmark span per call (trace.h).

#ifndef FLEXREL_BENCH_E2E_WORKLOADS_H_
#define FLEXREL_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "trace.h"

namespace e2e {

struct OpTiming {
  double op_ms = 0;
  /// The op's read step: the query in index-read, analytic and mutate-read
  /// (in mutate-read, the read after the write), the first load in migrate.
  double read_ms = 0;
  bool ok = true;
};

/// What the benchmark's own calls observe per layer, summed over traced ops
/// only (the registry covers the rest).
struct LayerCounts {
  size_t queries = 0;  ///< OptimizePlan calls
  size_t guards_eliminated = 0;
  size_t branches_pruned = 0;
  size_t evals = 0;  ///< Evaluate calls
  size_t tuples_scanned = 0;
  size_t rows_returned = 0;
  size_t predicate_evals = 0;
  size_t join_probes = 0;
  size_t join_rows = 0;  ///< rows returned by evaluations that probed a join
  size_t batches = 0;    ///< ApplyBatch calls
  size_t batch_ops = 0;
  uint64_t batch_flush_ns = 0;  ///< engine.pli_cache.flush_ns inside ApplyBatch
  size_t stored_bytes = 0;      ///< flexdb text written
  size_t stored_rows = 0;
  size_t bulk_insert_rows = 0;  ///< the last set-up's InsertRows
  double bulk_insert_ms = 0;
};

/// Ops whose answers are kept for the correctness checks and the state
/// digest; every run executes at least this many.
constexpr size_t kCheckedOps = 100;

struct CheckResult {
  size_t run = 0;
  size_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed`, loads them, and runs the untimed
  /// warm-up ops (drawn from their own seed stream).
  virtual void Setup(uint64_t seed, Tracer* tracer) = 0;
  virtual uint64_t input_digest() const = 0;

  /// Runs op `i`. Its inputs are drawn before its clock starts and its
  /// answer is checked after the clock stops.
  virtual OpTiming RunOp(size_t i, Tracer* tracer) = 0;

  /// Correctness checks that run after the timed loop; each failure is
  /// reported on stderr.
  virtual CheckResult Check() = 0;

  /// Digest of the answers of ops 0..kCheckedOps-1 (and, where ops write,
  /// of the state they leave), identical for equal seeds.
  virtual uint64_t state_digest() const = 0;

  LayerCounts counts;
};

/// "migrate", "index-read", "analytic" or "mutate-read"; null otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace e2e

#endif  // FLEXREL_BENCH_E2E_WORKLOADS_H_
