// Level-wise parallel dependency discovery over the partition engine.
//
// The candidate space is the lattice of determinant sets, explored level by
// level (|X| = 1, 2, ...). Per level all candidate maximal-RHS computations
// are independent — each reads the instance through the shared PliCache —
// so they fan out across a small worker pool. Minimality pruning via the
// axiom systems (core/closure.h) is order-dependent and runs as a cheap
// sequential pass per level, in the exact enumeration order of the
// brute-force path, so engine results are bit-identical to
// core/discovery.cc's reference implementation.

#ifndef FLEXREL_ENGINE_PARALLEL_DISCOVERY_H_
#define FLEXREL_ENGINE_PARALLEL_DISCOVERY_H_

#include <vector>

#include "core/dependency_set.h"
#include "core/discovery.h"
#include "engine/validator.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace flexrel {

/// Knobs of the engine traversal. Mirrors core's DiscoveryOptions plus the
/// engine-specific resources; core/discovery.cc translates between the two.
struct EngineDiscoveryOptions {
  /// Maximal determinant size explored.
  size_t max_lhs_size = 2;
  /// Report generators only (prune candidates implied by earlier results).
  bool minimal_only = true;
  /// Worker threads per level; 0 picks std::thread::hardware_concurrency().
  size_t num_threads = 0;
  /// LRU bound of the partition cache (multi-attribute entries).
  size_t cache_max_entries = 1024;
  /// Lattice traversal: exact level-wise validation of every candidate, or
  /// the HyFD-style sample-then-validate loop (hybrid_discovery.h). Both
  /// return bit-identical results; level-wise stays the default so it
  /// remains the pinnable oracle the hybrid path is differentially tested
  /// and benched against.
  DiscoveryStrategy strategy = DiscoveryStrategy::kLevelWise;
  /// Hybrid only: keep running sampling rounds while the fraction of
  /// compared pairs that teach the evidence store something new stays at or
  /// above this. Below it, sampling has saturated and exact validation is
  /// the better use of the next cycle.
  double hybrid_min_efficiency = 0.02;
  /// Hybrid only: hard cap on sampling rounds per discovery run (the
  /// efficiency threshold is the intended stop; this bounds adversarial
  /// instances where fresh evidence trickles forever).
  size_t hybrid_max_rounds = 16;
  /// Hybrid only: before validating a level, extra sampling rounds are
  /// worth their cost while more than this fraction of the level's
  /// candidates survives evidence pruning (the adaptive switch back from
  /// validation to sampling).
  double hybrid_refine_fraction = 0.5;
  /// Cooperative execution control (util/exec_context.h): deadline,
  /// cancellation token, and memory budget for the run. Not owned; must
  /// outlive the call. Null (the default) means unbounded. The run polls
  /// at level and candidate boundaries and unwinds with the verified-
  /// so-far level prefix — see DiscoveryRunInfo for the contract. The
  /// context's memory budget seeds the partition cache's
  /// memory_budget_bytes on the rows-based entry points (which own their
  /// cache); validator-based callers configure their own cache.
  const ExecContext* exec = nullptr;
};

/// Outcome report of one discovery run, for callers that set an
/// ExecContext. `status` is OK for a run that completed, kCancelled /
/// kDeadlineExceeded when the context tripped. The partial-result
/// contract: the returned dependencies are exactly what a full run
/// restricted to determinants of size <= completed_levels would emit — a
/// level either completes (validated, pruned, and emitted whole, in
/// enumeration order) or contributes nothing; a level in flight when the
/// context trips is discarded entirely.
struct DiscoveryRunInfo {
  Status status;
  /// Lattice levels fully verified and emitted (max determinant size
  /// covered by the result).
  size_t completed_levels = 0;
  /// True iff the run stopped early — `status` then holds why.
  bool partial = false;
};

/// The single point translating core's DiscoveryOptions into engine knobs —
/// every delegating caller (core/discovery.cc, workload/generator.cc) goes
/// through here so the two option structs cannot drift.
EngineDiscoveryOptions ToEngineOptions(const DiscoveryOptions& options);

/// All determinant candidates of size `k` over `universe`, in the canonical
/// combination order shared with the brute-force enumerator. Exposed for
/// tests.
std::vector<AttrSet> LatticeLevel(const AttrSet& universe, size_t k);

/// Engine-backed counterparts of core's DiscoverAttrDeps / DiscoverFuncDeps
/// / DiscoverDependencies; identical results, partition-based validation.
/// A non-null `info` receives the run outcome (status / completed levels /
/// partial flag) — the only way to distinguish a complete result from the
/// verified prefix of a cancelled or deadline-exceeded run.
std::vector<AttrDep> EngineDiscoverAttrDeps(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const EngineDiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

std::vector<FuncDep> EngineDiscoverFuncDeps(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const EngineDiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

DependencySet EngineDiscoverDependencies(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const EngineDiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

/// Variants over a caller-provided validator, letting several discovery
/// passes (and instance-level audits) share one partition cache.
std::vector<AttrDep> EngineDiscoverAttrDeps(
    DependencyValidator* validator, const AttrSet& universe,
    const EngineDiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

std::vector<FuncDep> EngineDiscoverFuncDeps(
    DependencyValidator* validator, const AttrSet& universe,
    const EngineDiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

DependencySet EngineDiscoverDependencies(
    DependencyValidator* validator, const AttrSet& universe,
    const EngineDiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PARALLEL_DISCOVERY_H_
