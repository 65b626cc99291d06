// Level-wise parallel dependency discovery over the partition engine.
//
// The candidate space is the lattice of determinant sets, explored level by
// level (|X| = 1, 2, ...). Per level all candidate maximal-RHS computations
// are independent — each scans its determinant's cached partition over the
// universe's code columns (engine/validator.h), which a pass fetches once,
// one attribute per worker, and holds no longer than the pass — so they
// fan out across a small worker pool. Minimality pruning via the axiom
// systems (core/closure.h) is order-dependent and runs as a cheap
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

/// All determinant candidates of size `k` over `universe`, in the canonical
/// combination order shared with the brute-force enumerator. Exposed for
/// tests.
std::vector<AttrSet> LatticeLevel(const AttrSet& universe, size_t k);

/// Engine-backed counterparts of core's brute-force DiscoverAttrDeps /
/// DiscoverFuncDeps / DiscoverDependencies; identical results,
/// partition-based validation. A non-null `info` receives the run outcome
/// (status / completed levels / partial flag) — the only way to
/// distinguish a complete result from the verified prefix of a cancelled
/// or deadline-exceeded run.
std::vector<AttrDep> EngineDiscoverAttrDeps(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const DiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

std::vector<FuncDep> EngineDiscoverFuncDeps(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const DiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

DependencySet EngineDiscoverDependencies(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const DiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

/// Variants over a caller-provided cache, letting several discovery passes
/// (and instance-level audits, validator.h) share its partitions and
/// columns. Each pass reads the cache as it stands when the pass starts.
std::vector<AttrDep> EngineDiscoverAttrDeps(
    PliCache* cache, const AttrSet& universe,
    const DiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

std::vector<FuncDep> EngineDiscoverFuncDeps(
    PliCache* cache, const AttrSet& universe,
    const DiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

DependencySet EngineDiscoverDependencies(
    PliCache* cache, const AttrSet& universe,
    const DiscoveryOptions& options = {},
    DiscoveryRunInfo* info = nullptr);

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PARALLEL_DISCOVERY_H_
