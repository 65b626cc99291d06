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

namespace flexrel {

/// All determinant candidates of size `k` over `universe`, in the canonical
/// combination order shared with the brute-force enumerator. Exposed for
/// tests.
std::vector<AttrSet> LatticeLevel(const AttrSet& universe, size_t k);

/// Engine-backed counterparts of core's brute-force DiscoverAttrDeps /
/// DiscoverFuncDeps / DiscoverDependencies; identical results,
/// partition-based validation. An exception a worker throws (an allocation
/// failure, an injected fault) surfaces on the calling thread once the
/// level's pool has drained, and the run returns nothing.
std::vector<AttrDep> EngineDiscoverAttrDeps(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const DiscoveryOptions& options = {});

std::vector<FuncDep> EngineDiscoverFuncDeps(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const DiscoveryOptions& options = {});

DependencySet EngineDiscoverDependencies(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const DiscoveryOptions& options = {});

/// Variants over a caller-provided cache, letting several discovery passes
/// (and instance-level audits, validator.h) share its partitions and
/// columns. Each pass reads the cache as it stands when the pass starts.
std::vector<AttrDep> EngineDiscoverAttrDeps(
    PliCache* cache, const AttrSet& universe,
    const DiscoveryOptions& options = {});

std::vector<FuncDep> EngineDiscoverFuncDeps(
    PliCache* cache, const AttrSet& universe,
    const DiscoveryOptions& options = {});

DependencySet EngineDiscoverDependencies(
    PliCache* cache, const AttrSet& universe,
    const DiscoveryOptions& options = {});

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PARALLEL_DISCOVERY_H_
