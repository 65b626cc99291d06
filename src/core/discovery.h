// Dependency discovery: mining the ADs and FDs an instance satisfies.
//
// The paper introduces ADs as *declared* constraints; a DBA migrating an
// existing null-ridden or heterogeneous dataset into flexible relations
// needs the inverse operation — find the value-based existence patterns
// hiding in the data. Discovery enumerates candidate determinants up to a
// bounded size and reports, per determinant, the maximal determined set
// satisfied by the instance (Definitions 4.1 / 4.2 semantics). Results are
// sound and complete w.r.t. the instance for the explored LHS sizes; as with
// all dependency mining they are hypotheses about the domain, not proofs.
//
// This file is the brute-force reference: it hash-groups the rows by every
// candidate determinant. The partition engine (engine/parallel_discovery.h,
// EngineDiscover*) returns identical results far faster and is what every
// caller under src/ uses; this path stays as its oracle.

#ifndef FLEXREL_CORE_DISCOVERY_H_
#define FLEXREL_CORE_DISCOVERY_H_

#include <vector>

#include "core/dependency_set.h"

namespace flexrel {

/// Bounds for the discovery enumeration. The one options struct of both
/// paths: the engine entry points (engine/parallel_discovery.h) take it too.
struct DiscoveryOptions {
  /// Maximal determinant size explored (the lattice grows as |U|^k).
  size_t max_lhs_size = 2;
  /// Skip dependencies already implied (via the axiom systems) by ones
  /// discovered at smaller determinants — reports generators only.
  bool minimal_only = true;
  /// Worker threads for the engine path; 0 = hardware concurrency. Ignored
  /// by the reference path.
  size_t num_threads = 0;
};

/// All non-trivial ADs X --attr--> Y with |X| <= max_lhs_size satisfied by
/// `rows`, Y maximal per X. With minimal_only, an AD is dropped when some
/// previously reported AD implies it under system 𝔄.
std::vector<AttrDep> DiscoverAttrDeps(const std::vector<Tuple>& rows,
                                      const AttrSet& universe,
                                      const DiscoveryOptions& options = {});

/// The FD counterpart (Definition 4.2 semantics, distinct-pair reading).
std::vector<FuncDep> DiscoverFuncDeps(const std::vector<Tuple>& rows,
                                      const AttrSet& universe,
                                      const DiscoveryOptions& options = {});

/// Convenience: both kinds bundled into a DependencySet.
DependencySet DiscoverDependencies(const std::vector<Tuple>& rows,
                                   const AttrSet& universe,
                                   const DiscoveryOptions& options = {});

}  // namespace flexrel

#endif  // FLEXREL_CORE_DISCOVERY_H_
