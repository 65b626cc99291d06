// Partition-based dependency validation (the engine's replacement for the
// hash-group inner loops of core/discovery.cc).
//
// Both maximal-RHS computations read a stripped partition of the candidate
// determinant X:
//  - AD (Definition 4.1, existence-pattern reading): an attribute a belongs
//    to the maximal determined set iff within every cluster all members
//    agree on *possessing* a — values are irrelevant.
//  - FD (Definition 4.2, distinct-pair reading): a belongs iff within every
//    cluster all members carry a and agree on its *value*.
// Rows outside the partition (not defined on X, or partnerless) constrain
// nothing under either reading, which is exactly why stripped partitions
// suffice.

#ifndef FLEXREL_ENGINE_VALIDATOR_H_
#define FLEXREL_ENGINE_VALIDATOR_H_

#include <vector>

#include "core/dependency_set.h"
#include "core/explicit_ad.h"
#include "engine/pli_cache.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace flexrel {

/// attr(t) for every row, precomputed once — the AD hot path touches these
/// per cluster member and must not rebuild them per candidate.
std::vector<AttrSet> ComputeRowAttrs(const std::vector<Tuple>& rows);

/// The maximal Y (within `universe`, excluding `lhs`) with X --attr--> Y,
/// read off the stripped partition of X. Mirrors the brute-force
/// MaximalAdRhs of core/discovery.cc exactly. A non-null `exec` is polled
/// every few dozen clusters; on a trip the scan bails with the empty set —
/// the caller is unwinding and discards the result, so bailing cheap beats
/// finishing a fat partition.
AttrSet PartitionAdRhs(const Pli& pli, const std::vector<AttrSet>& row_attrs,
                       const AttrSet& lhs, const AttrSet& universe,
                       const ExecContext* exec = nullptr);

/// The FD counterpart: maximal Y with X --func--> Y.
AttrSet PartitionFdRhs(const Pli& pli, const std::vector<Tuple>& rows,
                       const AttrSet& lhs, const AttrSet& universe,
                       const ExecContext* exec = nullptr);

/// Validates single dependencies against one instance through a shared
/// partition cache; the cheap way to audit an engine- or user-supplied Σ.
class DependencyValidator {
 public:
  /// The cache (and the rows it indexes) must outlive the validator.
  explicit DependencyValidator(PliCache* cache);

  /// Definition 4.1 satisfaction via the cached partition of ad.lhs.
  bool ValidatesAd(const AttrDep& ad);

  /// Definition 4.2 satisfaction via the cached partition of fd.lhs.
  bool ValidatesFd(const FuncDep& fd);

  /// True iff the instance satisfies every member of `sigma`.
  bool ValidatesAll(const DependencySet& sigma);

  /// Maximal determined sets for a candidate determinant (discovery's inner
  /// step).
  AttrSet MaximalAdRhs(const AttrSet& lhs, const AttrSet& universe);
  AttrSet MaximalFdRhs(const AttrSet& lhs, const AttrSet& universe);

  const std::vector<AttrSet>& row_attrs() const { return row_attrs_; }
  PliCache* cache() { return cache_; }

  /// Attaches cooperative execution control: MaximalAdRhs/MaximalFdRhs
  /// poll it at cluster-batch boundaries and bail early (empty result)
  /// once it trips. Not owned; null (the default) disables polling.
  /// Discovery sets this from DiscoveryOptions::exec per run.
  void set_exec(const ExecContext* exec) { exec_ = exec; }
  const ExecContext* exec() const { return exec_; }

 private:
  PliCache* cache_;
  std::vector<AttrSet> row_attrs_;
  const ExecContext* exec_ = nullptr;
};

/// Lifts an instance-level AD `determinant --attr--> determined` into an
/// explicit AD (Definition 2.1): one variant per distinct determinant value,
/// its `then` the determined attributes that value's rows carry. Fails when
/// the instance violates the EAD semantics — some cluster disagrees on
/// presence within `determined`, or a row not defined on the determinant
/// carries determined attributes. This is the bridge from discovered
/// dependencies to the optimizer's guard analysis. `row_attrs`, when
/// non-null, supplies precomputed per-row attribute sets (ComputeRowAttrs)
/// so mining avoids rebuilding them per cluster member. `max_variants`
/// bounds the mined variant count (0 = unlimited): key-like determinants
/// produce one variant per row, and ExplicitAD::Make validates variant
/// disjointness pairwise, so an unbounded mine over a unique attribute
/// would cost O(rows²) — callers that only profit from small EADs should
/// cap it and treat the failure as "not minable".
Result<ExplicitAD> MineExplicitAd(PliCache* cache, const AttrSet& determinant,
                                  const AttrSet& determined,
                                  const std::vector<AttrSet>* row_attrs =
                                      nullptr,
                                  size_t max_variants = 0);

/// The subset of `candidates` minable with `determinant` under the explicit
/// reading: attributes carried by some row *not* defined on the determinant
/// are excluded (Definition 2.1's "otherwise ∅" clause). Lets a caller mine
/// the minable part of a maximal RHS instead of failing wholesale.
AttrSet ExplicitlyMinableRhs(const std::vector<Tuple>& rows,
                             const AttrSet& determinant,
                             const AttrSet& candidates);

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_VALIDATOR_H_
