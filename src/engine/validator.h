// Partition-based dependency validation over the cache's code columns (the
// engine's replacement for the hash-group inner loops of core/discovery.cc).
//
// Definitions 4.1 and 4.2 ask the same question of every cluster of the
// stripped partition of the determinant X: does each member agree with the
// cluster's first row? They differ only in what must agree, and an
// attribute's code column (engine/dictionary.h) answers both per code:
//  - AD (Definition 4.1, existence-pattern reading): presence — the
//    member's code is kMissingCode iff the first row's is; values are
//    irrelevant.
//  - FD (Definition 4.2, distinct-pair reading): the value — the member's
//    code equals the first row's, and that code is not kMissingCode.
// One scan serves both: per candidate attribute it walks X's clusters over
// that attribute's column and stops at the first disagreeing member. No
// value is read once the columns are built (TANE, HyFD's compressed
// records). Rows outside the partition (not defined on X, or partnerless)
// constrain nothing under either reading, which is exactly why stripped
// partitions suffice.
//
// Nothing here outlives a call: partitions and columns are fetched from
// the cache per call (discovery fetches the universe's columns once per
// pass and hands them to every candidate), so a relation's long-lived
// cache is answered for the rows it holds now. The cache's contract
// applies: the rows must stay put during a call; concurrent calls over a
// quiescent instance are safe.

#ifndef FLEXREL_ENGINE_VALIDATOR_H_
#define FLEXREL_ENGINE_VALIDATOR_H_

#include <memory>
#include <span>
#include <vector>

#include "core/dependency_set.h"
#include "core/explicit_ad.h"
#include "engine/pli_cache.h"
#include "util/result.h"

namespace flexrel {

/// The maximal Y (within `universe`, excluding `lhs`) with X --attr--> Y,
/// read off the cached partition of X = `lhs` over `columns`, the code
/// columns of universe.ids() in order, fetched from `cache` since its rows
/// last changed. Mirrors the brute-force MaximalAdRhs of core/discovery.cc
/// exactly.
AttrSet MaximalAdRhs(
    PliCache* cache, const AttrSet& lhs, const AttrSet& universe,
    std::span<const std::shared_ptr<const CodeColumn>> columns);

/// The FD counterpart: maximal Y with X --func--> Y.
AttrSet MaximalFdRhs(
    PliCache* cache, const AttrSet& lhs, const AttrSet& universe,
    std::span<const std::shared_ptr<const CodeColumn>> columns);

/// Definition 4.1 satisfaction via the cached partition of ad.lhs.
bool ValidatesAd(PliCache* cache, const AttrDep& ad);

/// Definition 4.2 satisfaction via the cached partition of fd.lhs.
bool ValidatesFd(PliCache* cache, const FuncDep& fd);

/// True iff the instance satisfies every member of `sigma` — the cheap way
/// to audit a Σ that did not come from discovery (one read from a file,
/// say).
bool ValidatesAll(PliCache* cache, const DependencySet& sigma);

/// Lifts an instance-level AD `determinant --attr--> determined` into an
/// explicit AD (Definition 2.1): one variant per distinct determinant value,
/// its `then` the determined attributes that value's rows carry, read off
/// the determined attributes' code columns. Fails when the instance
/// violates the EAD semantics — some cluster disagrees on presence within
/// `determined`, or a row not defined on the determinant carries determined
/// attributes. This is the bridge from discovered dependencies to the
/// optimizer's guard analysis. `max_variants` bounds the mined variant
/// count (0 = unlimited): key-like determinants produce one variant per
/// row, and ExplicitAD::Make validates variant disjointness pairwise, so an
/// unbounded mine over a unique attribute would cost O(rows²) — callers
/// that only profit from small EADs should cap it and treat the failure as
/// "not minable".
Result<ExplicitAD> MineExplicitAd(PliCache* cache, const AttrSet& determinant,
                                  const AttrSet& determined,
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
