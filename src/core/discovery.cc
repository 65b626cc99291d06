#include "core/discovery.h"

#include <unordered_map>

#include "core/closure.h"
#include "engine/parallel_discovery.h"

namespace flexrel {

namespace {

// Enumerates subsets of `universe` with size in [1, max_size], invoking
// `visit(lhs)` smallest-first (so minimality pruning sees generators first).
// Delegates to the engine's LatticeLevel so both paths share one
// enumeration order — the engine's results-identical guarantee depends on
// it.
template <typename Visitor>
void ForEachLhs(const AttrSet& universe, size_t max_size, Visitor visit) {
  for (size_t k = 1; k <= max_size && k <= universe.size(); ++k) {
    for (const AttrSet& lhs : LatticeLevel(universe, k)) visit(lhs);
  }
}

// The maximal Y such that rows satisfy X --attr--> Y: an attribute a
// qualifies iff all tuples agreeing on X share a's presence.
AttrSet MaximalAdRhs(const std::vector<Tuple>& rows, const AttrSet& lhs,
                     const AttrSet& universe) {
  // Group rows by X-projection; per group record the common presence mask.
  struct GroupInfo {
    AttrSet present;   // attributes every group member carries
    AttrSet absent;    // attributes no group member carries (lazily: track union)
    AttrSet seen_any;  // union of attrs over members
  };
  std::unordered_map<Tuple, GroupInfo, TupleHash> groups;
  for (const Tuple& t : rows) {
    if (!t.DefinedOn(lhs)) continue;
    Tuple key = t.Project(lhs);
    AttrSet attrs = t.attrs();
    auto [it, inserted] = groups.emplace(std::move(key), GroupInfo{});
    if (inserted) {
      it->second.present = attrs;
      it->second.seen_any = attrs;
    } else {
      it->second.present = it->second.present.Intersect(attrs);
      it->second.seen_any = it->second.seen_any.Union(attrs);
    }
  }
  // a qualifies iff in every group: present(a) == seen_any(a), i.e. members
  // agree on a's presence.
  AttrSet rhs = universe;
  for (const auto& [key, info] : groups) {
    (void)key;
    // Disagreement set: attributes some but not all members carry.
    AttrSet disagree = info.seen_any.Minus(info.present);
    rhs = rhs.Minus(disagree);
  }
  return rhs.Minus(lhs);  // non-trivial part
}

// The maximal Y such that rows satisfy X --func--> Y (distinct-pair
// reading): within each group of >= 2 members every member must carry a and
// agree on its value.
AttrSet MaximalFdRhs(const std::vector<Tuple>& rows, const AttrSet& lhs,
                     const AttrSet& universe) {
  struct GroupInfo {
    const Tuple* first = nullptr;
    size_t size = 0;
    AttrSet agreeing;  // attrs all members carry with equal values
  };
  std::unordered_map<Tuple, GroupInfo, TupleHash> groups;
  for (const Tuple& t : rows) {
    if (!t.DefinedOn(lhs)) continue;
    Tuple key = t.Project(lhs);
    auto [it, inserted] = groups.emplace(std::move(key), GroupInfo{});
    GroupInfo& g = it->second;
    ++g.size;
    if (inserted) {
      g.first = &t;
      g.agreeing = t.attrs();
      continue;
    }
    AttrSet still;
    for (AttrId a : g.agreeing) {
      const Value* v0 = g.first->Get(a);
      const Value* v = t.Get(a);
      if (v0 != nullptr && v != nullptr && *v0 == *v) still.Insert(a);
    }
    g.agreeing = still;
  }
  AttrSet rhs = universe;
  for (const auto& [key, g] : groups) {
    (void)key;
    if (g.size < 2) continue;  // single members impose nothing
    rhs = rhs.Intersect(g.agreeing.Union(lhs));
  }
  return rhs.Minus(lhs);
}

}  // namespace

std::vector<AttrDep> DiscoverAttrDeps(const std::vector<Tuple>& rows,
                                      const AttrSet& universe,
                                      const DiscoveryOptions& options) {
  std::vector<AttrDep> out;
  DependencySet found;
  ForEachLhs(universe, options.max_lhs_size, [&](const AttrSet& lhs) {
    AttrSet rhs = MaximalAdRhs(rows, lhs, universe);
    if (rhs.empty()) return;
    AttrDep candidate{lhs, rhs};
    if (options.minimal_only &&
        Implies(found, candidate, AxiomSystem::kAdOnly)) {
      return;
    }
    out.push_back(candidate);
    found.AddAd(candidate);
  });
  return out;
}

std::vector<FuncDep> DiscoverFuncDeps(const std::vector<Tuple>& rows,
                                      const AttrSet& universe,
                                      const DiscoveryOptions& options) {
  std::vector<FuncDep> out;
  DependencySet found;
  ForEachLhs(universe, options.max_lhs_size, [&](const AttrSet& lhs) {
    AttrSet rhs = MaximalFdRhs(rows, lhs, universe);
    if (rhs.empty()) return;
    FuncDep candidate{lhs, rhs};
    if (options.minimal_only && Implies(found, candidate)) return;
    out.push_back(candidate);
    found.AddFd(candidate);
  });
  return out;
}

DependencySet DiscoverDependencies(const std::vector<Tuple>& rows,
                                   const AttrSet& universe,
                                   const DiscoveryOptions& options) {
  DependencySet out;
  for (FuncDep& fd : DiscoverFuncDeps(rows, universe, options)) {
    out.AddFd(std::move(fd));
  }
  for (AttrDep& ad : DiscoverAttrDeps(rows, universe, options)) {
    out.AddAd(std::move(ad));
  }
  return out;
}

}  // namespace flexrel
