#include "engine/validator.h"

#include <utility>

#include "telemetry/telemetry.h"
#include "util/string_util.h"

namespace flexrel {

namespace {

// The existence-pattern scan both Definition-4.1 readers share: attributes
// every cluster member carries vs. attributes any member carries. Keeping
// it in one place keeps discovery and EAD mining agreeing on the reading.
struct ClusterPresence {
  AttrSet present;
  AttrSet seen_any;
};

ClusterPresence ScanClusterPresence(Pli::ClusterView cluster,
                                    const std::vector<AttrSet>& row_attrs) {
  ClusterPresence out;
  out.present = row_attrs[cluster.front()];
  out.seen_any = out.present;
  for (size_t i = 1; i < cluster.size(); ++i) {
    const AttrSet& attrs = row_attrs[cluster[i]];
    out.present = out.present.Intersect(attrs);
    out.seen_any = out.seen_any.Union(attrs);
  }
  return out;
}

}  // namespace

std::vector<AttrSet> ComputeRowAttrs(const std::vector<Tuple>& rows) {
  std::vector<AttrSet> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.attrs());
  return out;
}

AttrSet PartitionAdRhs(const Pli& pli, const std::vector<AttrSet>& row_attrs,
                       const AttrSet& lhs, const AttrSet& universe,
                       const ExecContext* exec) {
  AttrSet rhs = universe;
  size_t scanned = 0;
  for (Pli::ClusterView cluster : pli.clusters()) {
    if (exec != nullptr && (++scanned & 63) == 0 && !exec->Check().ok()) {
      return AttrSet();  // unwinding; the cancelling run discards this
    }
    ClusterPresence scan = ScanClusterPresence(cluster, row_attrs);
    // Attributes some but not all cluster members carry break the
    // existence pattern.
    rhs = rhs.Minus(scan.seen_any.Minus(scan.present));
    if (rhs.IsSubsetOf(lhs)) break;  // nothing non-trivial can survive
  }
  return rhs.Minus(lhs);
}

AttrSet PartitionFdRhs(const Pli& pli, const std::vector<Tuple>& rows,
                       const AttrSet& lhs, const AttrSet& universe,
                       const ExecContext* exec) {
  AttrSet rhs = universe;
  size_t scanned = 0;
  for (Pli::ClusterView cluster : pli.clusters()) {
    if (exec != nullptr && (++scanned & 63) == 0 && !exec->Check().ok()) {
      return AttrSet();
    }
    const Tuple& ref = rows[cluster.front()];
    AttrSet agreeing = ref.attrs();
    for (size_t i = 1; i < cluster.size() && !agreeing.empty(); ++i) {
      const Tuple& t = rows[cluster[i]];
      AttrSet still;
      for (AttrId a : agreeing) {
        const Value* v0 = ref.Get(a);
        const Value* v = t.Get(a);
        if (v0 != nullptr && v != nullptr && *v0 == *v) still.Insert(a);
      }
      agreeing = std::move(still);
    }
    rhs = rhs.Intersect(agreeing.Union(lhs));
    if (rhs.IsSubsetOf(lhs)) break;
  }
  return rhs.Minus(lhs);
}

DependencyValidator::DependencyValidator(PliCache* cache)
    : cache_(cache), row_attrs_(ComputeRowAttrs(cache->rows())) {}

bool DependencyValidator::ValidatesAd(const AttrDep& ad) {
  FLEXREL_TELEMETRY_COUNT("engine.validator.ad_checks", 1);
  FLEXREL_TELEMETRY_LATENCY(check_timer, "engine.validator.check_ns");
  AttrSet target = ad.rhs.Minus(ad.lhs);
  if (target.empty()) return true;  // trivial (reflexivity)
  // Validators on concurrent threads (parallel discovery's workers) share
  // the cache; a warm Get holds its mutex only for the lookup. The
  // partition and the rows()/row_attrs_ reads below need the caller to
  // hold the rows stable (the engine/README.md "Concurrency" contract) —
  // concurrent *reads* need nothing.
  std::shared_ptr<const Pli> pli = cache_->Get(ad.lhs);
  return target.IsSubsetOf(
      PartitionAdRhs(*pli, row_attrs_, ad.lhs, target.Union(ad.lhs)));
}

bool DependencyValidator::ValidatesFd(const FuncDep& fd) {
  FLEXREL_TELEMETRY_COUNT("engine.validator.fd_checks", 1);
  FLEXREL_TELEMETRY_LATENCY(check_timer, "engine.validator.check_ns");
  AttrSet target = fd.rhs.Minus(fd.lhs);
  if (target.empty()) return true;
  std::shared_ptr<const Pli> pli = cache_->Get(fd.lhs);
  return target.IsSubsetOf(
      PartitionFdRhs(*pli, cache_->rows(), fd.lhs, target.Union(fd.lhs)));
}

bool DependencyValidator::ValidatesAll(const DependencySet& sigma) {
  for (const FuncDep& fd : sigma.fds()) {
    if (!ValidatesFd(fd)) return false;
  }
  for (const AttrDep& ad : sigma.ads()) {
    if (!ValidatesAd(ad)) return false;
  }
  return true;
}

AttrSet DependencyValidator::MaximalAdRhs(const AttrSet& lhs,
                                          const AttrSet& universe) {
  FLEXREL_TELEMETRY_COUNT("engine.validator.maximal_rhs", 1);
  FLEXREL_TELEMETRY_LATENCY(rhs_timer, "engine.validator.maximal_rhs_ns");
  std::shared_ptr<const Pli> pli = cache_->Get(lhs);
  return PartitionAdRhs(*pli, row_attrs_, lhs, universe, exec_);
}

AttrSet DependencyValidator::MaximalFdRhs(const AttrSet& lhs,
                                          const AttrSet& universe) {
  FLEXREL_TELEMETRY_COUNT("engine.validator.maximal_rhs", 1);
  FLEXREL_TELEMETRY_LATENCY(rhs_timer, "engine.validator.maximal_rhs_ns");
  std::shared_ptr<const Pli> pli = cache_->Get(lhs);
  return PartitionFdRhs(*pli, cache_->rows(), lhs, universe, exec_);
}

AttrSet ExplicitlyMinableRhs(const std::vector<Tuple>& rows,
                             const AttrSet& determinant,
                             const AttrSet& candidates) {
  AttrSet minable = candidates.Minus(determinant);
  for (const Tuple& t : rows) {
    if (minable.empty()) break;
    if (!t.DefinedOn(determinant)) minable = minable.Minus(t.attrs());
  }
  return minable;
}

Result<ExplicitAD> MineExplicitAd(PliCache* cache, const AttrSet& determinant,
                                  const AttrSet& determined,
                                  const std::vector<AttrSet>* row_attrs,
                                  size_t max_variants) {
  const std::vector<Tuple>& rows = cache->rows();
  std::vector<AttrSet> computed;
  if (row_attrs == nullptr) {
    computed = ComputeRowAttrs(rows);
    row_attrs = &computed;
  }
  AttrSet y = determined.Minus(determinant);
  std::shared_ptr<const Pli> pli = cache->Get(determinant);
  PliProbe probe = pli->BuildProbe();

  // Clusters: members must agree on presence within Y (otherwise no EAD
  // with this determinant exists over the instance).
  std::vector<EadVariant> variants;
  auto over_budget = [&variants, max_variants] {
    return max_variants != 0 && variants.size() > max_variants;
  };
  auto budget_error = [&determinant, max_variants] {
    return Status::InvalidArgument(
        StrCat("mining ", determinant.ToString(),
               " exceeds the variant budget of ", max_variants));
  };
  for (Pli::ClusterView cluster : pli->clusters()) {
    ClusterPresence scan = ScanClusterPresence(cluster, *row_attrs);
    if (scan.seen_any.Minus(scan.present).Intersects(y)) {
      return Status::InvalidArgument(
          StrCat("instance violates ", determinant.ToString(), " --attr--> ",
                 y.ToString(), ": a determinant value group disagrees on "
                 "attribute presence"));
    }
    AttrSet then = scan.present.Intersect(y);
    if (then.empty()) continue;  // covered by the EAD's "otherwise ∅" clause
    auto when = ConditionSet::Make(determinant,
                                   {rows[cluster.front()].Project(determinant)});
    if (!when.ok()) return when.status();
    variants.push_back(EadVariant{std::move(when).value(), std::move(then)});
    if (over_budget()) return budget_error();
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].DefinedOn(determinant)) {
      if (probe.labels[i] != Pli::kNoCluster) continue;  // handled as a cluster
      // Partnerless row: its value defines a variant of its own.
      AttrSet then = (*row_attrs)[i].Intersect(y);
      if (then.empty()) continue;
      auto when =
          ConditionSet::Make(determinant, {rows[i].Project(determinant)});
      if (!when.ok()) return when.status();
      variants.push_back(EadVariant{std::move(when).value(), std::move(then)});
      if (over_budget()) return budget_error();
    } else if ((*row_attrs)[i].Intersects(y)) {
      // Definition 2.1: a tuple matching no variant (which includes tuples
      // not defined on the determinant) must carry none of Y.
      return Status::InvalidArgument(
          StrCat("instance violates the explicit reading of ",
                 determinant.ToString(), " --attr--> ", y.ToString(),
                 ": a row lacking the determinant carries determined "
                 "attributes"));
    }
  }
  return ExplicitAD::Make(determinant, y, std::move(variants));
}

}  // namespace flexrel
