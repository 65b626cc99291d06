#include "engine/validator.h"

#include <utility>

#include "telemetry/telemetry.h"
#include "util/string_util.h"

namespace flexrel {

namespace {

using ColumnPtr = std::shared_ptr<const CodeColumn>;
using Code = CodeColumn::Code;
constexpr Code kMissing = CodeColumn::kMissingCode;

enum class Reading { kAttr, kFunc };

// The per-code question, the only difference between the readings: a
// member agrees with its cluster's first row on the same presence (AD) or
// on the same non-missing code (FD).
bool Agrees(Reading reading, Code front, Code code) {
  return reading == Reading::kAttr
             ? (code == kMissing) == (front == kMissing)
             : code == front && code != kMissing;
}

// The one scan behind both readings: the attributes of `attrs` outside
// `lhs` on which every cluster of `pli` agrees with its first row.
// `columns[j]` is the code column of attrs.ids()[j].
AttrSet AgreeingAttrs(const Pli& pli, Reading reading, const AttrSet& lhs,
                      const AttrSet& attrs, std::span<const ColumnPtr> columns,
                      const ExecContext* exec) {
  std::vector<AttrId> agreeing;
  size_t scanned = 0;
  for (size_t j = 0; j < attrs.size(); ++j) {
    const AttrId a = attrs.ids()[j];
    if (lhs.Contains(a)) continue;
    const Code* codes = columns[j]->codes().data();
    bool agrees = true;
    for (Pli::ClusterView cluster : pli.clusters()) {
      if (exec != nullptr && (++scanned & 63) == 0 && !exec->Check().ok()) {
        return AttrSet();  // unwinding; the cancelling run discards this
      }
      const Code front = codes[cluster.front()];
      for (size_t i = 1; i < cluster.size() && agrees; ++i) {
        agrees = Agrees(reading, front, codes[cluster[i]]);
      }
      if (!agrees) break;
    }
    if (agrees) agreeing.push_back(a);
  }
  return AttrSet::FromIds(std::move(agreeing));
}

std::vector<ColumnPtr> FetchColumns(PliCache* cache, const AttrSet& attrs) {
  std::vector<ColumnPtr> columns;
  columns.reserve(attrs.size());
  for (AttrId a : attrs) columns.push_back(cache->CodeColumnFor(a));
  return columns;
}

// Validates lhs --reading--> rhs over the cache as it stands.
bool Validates(PliCache* cache, Reading reading, const AttrSet& lhs,
               const AttrSet& rhs) {
  const AttrSet target = rhs.Minus(lhs);
  if (target.empty()) return true;  // trivial (reflexivity)
  std::shared_ptr<const Pli> pli = cache->Get(lhs);
  return AgreeingAttrs(*pli, reading, lhs, target, FetchColumns(cache, target),
                       nullptr) == target;
}

AttrSet MaximalRhs(PliCache* cache, Reading reading, const AttrSet& lhs,
                   const AttrSet& universe, std::span<const ColumnPtr> columns,
                   const ExecContext* exec) {
  FLEXREL_TELEMETRY_COUNT("engine.validator.maximal_rhs", 1);
  FLEXREL_TELEMETRY_LATENCY(rhs_timer, "engine.validator.maximal_rhs_ns");
  std::shared_ptr<const Pli> pli = cache->Get(lhs);
  return AgreeingAttrs(*pli, reading, lhs, universe, columns, exec);
}

}  // namespace

AttrSet MaximalAdRhs(PliCache* cache, const AttrSet& lhs,
                     const AttrSet& universe,
                     std::span<const ColumnPtr> columns,
                     const ExecContext* exec) {
  return MaximalRhs(cache, Reading::kAttr, lhs, universe, columns, exec);
}

AttrSet MaximalFdRhs(PliCache* cache, const AttrSet& lhs,
                     const AttrSet& universe,
                     std::span<const ColumnPtr> columns,
                     const ExecContext* exec) {
  return MaximalRhs(cache, Reading::kFunc, lhs, universe, columns, exec);
}

bool ValidatesAd(PliCache* cache, const AttrDep& ad) {
  FLEXREL_TELEMETRY_COUNT("engine.validator.ad_checks", 1);
  FLEXREL_TELEMETRY_LATENCY(check_timer, "engine.validator.check_ns");
  return Validates(cache, Reading::kAttr, ad.lhs, ad.rhs);
}

bool ValidatesFd(PliCache* cache, const FuncDep& fd) {
  FLEXREL_TELEMETRY_COUNT("engine.validator.fd_checks", 1);
  FLEXREL_TELEMETRY_LATENCY(check_timer, "engine.validator.check_ns");
  return Validates(cache, Reading::kFunc, fd.lhs, fd.rhs);
}

bool ValidatesAll(PliCache* cache, const DependencySet& sigma) {
  for (const FuncDep& fd : sigma.fds()) {
    if (!ValidatesFd(cache, fd)) return false;
  }
  for (const AttrDep& ad : sigma.ads()) {
    if (!ValidatesAd(cache, ad)) return false;
  }
  return true;
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
                                  size_t max_variants) {
  const std::vector<Tuple>& rows = cache->rows();
  const AttrSet y = determined.Minus(determinant);
  std::shared_ptr<const Pli> pli = cache->Get(determinant);
  const std::vector<ColumnPtr> columns = FetchColumns(cache, y);
  // The attributes of Y row `row` carries, read off Y's columns.
  auto carried = [&](size_t row) {
    std::vector<AttrId> out;
    for (size_t j = 0; j < columns.size(); ++j) {
      if (columns[j]->codes()[row] != kMissing) out.push_back(y.ids()[j]);
    }
    return AttrSet::FromIds(std::move(out));
  };

  // Clusters: members must agree on presence within Y (otherwise no EAD
  // with this determinant exists over the instance) — the AD scan itself.
  if (AgreeingAttrs(*pli, Reading::kAttr, determinant, y, columns, nullptr) !=
      y) {
    return Status::InvalidArgument(
        StrCat("instance violates ", determinant.ToString(), " --attr--> ",
               y.ToString(), ": a determinant value group disagrees on "
               "attribute presence"));
  }
  std::vector<EadVariant> variants;
  auto over_budget = [&variants, max_variants] {
    return max_variants != 0 && variants.size() > max_variants;
  };
  auto budget_error = [&determinant, max_variants] {
    return Status::InvalidArgument(
        StrCat("mining ", determinant.ToString(),
               " exceeds the variant budget of ", max_variants));
  };
  std::vector<bool> clustered(rows.size(), false);
  for (Pli::ClusterView cluster : pli->clusters()) {
    for (Pli::RowId row : cluster) clustered[row] = true;
    AttrSet then = carried(cluster.front());
    if (then.empty()) continue;  // covered by the EAD's "otherwise ∅" clause
    auto when = ConditionSet::Make(determinant,
                                   {rows[cluster.front()].Project(determinant)});
    if (!when.ok()) return when.status();
    variants.push_back(EadVariant{std::move(when).value(), std::move(then)});
    if (over_budget()) return budget_error();
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (clustered[i]) continue;  // handled as a cluster
    AttrSet then = carried(i);
    if (then.empty()) continue;
    if (!rows[i].DefinedOn(determinant)) {
      // Definition 2.1: a tuple matching no variant (which includes tuples
      // not defined on the determinant) must carry none of Y.
      return Status::InvalidArgument(
          StrCat("instance violates the explicit reading of ",
                 determinant.ToString(), " --attr--> ", y.ToString(),
                 ": a row lacking the determinant carries determined "
                 "attributes"));
    }
    // Partnerless row: its value defines a variant of its own.
    auto when = ConditionSet::Make(determinant, {rows[i].Project(determinant)});
    if (!when.ok()) return when.status();
    variants.push_back(EadVariant{std::move(when).value(), std::move(then)});
    if (over_budget()) return budget_error();
  }
  return ExplicitAD::Make(determinant, y, std::move(variants));
}

}  // namespace flexrel
