#include "optimizer/guard_analysis.h"

#include <algorithm>

#include "engine/parallel_discovery.h"

namespace flexrel {

namespace {

constexpr size_t kComboCap = 4096;  // product-enumeration guard

}  // namespace

VariantAnalysis AnalyzeVariants(const ConstraintMap& constraints,
                                const ExplicitAD& ead) {
  VariantAnalysis out;
  const AttrSet& base = ead.condition_base();

  // A variant is consistent when at least one of its condition values is
  // permitted by every constrained attribute.
  for (size_t i = 0; i < ead.variants().size(); ++i) {
    const EadVariant& v = ead.variants()[i];
    bool consistent = false;
    for (const Tuple& val : v.when.values()) {
      bool permitted = true;
      for (const auto& [attr, value] : val.fields()) {
        auto it = constraints.find(attr);
        if (it != constraints.end() && !it->second.Permits(value)) {
          permitted = false;
          break;
        }
      }
      if (permitted) {
        consistent = true;
        break;
      }
    }
    if (consistent) out.consistent_variants.push_back(i);
  }

  // "Unmatched" is impossible only when every determinant attribute is
  // constrained to a finite set (which also guarantees the tuple is defined
  // on the determinant) and every combination of allowed values is covered
  // by some variant condition.
  out.unmatched_possible = true;
  std::vector<std::pair<AttrId, const ValueConstraint*>> dims;
  size_t combos = 1;
  for (AttrId a : base) {
    auto it = constraints.find(a);
    if (it == constraints.end()) return out;  // unconstrained: may mismatch
    if (it->second.allowed.empty()) {
      // Contradictory constraints: no tuple passes the formula at all, so a
      // mismatching tuple cannot pass either.
      out.unmatched_possible = false;
      return out;
    }
    combos *= it->second.allowed.size();
    if (combos > kComboCap) return out;  // too large to certify coverage
    dims.push_back({a, &it->second});
  }
  // Enumerate the constraint product and test coverage.
  std::vector<size_t> cursor(dims.size(), 0);
  while (true) {
    Tuple t;
    for (size_t i = 0; i < dims.size(); ++i) {
      t.Set(dims[i].first, dims[i].second->allowed[cursor[i]]);
    }
    bool covered = false;
    for (const EadVariant& v : ead.variants()) {
      if (v.when.ContainsValue(t)) {
        covered = true;
        break;
      }
    }
    if (!covered) return out;  // a passing tuple can match no variant
    size_t i = 0;
    for (; i < dims.size(); ++i) {
      if (++cursor[i] < dims[i].second->allowed.size()) break;
      cursor[i] = 0;
    }
    if (i == dims.size()) break;
  }
  out.unmatched_possible = false;
  return out;
}

const char* PresenceName(Presence p) {
  switch (p) {
    case Presence::kAlways:
      return "always";
    case Presence::kNever:
      return "never";
    case Presence::kMaybe:
      return "maybe";
  }
  return "?";
}

Presence AttrPresence(AttrId attr, const ConstraintMap& constraints,
                      const std::vector<ExplicitAD>& eads) {
  // The formula reading the attribute's value already implies its presence.
  if (constraints.find(attr) != constraints.end()) return Presence::kAlways;

  for (const ExplicitAD& ead : eads) {
    if (!ead.determined().Contains(attr)) continue;
    VariantAnalysis analysis = AnalyzeVariants(constraints, ead);
    bool in_all = !analysis.consistent_variants.empty();
    bool in_some = false;
    for (size_t i : analysis.consistent_variants) {
      if (ead.variants()[i].then.Contains(attr)) {
        in_some = true;
      } else {
        in_all = false;
      }
    }
    if (analysis.unmatched_possible) in_all = false;  // ∅ outcome possible
    if (in_all) return Presence::kAlways;
    if (!in_some) return Presence::kNever;  // no consistent outcome has it
  }
  return Presence::kMaybe;
}

ExprPtr SimplifyExpr(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kAnd: {
      ExprPtr l = SimplifyExpr(e->left());
      ExprPtr r = SimplifyExpr(e->right());
      if (l->kind() == ExprKind::kConst) {
        if (l->const_value() == TriBool::kTrue) return r;
        if (l->const_value() == TriBool::kFalse) return Expr::Const(TriBool::kFalse);
      }
      if (r->kind() == ExprKind::kConst) {
        if (r->const_value() == TriBool::kTrue) return l;
        if (r->const_value() == TriBool::kFalse) return Expr::Const(TriBool::kFalse);
      }
      return Expr::And(l, r);
    }
    case ExprKind::kOr: {
      ExprPtr l = SimplifyExpr(e->left());
      ExprPtr r = SimplifyExpr(e->right());
      if (l->kind() == ExprKind::kConst) {
        if (l->const_value() == TriBool::kTrue) return Expr::Const(TriBool::kTrue);
        if (l->const_value() == TriBool::kFalse) return r;
      }
      if (r->kind() == ExprKind::kConst) {
        if (r->const_value() == TriBool::kTrue) return Expr::Const(TriBool::kTrue);
        if (r->const_value() == TriBool::kFalse) return l;
      }
      return Expr::Or(l, r);
    }
    case ExprKind::kNot: {
      ExprPtr l = SimplifyExpr(e->left());
      if (l->kind() == ExprKind::kConst) {
        return Expr::Const(TriNot(l->const_value()));
      }
      return Expr::Not(l);
    }
    default:
      return e;
  }
}

namespace {

ExprPtr RewriteGuardsRec(const ExprPtr& e, const ConstraintMap& constraints,
                         const std::vector<ExplicitAD>& eads,
                         GuardRewrite* report) {
  switch (e->kind()) {
    case ExprKind::kExists: {
      Presence p = AttrPresence(e->attr(), constraints, eads);
      if (p == Presence::kAlways) {
        ++report->guards_eliminated;
        return Expr::Const(TriBool::kTrue);
      }
      if (p == Presence::kNever) {
        ++report->guards_falsified;
        return Expr::Const(TriBool::kFalse);
      }
      return e;
    }
    case ExprKind::kAnd:
      return Expr::And(RewriteGuardsRec(e->left(), constraints, eads, report),
                       RewriteGuardsRec(e->right(), constraints, eads, report));
    case ExprKind::kOr:
      return Expr::Or(RewriteGuardsRec(e->left(), constraints, eads, report),
                      RewriteGuardsRec(e->right(), constraints, eads, report));
    case ExprKind::kNot:
      // Inside a negation a guard rewrite stays sound: the equivalence holds
      // pointwise on EAD-valid tuples, regardless of polarity.
      return Expr::Not(RewriteGuardsRec(e->left(), constraints, eads, report));
    default:
      return e;
  }
}

}  // namespace

GuardRewrite EliminateRedundantGuards(const ExprPtr& formula,
                                      const std::vector<ExplicitAD>& eads) {
  GuardRewrite report;
  ConstraintMap constraints = ExtractConstraints(formula);
  ExprPtr rewritten = RewriteGuardsRec(formula, constraints, eads, &report);
  report.formula = SimplifyExpr(rewritten);
  return report;
}

GuardRewrite EliminateRedundantGuardsFromInstance(
    const ExprPtr& formula, const std::vector<Tuple>& rows,
    const AttrSet& universe) {
  // Mine determinants: engine-discovered single-attribute ADs, lifted to
  // explicit variants from the same partition cache. Attributes violating
  // the stricter explicit reading (Definition 2.1's "otherwise ∅" clause —
  // carried by rows lacking the determinant) are filtered per determinant
  // rather than poisoning the whole EAD, keeping the rewrite sound while
  // preserving the eliminations the remaining attributes support.
  PliCache cache(&rows);
  DiscoveryOptions options;
  options.max_lhs_size = 1;
  // Key-like determinants would mine one variant per row — and variant
  // construction validates disjointness pairwise — while an EAD that fine
  // never proves a guard redundant for a realistic selection. Budget them
  // away.
  constexpr size_t kMaxMinedVariants = 256;
  std::vector<ExplicitAD> eads;
  for (const AttrDep& ad : EngineDiscoverAttrDeps(&cache, universe, options)) {
    AttrSet minable = ExplicitlyMinableRhs(rows, ad.lhs, ad.rhs);
    if (minable.empty()) continue;
    Result<ExplicitAD> mined =
        MineExplicitAd(&cache, ad.lhs, minable, kMaxMinedVariants);
    if (mined.ok()) eads.push_back(std::move(mined).value());
  }
  return EliminateRedundantGuards(formula, eads);
}

}  // namespace flexrel
