#include "optimizer/plan_rewrite.h"

#include <algorithm>
#include <numeric>

#include "algebra/evaluate.h"
#include "engine/pli_cache.h"

namespace flexrel {

size_t EstimateRows(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return plan->relation() != nullptr ? plan->relation()->size() : 0;
    case PlanKind::kEmpty:
      return 0;
    case PlanKind::kSelect: {
      const PlanPtr& input = plan->inputs()[0];
      size_t base = EstimateRows(input);
      const Expr& f = *plan->formula();
      // Equality/IN over a base scan: the code column knows the exact
      // bucket sizes — the same statistic (and the same Kleene null rule,
      // via CodedMatches) the evaluator selects by.
      if (input->kind() == PlanKind::kScan && input->relation() != nullptr &&
          !input->relation()->empty() && IsIndexableSelect(f)) {
        size_t matched =
            CodedMatches(
                *input->relation()->pli_cache()->CodeColumnFor(f.attr()), f)
                .size();
        return std::min(base, matched);
      }
      return base;  // no provable reduction for general formulas
    }
    case PlanKind::kProject:
    case PlanKind::kExtend:
      return EstimateRows(plan->inputs()[0]);
    case PlanKind::kProduct:
      return EstimateRows(plan->inputs()[0]) *
             EstimateRows(plan->inputs()[1]);
    case PlanKind::kDifference:
      return EstimateRows(plan->inputs()[0]);
    case PlanKind::kUnion:
    case PlanKind::kOuterUnion: {
      size_t total = 0;
      for (const PlanPtr& in : plan->inputs()) total += EstimateRows(in);
      return total;
    }
    case PlanKind::kNaturalJoin:
      // Shared-attribute joins usually filter; cap at the larger side.
      return std::max(EstimateRows(plan->inputs()[0]),
                      EstimateRows(plan->inputs()[1]));
    case PlanKind::kMultiwayJoin: {
      size_t worst = 0;
      for (const PlanPtr& in : plan->inputs()) {
        worst = std::max(worst, EstimateRows(in));
      }
      return worst;
    }
  }
  return 0;
}

AttrSet GuaranteedAttrs(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const FlexibleRelation* r = plan->relation();
      if (r == nullptr || r->empty()) return AttrSet();
      // The attributes common to every stored tuple — the per-relation
      // statistic a catalog would maintain incrementally.
      AttrSet common = r->row(0).attrs();
      for (const Tuple& t : r->rows()) {
        common = common.Intersect(t.attrs());
        if (common.empty()) break;
      }
      return common;
    }
    case PlanKind::kSelect: {
      // The selection's own constraints additionally guarantee the
      // attributes they read (comparisons need definedness to be true).
      AttrSet base = GuaranteedAttrs(plan->inputs()[0]);
      ConstraintMap constraints = ExtractConstraints(plan->formula());
      for (const auto& [attr, constraint] : constraints) {
        base.Insert(attr);
      }
      return base;
    }
    case PlanKind::kProject:
      return GuaranteedAttrs(plan->inputs()[0]).Intersect(plan->attrs());
    case PlanKind::kProduct:
    case PlanKind::kNaturalJoin:
      return GuaranteedAttrs(plan->inputs()[0])
          .Union(GuaranteedAttrs(plan->inputs()[1]));
    case PlanKind::kMultiwayJoin: {
      AttrSet all;
      for (const PlanPtr& in : plan->inputs()) {
        all = all.Union(GuaranteedAttrs(in));
      }
      return all;
    }
    case PlanKind::kUnion:
    case PlanKind::kOuterUnion: {
      bool first = true;
      AttrSet common;
      for (const PlanPtr& in : plan->inputs()) {
        if (in->kind() == PlanKind::kEmpty) continue;  // contributes nothing
        AttrSet g = GuaranteedAttrs(in);
        common = first ? g : common.Intersect(g);
        first = false;
      }
      return common;
    }
    case PlanKind::kDifference:
      return GuaranteedAttrs(plan->inputs()[0]);
    case PlanKind::kExtend: {
      AttrSet g = GuaranteedAttrs(plan->inputs()[0]);
      g.Insert(plan->extend_attr());
      return g;
    }
    case PlanKind::kEmpty:
      return AttrSet();
  }
  return AttrSet();
}

AttrSet PossibleAttrs(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return plan->relation() != nullptr ? plan->relation()->ActiveAttrs()
                                         : AttrSet();
    case PlanKind::kSelect:
    case PlanKind::kDifference:
      return PossibleAttrs(plan->inputs()[0]);
    case PlanKind::kProject:
      return PossibleAttrs(plan->inputs()[0]).Intersect(plan->attrs());
    case PlanKind::kExtend: {
      AttrSet p = PossibleAttrs(plan->inputs()[0]);
      p.Insert(plan->extend_attr());
      return p;
    }
    case PlanKind::kEmpty:
      return AttrSet();
    default: {
      AttrSet all;
      for (const PlanPtr& in : plan->inputs()) {
        all = all.Union(PossibleAttrs(in));
      }
      return all;
    }
  }
}

namespace {

// True when the EADs prove that no tuple can both satisfy `constraints` and
// carry all of `guaranteed` — i.e. some guaranteed attribute has presence
// kNever under the constraints.
bool ProvablyEmpty(const ConstraintMap& constraints, const AttrSet& guaranteed,
                   const std::vector<ExplicitAD>& eads) {
  for (AttrId a : guaranteed) {
    if (AttrPresence(a, constraints, eads) == Presence::kNever) return true;
  }
  return false;
}

PlanPtr Rewrite(const PlanPtr& plan, const std::vector<ExplicitAD>& eads,
                RewriteReport* report) {
  switch (plan->kind()) {
    case PlanKind::kSelect: {
      PlanPtr input = Rewrite(plan->inputs()[0], eads, report);
      // Example 4: drop provably redundant guards.
      GuardRewrite gr = EliminateRedundantGuards(plan->formula(), eads);
      report->guards_eliminated += gr.guards_eliminated;
      report->guards_falsified += gr.guards_falsified;
      ExprPtr formula = gr.formula;
      if (formula->kind() == ExprKind::kConst) {
        if (formula->const_value() == TriBool::kTrue) return input;
        ++report->branches_pruned;
        return Plan::Empty();
      }
      // Excluded-variant pruning: the branch below guarantees an attribute
      // the selection's constraints forbid.
      ConstraintMap constraints = ExtractConstraints(formula);
      if (ProvablyEmpty(constraints, GuaranteedAttrs(input), eads)) {
        ++report->branches_pruned;
        return Plan::Empty();
      }
      if (input->kind() == PlanKind::kEmpty) return input;
      // Join pushdown: when the formula reads only attributes that are
      // guaranteed on one join side and impossible on the other, its value
      // on a joined tuple equals its value on that side's tuple — select
      // early, join less.
      if (input->kind() == PlanKind::kNaturalJoin ||
          input->kind() == PlanKind::kProduct) {
        AttrSet refs = formula->ReferencedAttrs();
        const PlanPtr& left = input->inputs()[0];
        const PlanPtr& right = input->inputs()[1];
        auto rebuild = [&](PlanPtr l, PlanPtr r) {
          return input->kind() == PlanKind::kNaturalJoin
                     ? Plan::NaturalJoin(std::move(l), std::move(r))
                     : Plan::Product(std::move(l), std::move(r));
        };
        if (refs.IsSubsetOf(GuaranteedAttrs(left)) &&
            !refs.Intersects(PossibleAttrs(right))) {
          ++report->selects_pushed;
          return Rewrite(rebuild(Plan::Select(left, formula), right), eads,
                         report);
        }
        if (refs.IsSubsetOf(GuaranteedAttrs(right)) &&
            !refs.Intersects(PossibleAttrs(left))) {
          ++report->selects_pushed;
          return Rewrite(rebuild(left, Plan::Select(right, formula)), eads,
                         report);
        }
      }
      // Selection pushdown through (outer) unions, re-optimizing each
      // branch (this is where per-variant pruning fires).
      if (input->kind() == PlanKind::kUnion ||
          input->kind() == PlanKind::kOuterUnion) {
        ++report->selects_pushed;
        std::vector<PlanPtr> branches;
        for (const PlanPtr& in : input->inputs()) {
          PlanPtr pushed = Rewrite(Plan::Select(in, formula), eads, report);
          if (pushed->kind() == PlanKind::kEmpty) continue;
          branches.push_back(std::move(pushed));
        }
        if (branches.empty()) return Plan::Empty();
        if (input->kind() == PlanKind::kUnion && branches.size() == 2) {
          return Plan::Union(branches[0], branches[1]);
        }
        if (branches.size() == 1) return branches[0];
        return Plan::OuterUnion(std::move(branches));
      }
      return Plan::Select(input, formula);
    }
    case PlanKind::kProject: {
      PlanPtr input = Rewrite(plan->inputs()[0], eads, report);
      if (input->kind() == PlanKind::kEmpty) return input;
      return Plan::Project(input, plan->attrs());
    }
    case PlanKind::kProduct:
    case PlanKind::kNaturalJoin: {
      PlanPtr left = Rewrite(plan->inputs()[0], eads, report);
      PlanPtr right = Rewrite(plan->inputs()[1], eads, report);
      // A join/product with an empty side is empty.
      if (left->kind() == PlanKind::kEmpty ||
          right->kind() == PlanKind::kEmpty) {
        ++report->branches_pruned;
        return Plan::Empty();
      }
      return plan->kind() == PlanKind::kProduct
                 ? Plan::Product(left, right)
                 : Plan::NaturalJoin(left, right);
    }
    case PlanKind::kMultiwayJoin: {
      std::vector<PlanPtr> ins;
      for (const PlanPtr& in : plan->inputs()) {
        PlanPtr r = Rewrite(in, eads, report);
        if (r->kind() == PlanKind::kEmpty) {
          ++report->branches_pruned;
          return Plan::Empty();
        }
        ins.push_back(std::move(r));
      }
      // Order legs smallest estimated output first, so the evaluator's
      // left-deep fold keeps its intermediates small. Natural join over
      // heterogeneous tuples is commutative and associative (a combination
      // survives iff all pairwise overlaps agree, independent of order), so
      // reordering is result-preserving.
      std::vector<size_t> estimates(ins.size());
      for (size_t i = 0; i < ins.size(); ++i) estimates[i] = EstimateRows(ins[i]);
      std::vector<size_t> order(ins.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return estimates[a] < estimates[b];
      });
      if (!std::is_sorted(order.begin(), order.end())) {
        ++report->joins_reordered;
        std::vector<PlanPtr> sorted;
        sorted.reserve(ins.size());
        for (size_t i : order) sorted.push_back(std::move(ins[i]));
        ins = std::move(sorted);
      }
      return Plan::MultiwayJoin(std::move(ins));
    }
    case PlanKind::kUnion:
    case PlanKind::kOuterUnion: {
      std::vector<PlanPtr> ins;
      for (const PlanPtr& in : plan->inputs()) {
        PlanPtr r = Rewrite(in, eads, report);
        if (r->kind() == PlanKind::kEmpty) continue;  // drop empty branches
        ins.push_back(std::move(r));
      }
      if (ins.empty()) return Plan::Empty();
      // NOTE: keeping a lone surviving branch keeps the result identical
      // (union with nothing), so collapse.
      if (ins.size() == 1) return ins[0];
      if (plan->kind() == PlanKind::kUnion && ins.size() == 2) {
        return Plan::Union(ins[0], ins[1]);
      }
      return Plan::OuterUnion(std::move(ins));
    }
    case PlanKind::kDifference: {
      PlanPtr left = Rewrite(plan->inputs()[0], eads, report);
      PlanPtr right = Rewrite(plan->inputs()[1], eads, report);
      if (left->kind() == PlanKind::kEmpty) return Plan::Empty();
      if (right->kind() == PlanKind::kEmpty) return left;
      return Plan::Difference(left, right);
    }
    case PlanKind::kExtend: {
      PlanPtr input = Rewrite(plan->inputs()[0], eads, report);
      if (input->kind() == PlanKind::kEmpty) return input;
      return Plan::Extend(input, plan->extend_attr(), plan->extend_value());
    }
    case PlanKind::kScan:
    case PlanKind::kEmpty:
      return plan;
  }
  return plan;
}

}  // namespace

PlanPtr OptimizePlan(const PlanPtr& plan, const std::vector<ExplicitAD>& eads,
                     RewriteReport* report) {
  RewriteReport local;
  PlanPtr out = Rewrite(plan, eads, report != nullptr ? report : &local);
  return out;
}

}  // namespace flexrel
