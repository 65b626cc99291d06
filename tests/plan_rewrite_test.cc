#include "optimizer/plan_rewrite.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algebra/evaluate.h"
#include "decomposition/decomposition.h"
#include "workload/generator.h"

namespace flexrel {
namespace {

class PlanRewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EmployeeConfig config;
    config.num_variants = 4;
    config.attrs_per_variant = 2;
    config.rows = 80;
    config.seed = 5;
    auto w = MakeEmployeeWorkload(config);
    ASSERT_TRUE(w.ok()) << w.status();
    w_ = std::move(w).value();

    auto parts = TranslateVertical(w_->relation, w_->eads[0],
                                   AttrSet::Of(w_->id_attr));
    ASSERT_TRUE(parts.ok());
    parts_ = std::move(parts).value();
    master_ = FlexibleRelation::Derived("master", DependencySet());
    for (const Tuple& t : parts_.master.rows()) master_.InsertUnchecked(t);
    for (const Relation& r : parts_.variant_relations) {
      auto fr = std::make_unique<FlexibleRelation>(
          FlexibleRelation::Derived(r.name(), DependencySet()));
      for (const Tuple& t : r.rows()) fr->InsertUnchecked(t);
      variants_.push_back(std::move(fr));
    }
  }

  // The restore-and-select plan: σ[jobtype = v] (∪_i master ⋈ variant_i).
  PlanPtr RestoreSelect(size_t jobtype_index) {
    std::vector<PlanPtr> branches;
    for (auto& v : variants_) {
      branches.push_back(
          Plan::NaturalJoin(Plan::Scan(&master_), Plan::Scan(v.get())));
    }
    return Plan::Select(
        Plan::OuterUnion(std::move(branches)),
        Expr::Eq(w_->jobtype_attr, w_->jobtype_values[jobtype_index]));
  }

  std::unique_ptr<EmployeeWorkload> w_;
  VerticalDecomposition parts_;
  FlexibleRelation master_;
  std::vector<std::unique_ptr<FlexibleRelation>> variants_;
};

TEST_F(PlanRewriteTest, GuaranteedAttrsStructural) {
  // Scans of variant relations guarantee key + variant attributes.
  AttrSet g0 = GuaranteedAttrs(Plan::Scan(variants_[0].get()));
  EXPECT_TRUE(AttrSet::Of(w_->id_attr).IsSubsetOf(g0));
  EXPECT_TRUE(w_->eads[0].variants()[0].then.IsSubsetOf(g0));
  // Joins accumulate.
  AttrSet gj = GuaranteedAttrs(
      Plan::NaturalJoin(Plan::Scan(&master_), Plan::Scan(variants_[0].get())));
  EXPECT_TRUE(AttrSet::Of(w_->jobtype_attr).IsSubsetOf(gj));
  EXPECT_TRUE(w_->eads[0].variants()[0].then.IsSubsetOf(gj));
  // Unions intersect: different variants share only master+key parts.
  AttrSet gu = GuaranteedAttrs(Plan::OuterUnion(
      {Plan::Scan(variants_[0].get()), Plan::Scan(variants_[1].get())}));
  EXPECT_FALSE(w_->eads[0].variants()[0].then.IsSubsetOf(gu));
  EXPECT_TRUE(AttrSet::Of(w_->id_attr).IsSubsetOf(gu));
  // Selections add their constrained attributes.
  AttrSet gs = GuaranteedAttrs(
      Plan::Select(Plan::Scan(&master_),
                   Expr::Eq(w_->jobtype_attr, w_->jobtype_values[0])));
  EXPECT_TRUE(gs.Contains(w_->jobtype_attr));
  // A scan whose common set shrinks row by row and empties partway
  // through: rows after that point cannot bring anything back.
  FlexibleRelation shrinking = FlexibleRelation::Derived("s", DependencySet());
  shrinking.InsertUnchecked(Tuple::FromPairs(
      {{0, Value::Int(1)}, {1, Value::Int(2)}, {2, Value::Int(3)}}));
  shrinking.InsertUnchecked(
      Tuple::FromPairs({{0, Value::Int(4)}, {1, Value::Int(5)}}));
  EXPECT_EQ(GuaranteedAttrs(Plan::Scan(&shrinking)), (AttrSet{0, 1}));
  shrinking.InsertUnchecked(Tuple::FromPairs({{2, Value::Int(6)}}));
  shrinking.InsertUnchecked(Tuple::FromPairs(
      {{0, Value::Int(7)}, {1, Value::Int(8)}, {2, Value::Int(9)}}));
  EXPECT_TRUE(GuaranteedAttrs(Plan::Scan(&shrinking)).empty());
  // Empty guarantees nothing; Extend adds the tag.
  EXPECT_TRUE(GuaranteedAttrs(Plan::Empty()).empty());
  EXPECT_TRUE(GuaranteedAttrs(
                  Plan::Extend(Plan::Scan(&master_), 777, Value::Int(1)))
                  .Contains(777));
}

TEST_F(PlanRewriteTest, PrunesExcludedVariantBranches) {
  PlanPtr plan = RestoreSelect(0);
  RewriteReport report;
  PlanPtr optimized = OptimizePlan(plan, w_->eads, &report);
  // Three of the four variant branches are provably excluded.
  EXPECT_EQ(report.branches_pruned, 3u);
  // One push through the union, one through the surviving branch's join.
  EXPECT_EQ(report.selects_pushed, 2u);

  // Results are identical.
  auto base = Evaluate(plan);
  auto opt = Evaluate(optimized);
  ASSERT_TRUE(base.ok() && opt.ok());
  std::vector<Tuple> a = base.value().rows();
  std::vector<Tuple> b = opt.value().rows();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());

  // And the optimized plan does proportionally less join work.
  EvalStats base_stats, opt_stats;
  ASSERT_TRUE(Evaluate(plan, &base_stats).ok());
  ASSERT_TRUE(Evaluate(optimized, &opt_stats).ok());
  EXPECT_LT(opt_stats.join_probes, base_stats.join_probes / 2);
}

TEST_F(PlanRewriteTest, UnconstrainedSelectionPrunesNothing) {
  PlanPtr plan = Plan::Select(
      Plan::OuterUnion({Plan::NaturalJoin(Plan::Scan(&master_),
                                          Plan::Scan(variants_[0].get())),
                        Plan::NaturalJoin(Plan::Scan(&master_),
                                          Plan::Scan(variants_[1].get()))}),
      Expr::Compare(w_->id_attr, CmpOp::kGe, Value::Int(0)));
  RewriteReport report;
  PlanPtr optimized = OptimizePlan(plan, w_->eads, &report);
  EXPECT_EQ(report.branches_pruned, 0u);
  auto base = Evaluate(plan);
  auto opt = Evaluate(optimized);
  ASSERT_TRUE(base.ok() && opt.ok());
  EXPECT_EQ(base.value().size(), opt.value().size());
}

TEST_F(PlanRewriteTest, ConstantTrueSelectionDropsOut) {
  PlanPtr plan =
      Plan::Select(Plan::Scan(&master_), Expr::Const(TriBool::kTrue));
  RewriteReport report;
  PlanPtr optimized = OptimizePlan(plan, w_->eads, &report);
  EXPECT_EQ(optimized->kind(), PlanKind::kScan);
}

TEST_F(PlanRewriteTest, ContradictorySelectionBecomesEmpty) {
  // jobtype pinned to two different values at once.
  ExprPtr contradiction =
      Expr::And(Expr::Eq(w_->jobtype_attr, w_->jobtype_values[0]),
                Expr::Eq(w_->jobtype_attr, w_->jobtype_values[1]));
  PlanPtr plan = Plan::Select(Plan::Scan(&w_->relation), contradiction);
  RewriteReport report;
  PlanPtr optimized = OptimizePlan(plan, w_->eads, &report);
  // Guard analysis can't see the contradiction (no guard involved), but the
  // evaluation still yields nothing; the rewrite must at minimum preserve
  // results.
  auto base = Evaluate(plan);
  auto opt = Evaluate(optimized);
  ASSERT_TRUE(base.ok() && opt.ok());
  EXPECT_EQ(base.value().size(), 0u);
  EXPECT_EQ(opt.value().size(), 0u);
}

TEST_F(PlanRewriteTest, FalsifiedGuardEmptiesTheSelect) {
  // Selection demanding a secretary attribute under a salesman-style pin.
  const auto& ead = w_->eads[0];
  AttrId v1_attr = *ead.variants()[1].then.begin();
  ExprPtr f = Expr::And(Expr::Eq(w_->jobtype_attr, w_->jobtype_values[0]),
                        Expr::Exists(v1_attr));
  PlanPtr plan = Plan::Select(Plan::Scan(&w_->relation), f);
  RewriteReport report;
  PlanPtr optimized = OptimizePlan(plan, w_->eads, &report);
  EXPECT_EQ(optimized->kind(), PlanKind::kEmpty);
  EXPECT_GE(report.guards_falsified, 1u);
  auto base = Evaluate(plan);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.value().size(), 0u);  // the rewrite told the truth
}

TEST_F(PlanRewriteTest, EmptyPropagatesThroughOperators) {
  PlanPtr empty = Plan::Empty();
  RewriteReport report;
  // join with empty -> empty; union with empty -> other side; difference.
  PlanPtr j = OptimizePlan(
      Plan::NaturalJoin(Plan::Scan(&master_), empty), w_->eads, &report);
  EXPECT_EQ(j->kind(), PlanKind::kEmpty);
  PlanPtr u = OptimizePlan(Plan::Union(Plan::Scan(&master_), empty),
                           w_->eads, &report);
  EXPECT_EQ(u->kind(), PlanKind::kScan);
  PlanPtr d = OptimizePlan(Plan::Difference(Plan::Scan(&master_), empty),
                           w_->eads, &report);
  EXPECT_EQ(d->kind(), PlanKind::kScan);
  PlanPtr d2 = OptimizePlan(Plan::Difference(empty, Plan::Scan(&master_)),
                            w_->eads, &report);
  EXPECT_EQ(d2->kind(), PlanKind::kEmpty);
  // Evaluating Empty works.
  auto out = Evaluate(Plan::Empty());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST_F(PlanRewriteTest, EstimateRowsReadsTheCodeColumn) {
  // Scans estimate their size; an equality selection over a scan estimates
  // the matching cluster's exact size via the relation's partition cache.
  EXPECT_EQ(EstimateRows(Plan::Scan(&master_)), master_.size());
  EXPECT_EQ(EstimateRows(Plan::Empty()), 0u);
  PlanPtr sel = Plan::Select(
      Plan::Scan(&master_),
      Expr::Eq(w_->jobtype_attr, w_->jobtype_values[0]));
  size_t expected = 0;
  for (const Tuple& t : master_.rows()) {
    const Value* v = t.Get(w_->jobtype_attr);
    if (v != nullptr && *v == w_->jobtype_values[0]) ++expected;
  }
  EXPECT_EQ(EstimateRows(sel), expected);
  EXPECT_LT(EstimateRows(sel), EstimateRows(Plan::Scan(&master_)));
  // Null literals never select anything under Kleene semantics, and the
  // estimate must agree even when rows carry explicit nulls.
  EXPECT_EQ(EstimateRows(Plan::Select(
                Plan::Scan(&master_),
                Expr::Eq(w_->jobtype_attr, Value::Null()))),
            0u);
}

TEST_F(PlanRewriteTest, MultiwayJoinLegsOrderedSmallestEstimateFirst) {
  // master (80 rows) before a selective leg: the rewriter must flip them.
  PlanPtr selective = Plan::Select(
      Plan::Scan(&master_),
      Expr::Eq(w_->jobtype_attr, w_->jobtype_values[0]));
  PlanPtr plan = Plan::MultiwayJoin(
      {Plan::Scan(&master_), selective, Plan::Scan(variants_[0].get())});
  RewriteReport report;
  PlanPtr optimized = OptimizePlan(plan, w_->eads, &report);
  EXPECT_EQ(report.joins_reordered, 1u);
  ASSERT_EQ(optimized->kind(), PlanKind::kMultiwayJoin);
  std::vector<size_t> estimates;
  for (const PlanPtr& leg : optimized->inputs()) {
    estimates.push_back(EstimateRows(leg));
  }
  EXPECT_TRUE(std::is_sorted(estimates.begin(), estimates.end()));

  // Reordering is result-preserving.
  auto base = Evaluate(plan);
  auto opt = Evaluate(optimized);
  ASSERT_TRUE(base.ok() && opt.ok());
  std::vector<Tuple> a = base.value().rows();
  std::vector<Tuple> b = opt.value().rows();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);

  // Already sorted legs are left alone.
  RewriteReport noop;
  OptimizePlan(Plan::MultiwayJoin({selective, Plan::Scan(&master_)}),
               w_->eads, &noop);
  EXPECT_EQ(noop.joins_reordered, 0u);
}

// Property: optimized restore-and-select equals the unoptimized result for
// every jobtype and several seeds.
class RewriteEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteEquivalence, RestoreSelectAllVariants) {
  EmployeeConfig config;
  config.num_variants = 3 + GetParam() % 4;
  config.attrs_per_variant = 2;
  config.rows = 60;
  config.seed = GetParam();
  auto w = MakeEmployeeWorkload(config);
  ASSERT_TRUE(w.ok());
  auto parts = TranslateVertical(w.value()->relation, w.value()->eads[0],
                                 AttrSet::Of(w.value()->id_attr));
  ASSERT_TRUE(parts.ok());
  FlexibleRelation master = FlexibleRelation::Derived("m", DependencySet());
  for (const Tuple& t : parts.value().master.rows()) {
    master.InsertUnchecked(t);
  }
  std::vector<std::unique_ptr<FlexibleRelation>> variant_frs;
  for (const Relation& r : parts.value().variant_relations) {
    auto fr = std::make_unique<FlexibleRelation>(
        FlexibleRelation::Derived(r.name(), DependencySet()));
    for (const Tuple& t : r.rows()) fr->InsertUnchecked(t);
    variant_frs.push_back(std::move(fr));
  }
  for (size_t v = 0; v < w.value()->jobtype_values.size(); ++v) {
    std::vector<PlanPtr> branches;
    for (auto& fr : variant_frs) {
      branches.push_back(
          Plan::NaturalJoin(Plan::Scan(&master), Plan::Scan(fr.get())));
    }
    PlanPtr plan = Plan::Select(
        Plan::OuterUnion(std::move(branches)),
        Expr::Eq(w.value()->jobtype_attr, w.value()->jobtype_values[v]));
    PlanPtr optimized = OptimizePlan(plan, w.value()->eads);
    auto base = Evaluate(plan);
    auto opt = Evaluate(optimized);
    ASSERT_TRUE(base.ok() && opt.ok());
    std::vector<Tuple> a = base.value().rows();
    std::vector<Tuple> b = opt.value().rows();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "variant " << v << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace flexrel
