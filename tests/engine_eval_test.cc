// Cross-validation of the partition-accelerated evaluator against the naive
// reference path, plus the EvalStats regression pins the optimizer
// experiments (E4/E5) rely on.
//
// The accelerated path (EvalOptions::use_engine, the default) must be
// observationally identical to the naive oracle — same rows, same propagated
// dependency sets, same error codes — while doing strictly less counted
// work on selection- and join-heavy plans. The property test below throws
// hundreds of randomized plans over generated workloads at both paths; the
// fixture tests pin exact per-operator counter values on the paper examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "algebra/evaluate.h"
#include "decomposition/decomposition.h"
#include "engine_test_util.h"
#include "optimizer/plan_rewrite.h"
#include "telemetry/telemetry.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace flexrel {
namespace {

using testutil::ApplyRandomEmployeeMutation;
using testutil::SoakEmployeeConfig;

EvalOptions NaiveOptions() {
  EvalOptions options;
  options.use_engine = false;
  return options;
}

std::vector<Tuple> SortedRows(const FlexibleRelation& rel) {
  std::vector<Tuple> rows = rel.rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Evaluates `plan` on the naive and engine paths and asserts they are
// observationally identical.
void CrossValidate(const PlanPtr& plan, const std::string& context) {
  EvalStats naive_stats, engine_stats;
  auto naive = Evaluate(plan, NaiveOptions(), &naive_stats);
  auto engine = Evaluate(plan, EvalOptions(), &engine_stats);

  ASSERT_EQ(naive.ok(), engine.ok()) << context;
  if (!naive.ok()) {
    EXPECT_EQ(naive.status().code(), engine.status().code()) << context;
    return;
  }

  // Set-equal rows...
  EXPECT_EQ(SortedRows(naive.value()), SortedRows(engine.value())) << context;
  // ...and identical propagated dependency sets (same propagation code must
  // run in the same order on both paths).
  EXPECT_EQ(naive.value().deps().ads(), engine.value().deps().ads()) << context;
  EXPECT_EQ(naive.value().deps().fds(), engine.value().deps().fds()) << context;

  // Selection work can only shrink: the indexed path evaluates nothing and
  // the generic path evaluates exactly what the oracle does. (join_probes
  // usually shrink too, but greedy multiway ordering under value skew gives
  // no pointwise guarantee — the fixture tests below assert the strict
  // reductions on deterministic plans.)
  EXPECT_LE(engine_stats.predicate_evals, naive_stats.predicate_evals)
      << context;
}

// ---------------------------------------------------------------------------
// Randomized property test: ≥200 random plans over generated workloads.
// ---------------------------------------------------------------------------

struct PlanPool {
  std::vector<const FlexibleRelation*> relations;
  std::vector<AttrId> attrs;
  std::vector<Value> values;
  AttrId extend_tag = 0;
};

const FlexibleRelation* PickRelation(const PlanPool& pool, Rng* rng) {
  return pool.relations[rng->Index(pool.relations.size())];
}

AttrId PickAttr(const PlanPool& pool, Rng* rng) {
  return pool.attrs[rng->Index(pool.attrs.size())];
}

Value PickValue(const PlanPool& pool, Rng* rng) {
  return pool.values[rng->Index(pool.values.size())];
}

ExprPtr RandomFormula(const PlanPool& pool, Rng* rng, int depth) {
  switch (rng->UniformInt(0, depth > 0 ? 6 : 4)) {
    case 0:
    case 1:  // weight equality higher: it is the accelerated shape
      return Expr::Eq(PickAttr(pool, rng), PickValue(pool, rng));
    case 2:
      return Expr::In(PickAttr(pool, rng),
                      {PickValue(pool, rng), PickValue(pool, rng)});
    case 3: {
      CmpOp op = static_cast<CmpOp>(rng->UniformInt(0, 5));
      return Expr::Compare(PickAttr(pool, rng), op, PickValue(pool, rng));
    }
    case 4:
      return Expr::Exists(PickAttr(pool, rng));
    case 5:
      return Expr::And(RandomFormula(pool, rng, depth - 1),
                       RandomFormula(pool, rng, depth - 1));
    default:
      return Expr::Or(RandomFormula(pool, rng, depth - 1),
                      RandomFormula(pool, rng, depth - 1));
  }
}

PlanPtr RandomPlan(const PlanPool& pool, Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.25)) {
    return Plan::Scan(PickRelation(pool, rng));
  }
  switch (rng->UniformInt(0, 6)) {
    case 0:
    case 1:  // selections dominate real query mixes
      return Plan::Select(RandomPlan(pool, rng, depth - 1),
                          RandomFormula(pool, rng, 1));
    case 2:
      return Plan::NaturalJoin(RandomPlan(pool, rng, depth - 1),
                               RandomPlan(pool, rng, depth - 1));
    case 3: {
      std::vector<PlanPtr> legs;
      size_t n = 2 + rng->Index(3);
      for (size_t i = 0; i < n; ++i) {
        legs.push_back(RandomPlan(pool, rng, depth - 1));
      }
      return Plan::MultiwayJoin(std::move(legs));
    }
    case 4:
      return Plan::Union(RandomPlan(pool, rng, depth - 1),
                         RandomPlan(pool, rng, depth - 1));
    case 5: {
      std::vector<PlanPtr> branches;
      size_t n = 2 + rng->Index(2);
      for (size_t i = 0; i < n; ++i) {
        // Extend-tagged branches exercise the rule (6) propagation.
        PlanPtr branch = RandomPlan(pool, rng, depth - 1);
        if (rng->Bernoulli(0.5)) {
          branch = Plan::Extend(branch, pool.extend_tag,
                                Value::Int(static_cast<int64_t>(i)));
        }
        branches.push_back(std::move(branch));
      }
      return Plan::OuterUnion(std::move(branches));
    }
    default: {
      AttrSet attrs;
      size_t n = 1 + rng->Index(3);
      for (size_t i = 0; i < n; ++i) attrs.Insert(PickAttr(pool, rng));
      return Plan::Project(RandomPlan(pool, rng, depth - 1), attrs);
    }
  }
}

TEST(EngineEvalCrossValidation, RandomPlansAgreeWithNaiveOracle) {
  size_t instances = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    auto w = MakeEmployeeWorkload(SoakEmployeeConfig(seed, 40));
    ASSERT_TRUE(w.ok()) << w.status();

    auto parts = TranslateVertical(w.value()->relation, w.value()->eads[0],
                                   AttrSet::Of(w.value()->id_attr));
    ASSERT_TRUE(parts.ok());
    FlexibleRelation master = FlexibleRelation::Derived("m", DependencySet());
    for (const Tuple& t : parts.value().master.rows()) {
      master.InsertUnchecked(t);
    }
    std::vector<std::unique_ptr<FlexibleRelation>> variants;
    for (const Relation& r : parts.value().variant_relations) {
      auto fr = std::make_unique<FlexibleRelation>(
          FlexibleRelation::Derived(r.name(), DependencySet()));
      for (const Tuple& t : r.rows()) fr->InsertUnchecked(t);
      variants.push_back(std::move(fr));
    }

    PlanPool pool;
    pool.relations.push_back(&w.value()->relation);
    pool.relations.push_back(&master);
    for (const auto& v : variants) pool.relations.push_back(v.get());
    pool.attrs.push_back(w.value()->id_attr);
    pool.attrs.push_back(w.value()->jobtype_attr);
    for (AttrId a : w.value()->common_attrs) pool.attrs.push_back(a);
    for (const auto& variant : w.value()->eads[0].variants()) {
      for (AttrId a : variant.then) pool.attrs.push_back(a);
    }
    pool.extend_tag = w.value()->catalog.Intern("xval-tag");
    // Values drawn from actual rows keep selections and joins selective but
    // non-empty; a few foreign constants cover the miss paths.
    Rng rng(seed * 7919);
    for (int i = 0; i < 12; ++i) {
      const Tuple& t = w.value()->relation.row(
          rng.Index(w.value()->relation.size()));
      const auto& field = t.fields()[rng.Index(t.fields().size())];
      pool.values.push_back(field.second);
    }
    pool.values.push_back(Value::Int(-123456));
    pool.values.push_back(Value::Str("no-such-value"));
    pool.values.push_back(Value::Null());

    for (int p = 0; p < 8; ++p) {
      PlanPtr plan = RandomPlan(pool, &rng, 3);
      CrossValidate(plan, StrCat("seed=", seed, " plan=", p));
      ++instances;
    }
  }
  EXPECT_GE(instances, 200u);
}

// ---------------------------------------------------------------------------
// Mutate-between-evaluations: the accelerated path must stay observationally
// identical to the naive oracle while the scanned relations' attached caches
// are maintained across interleaved mutations (the hooks buffer them, the
// next read splices the code columns). Unlike the 240-plan test above
// (fixed seeds: it pins instance counts), this phase honors
// FLEXREL_TEST_SEED so CI's seed-diversity step soaks a fresh mutation
// interleaving per run.
// ---------------------------------------------------------------------------

TEST(EngineEvalCrossValidation, RandomPlansAgreeAcrossCachePatches) {
  uint64_t base = TestSeedBase(97, "eval-mutation");
  for (uint64_t i = 1; i <= 10; ++i) {
    uint64_t seed = base + i;
    auto w = MakeEmployeeWorkload(SoakEmployeeConfig(seed, 30));
    ASSERT_TRUE(w.ok()) << w.status();
    EmployeeWorkload& workload = *w.value();

    // A second, untyped relation so derived-relation mutations (no checker,
    // arbitrary updates) are in the mix alongside typed ones.
    FlexibleRelation derived =
        FlexibleRelation::Derived("d", DependencySet());
    for (const Tuple& t : workload.relation.rows()) derived.InsertUnchecked(t);

    PlanPool pool;
    pool.relations.push_back(&workload.relation);
    pool.relations.push_back(&derived);
    pool.attrs.push_back(workload.id_attr);
    pool.attrs.push_back(workload.jobtype_attr);
    for (AttrId a : workload.common_attrs) pool.attrs.push_back(a);
    for (const auto& variant : workload.eads[0].variants()) {
      for (AttrId a : variant.then) pool.attrs.push_back(a);
    }
    pool.extend_tag = workload.catalog.Intern("mut-tag");
    Rng rng(seed * 104729);
    for (int v = 0; v < 10; ++v) {
      const Tuple& t =
          workload.relation.row(rng.Index(workload.relation.size()));
      const auto& field = t.fields()[rng.Index(t.fields().size())];
      pool.values.push_back(field.second);
    }
    pool.values.push_back(Value::Int(-7));
    pool.values.push_back(Value::Null());

    // A fixed plan set, re-cross-validated after every mutation burst: the
    // engine path of round r reads caches maintained across r bursts.
    std::vector<PlanPtr> plans;
    for (int p = 0; p < 4; ++p) plans.push_back(RandomPlan(pool, &rng, 3));
    for (int round = 0; round < 4; ++round) {
      for (size_t p = 0; p < plans.size(); ++p) {
        CrossValidate(plans[p],
                      StrCat("seed=", seed, " round=", round, " plan=", p));
      }
      for (int m = 0; m < 6; ++m) {
        // The typed side of each step is the shared employee mutation (a
        // checked insert, or a jobtype flip — the footnote-3 type change
        // landing in the cache as one multi-attribute delta); the derived
        // relation gets a matching unchecked mutation alongside.
        const int kind = rng.Bernoulli(0.5) ? 0 : 1;
        auto outcome = ApplyRandomEmployeeMutation(&workload, &rng, kind);
        ASSERT_TRUE(outcome.status.ok()) << outcome.status;
        if (kind == 0) {
          Tuple t;
          t.Set(PickAttr(pool, &rng), PickValue(pool, &rng));
          t.Set(PickAttr(pool, &rng), PickValue(pool, &rng));
          derived.InsertUnchecked(std::move(t));
        } else {
          size_t drow = rng.Index(derived.size());
          ASSERT_TRUE(derived
                          .Update(drow, PickAttr(pool, &rng),
                                  PickValue(pool, &rng))
                          .ok());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact per-operator EvalStats regression on the paper examples (naive
// path), plus strict-improvement assertions for the engine path.
// ---------------------------------------------------------------------------

class EngineEvalStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ex = MakeJobtypeExample();
    ASSERT_TRUE(ex.ok()) << ex.status();
    ex_ = std::move(ex).value();
  }

  EvalStats NaiveStats(const PlanPtr& plan) {
    EvalStats stats;
    auto out = Evaluate(plan, NaiveOptions(), &stats);
    EXPECT_TRUE(out.ok()) << out.status();
    return stats;
  }

  EvalStats EngineStats(const PlanPtr& plan) {
    EvalStats stats;
    auto out = Evaluate(plan, EvalOptions(), &stats);
    EXPECT_TRUE(out.ok()) << out.status();
    return stats;
  }

  std::unique_ptr<JobtypeExample> ex_;
};

TEST_F(EngineEvalStatsTest, ScanCountsExactly) {
  EvalStats s = NaiveStats(Plan::Scan(&ex_->relation));
  EXPECT_EQ(s.tuples_scanned, 3u);
  EXPECT_EQ(s.tuples_emitted, 3u);
  EXPECT_EQ(s.intermediate_tuples, 0u);
  EXPECT_EQ(s.predicate_evals, 0u);
  EXPECT_EQ(s.join_probes, 0u);
}

TEST_F(EngineEvalStatsTest, SelectCountsExactlyAndEngineSkipsPredicates) {
  PlanPtr plan =
      Plan::Select(Plan::Scan(&ex_->relation),
                   Expr::Eq(ex_->jobtype, Value::Str("secretary")));
  EvalStats naive = NaiveStats(plan);
  EXPECT_EQ(naive.tuples_scanned, 3u);
  EXPECT_EQ(naive.predicate_evals, 3u);   // one Kleene eval per tuple
  EXPECT_EQ(naive.tuples_emitted, 4u);    // 3 from the scan + 1 selected
  EXPECT_EQ(naive.join_probes, 0u);

  EvalStats engine = EngineStats(plan);
  EXPECT_EQ(engine.predicate_evals, 0u);  // resolved via a code lookup
  EXPECT_LT(engine.predicate_evals, naive.predicate_evals);
  EXPECT_EQ(engine.tuples_scanned, 1u);   // only the matching cluster
  EXPECT_EQ(engine.tuples_emitted, 1u);
}

TEST_F(EngineEvalStatsTest, ProjectAndUnionCountExactly) {
  EvalStats proj = NaiveStats(
      Plan::Project(Plan::Scan(&ex_->relation), AttrSet{ex_->jobtype}));
  EXPECT_EQ(proj.tuples_scanned, 3u);
  EXPECT_EQ(proj.tuples_emitted, 6u);  // 3 scanned + 3 distinct projections

  EvalStats uni = NaiveStats(
      Plan::Union(Plan::Scan(&ex_->relation), Plan::Scan(&ex_->relation)));
  EXPECT_EQ(uni.tuples_scanned, 6u);
  EXPECT_EQ(uni.tuples_emitted, 9u);   // 3 + 3 from the scans + 3 deduped
}

TEST_F(EngineEvalStatsTest, NaturalJoinCountsExactlyAndEngineProbesFewer) {
  FlexibleRelation bonus = FlexibleRelation::Derived("bonus", DependencySet());
  AttrId amount = ex_->catalog.Intern("bonus-amount");
  Tuple b;
  b.Set(ex_->jobtype, Value::Str("salesman"));
  b.Set(amount, Value::Int(500));
  bonus.InsertUnchecked(b);

  PlanPtr plan =
      Plan::NaturalJoin(Plan::Scan(&ex_->relation), Plan::Scan(&bonus));
  EvalStats naive = NaiveStats(plan);
  EXPECT_EQ(naive.join_probes, 3u);       // 3 × 1 nested-loop pairs
  EXPECT_EQ(naive.tuples_emitted, 5u);    // 3 + 1 scans + 1 joined
  EXPECT_EQ(naive.intermediate_tuples, 0u);

  EvalStats engine = EngineStats(plan);
  EXPECT_EQ(engine.join_probes, 1u);      // only the compatible pair
  EXPECT_LT(engine.join_probes, naive.join_probes);
}

TEST_F(EngineEvalStatsTest, MultiwayJoinSplitsIntermediateFromFinal) {
  FlexibleRelation r1 = FlexibleRelation::Derived("r1", DependencySet());
  FlexibleRelation r2 = FlexibleRelation::Derived("r2", DependencySet());
  FlexibleRelation r3 = FlexibleRelation::Derived("r3", DependencySet());
  AttrId k = ex_->catalog.Intern("k");
  AttrId p = ex_->catalog.Intern("p");
  AttrId q = ex_->catalog.Intern("q");
  for (int i = 0; i < 3; ++i) {
    Tuple a;
    a.Set(k, Value::Int(i));
    r1.InsertUnchecked(a);
    Tuple b;
    b.Set(k, Value::Int(i));
    b.Set(p, Value::Int(i * 10));
    r2.InsertUnchecked(b);
  }
  Tuple c;
  c.Set(k, Value::Int(1));
  c.Set(q, Value::Int(99));
  r3.InsertUnchecked(c);

  PlanPtr plan = Plan::MultiwayJoin(
      {Plan::Scan(&r1), Plan::Scan(&r2), Plan::Scan(&r3)});
  EvalStats naive = NaiveStats(plan);
  // Naive fold order: (r1 ⋈ r2) is 9 probes emitting 3 intermediates, the
  // final (⋈ r3) is 3 probes emitting 1 tuple. Before the counter split the
  // 3 intermediates were conflated into tuples_emitted.
  EXPECT_EQ(naive.join_probes, 12u);
  EXPECT_EQ(naive.intermediate_tuples, 3u);
  EXPECT_EQ(naive.tuples_emitted, 8u);  // 3 + 3 + 1 scans + 1 final join row
  EXPECT_EQ(naive.tuples_scanned, 7u);

  // The engine starts from the 1-row leg and probes only compatible pairs.
  EvalStats engine = EngineStats(plan);
  EXPECT_LT(engine.join_probes, naive.join_probes);
  EXPECT_EQ(engine.join_probes, 2u);
  EXPECT_EQ(engine.intermediate_tuples, 1u);
  EXPECT_EQ(engine.tuples_emitted, 8u);  // identical final output accounting
}

TEST_F(EngineEvalStatsTest, RestoreSelectPlanDoesStrictlyLessEngineWork) {
  // The E5 shape: σ[jobtype](∪ᵢ employee ⋈ bonusᵢ)-style join-heavy plan.
  FlexibleRelation bonus = FlexibleRelation::Derived("bonus", DependencySet());
  AttrId amount = ex_->catalog.Intern("bonus-amount");
  for (int i = 0; i < 3; ++i) {
    Tuple b;
    b.Set(ex_->salary,
          Value::Int(i == 0 ? 4700 : (i == 1 ? 6200 : 5400)));
    b.Set(amount, Value::Int(100 * (i + 1)));
    bonus.InsertUnchecked(b);
  }
  PlanPtr plan = Plan::Select(
      Plan::NaturalJoin(Plan::Scan(&ex_->relation), Plan::Scan(&bonus)),
      Expr::Eq(ex_->jobtype, Value::Str("salesman")));

  EvalStats naive, engine;
  auto a = Evaluate(plan, NaiveOptions(), &naive);
  auto b2 = Evaluate(plan, EvalOptions(), &engine);
  ASSERT_TRUE(a.ok() && b2.ok());
  EXPECT_EQ(SortedRows(a.value()), SortedRows(b2.value()));
  EXPECT_LT(engine.join_probes, naive.join_probes);
}

// ---------------------------------------------------------------------------
// Value-index edge cases and the cache-invalidation contract.
// ---------------------------------------------------------------------------

TEST(EngineEvalIndexTest, NullLiteralsAndNullValuesFollowKleeneSemantics) {
  FlexibleRelation rel = FlexibleRelation::Derived("r", DependencySet());
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  AttrId b = catalog.Intern("b");
  Tuple t1;
  t1.Set(a, Value::Int(1));
  t1.Set(b, Value::Str("x"));
  rel.InsertUnchecked(t1);
  Tuple t2;
  t2.Set(a, Value::Null());  // explicit null: defined but Unknown to compare
  rel.InsertUnchecked(t2);
  Tuple t3;  // lacks `a` entirely
  t3.Set(b, Value::Str("y"));
  rel.InsertUnchecked(t3);

  for (const ExprPtr& formula :
       {Expr::Eq(a, Value::Int(1)), Expr::Eq(a, Value::Null()),
        Expr::In(a, {Value::Int(1), Value::Null(), Value::Int(7)})}) {
    PlanPtr plan = Plan::Select(Plan::Scan(&rel), formula);
    auto naive = Evaluate(plan, NaiveOptions());
    auto engine = Evaluate(plan, EvalOptions());
    ASSERT_TRUE(naive.ok() && engine.ok());
    // Not just set-equal: the index path must also preserve scan order.
    EXPECT_EQ(naive.value().rows(), engine.value().rows());
  }
}

// Mutations must be visible to the next evaluation — historically by
// dropping the cache, now by splicing its code columns (the soak in
// engine_incremental_test.cc covers the structural details).
TEST(EngineEvalIndexTest, InsertAndUpdateKeepTheAttachedCacheCoherent) {
  FlexibleRelation rel = FlexibleRelation::Derived("r", DependencySet());
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  for (int i = 0; i < 4; ++i) {
    Tuple t;
    t.Set(a, Value::Int(i % 2));
    rel.InsertUnchecked(t);
  }
  PlanPtr plan = Plan::Select(Plan::Scan(&rel), Expr::Eq(a, Value::Int(0)));
  auto first = Evaluate(plan);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().size(), 2u);

  // Insert after the cache was built: the next evaluation must see the row.
  Tuple extra;
  extra.Set(a, Value::Int(0));
  extra.Set(catalog.Intern("b"), Value::Int(42));
  rel.InsertUnchecked(extra);
  auto second = Evaluate(plan);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().size(), 3u);

  // Update flips a row out of the selected cluster.
  ASSERT_TRUE(rel.Update(0, a, Value::Int(1)).ok());
  auto third = Evaluate(plan);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().size(), 2u);
}

// ---------------------------------------------------------------------------
// EXPLAIN: the attributed operator tree, and the drift-proofing identity
// between the report's join steps and the EvalStats aggregation.
// ---------------------------------------------------------------------------

struct ThreeLegSetup {
  FlexibleRelation r1 = FlexibleRelation::Derived("r1", DependencySet());
  FlexibleRelation r2 = FlexibleRelation::Derived("r2", DependencySet());
  FlexibleRelation r3 = FlexibleRelation::Derived("r3", DependencySet());
};

// r1(k) and r2(k, p) with k in {0,1,2}; r3(k, q) with the single row k=1 —
// the engine order must seed from r3 and the join yields exactly one row.
ThreeLegSetup MakeThreeLegJoin(AttrCatalog* catalog) {
  ThreeLegSetup s;
  AttrId k = catalog->Intern("k");
  AttrId p = catalog->Intern("p");
  AttrId q = catalog->Intern("q");
  for (int i = 0; i < 3; ++i) {
    Tuple a;
    a.Set(k, Value::Int(i));
    s.r1.InsertUnchecked(a);
    Tuple b;
    b.Set(k, Value::Int(i));
    b.Set(p, Value::Int(i * 10));
    s.r2.InsertUnchecked(b);
  }
  Tuple c;
  c.Set(k, Value::Int(1));
  c.Set(q, Value::Int(99));
  s.r3.InsertUnchecked(c);
  return s;
}

TEST(EngineExplainTest, ThreeLegJoinReportsOrderWithEstimatesAndActuals) {
  AttrCatalog catalog;
  ThreeLegSetup s = MakeThreeLegJoin(&catalog);
  PlanPtr plan = Plan::MultiwayJoin(
      {Plan::Scan(&s.r1), Plan::Scan(&s.r2), Plan::Scan(&s.r3)});

  auto report = Explain(plan);
  ASSERT_TRUE(report.ok()) << report.status();
  const ExplainNode& root = report.value().root;
  EXPECT_EQ(root.op, "multiway_join[ordered]");
  ASSERT_EQ(root.children.size(), 3u);  // one attributed subtree per leg

  // One step per leg: the seed (the smallest leg, r3) plus two folds, each
  // naming the chosen leg with the estimate that picked it and the rows
  // the fold actually produced.
  ASSERT_EQ(root.join_steps.size(), 3u);
  EXPECT_EQ(root.join_steps[0].leg_name, "r3");
  EXPECT_EQ(root.join_steps[0].actual_rows, 1u);
  EXPECT_EQ(root.join_steps[0].est_rows, 1.0);  // the seed's own size
  for (const ExplainJoinStep& step : root.join_steps) {
    EXPECT_FALSE(step.leg_name.empty());
    EXPECT_GT(step.est_rows, 0.0);
  }

  // The report describes exactly the work Evaluate() does: the final step
  // and the root both land on the evaluated result size.
  auto evaluated = Evaluate(plan);
  ASSERT_TRUE(evaluated.ok());
  EXPECT_EQ(root.join_steps.back().actual_rows, evaluated.value().size());
  EXPECT_EQ(root.actual_rows, evaluated.value().size());

  // Drift-proofing identity: the non-final fold steps (everything between
  // the seed and the last fold) sum to the run's intermediate tuples.
  size_t intermediates = 0;
  for (size_t i = 1; i + 1 < root.join_steps.size(); ++i) {
    intermediates += root.join_steps[i].actual_rows;
  }
  EXPECT_EQ(intermediates, report.value().stats.intermediate_tuples);

  // The rendering names the chosen order with est/actual per leg.
  const std::string text = report.value().ToString();
  EXPECT_NE(text.find("multiway_join[ordered]"), std::string::npos) << text;
  EXPECT_NE(text.find("order: leg2(r3) est=1.0 actual=1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("est="), std::string::npos);
  EXPECT_NE(text.find("actual="), std::string::npos);
  EXPECT_NE(text.find("stats: scanned="), std::string::npos);
}

TEST(EngineExplainTest, IndexedSelectIsAttributed) {
  auto ex = MakeJobtypeExample();
  ASSERT_TRUE(ex.ok()) << ex.status();
  PlanPtr plan =
      Plan::Select(Plan::Scan(&ex.value()->relation),
                   Expr::Eq(ex.value()->jobtype, Value::Str("secretary")));
  auto report = Explain(plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().root.op, "select[index]");
  EXPECT_TRUE(report.value().root.index_hit);
  EXPECT_EQ(report.value().root.actual_rows, 1u);
  // The indexed path never evaluates its scan input — the code column's
  // lookup answers directly — so the report truthfully has no scan child.
  EXPECT_TRUE(report.value().root.children.empty());
}

// Satellite fix: the registry aggregates are incremented by the same
// single-point helpers that bump EvalStats, so the two channels cannot
// drift. Asserted per field, plus the probe split (nested + hashed ==
// join_probes).
TEST(EngineExplainTest, TelemetryAggregatesMatchEvalStats) {
  AttrCatalog catalog;
  ThreeLegSetup s = MakeThreeLegJoin(&catalog);
  // A non-indexable selection on top keeps predicate_evals non-zero even
  // on the engine path; the multiway join below it covers scans, folds,
  // and intermediates.
  PlanPtr plan = Plan::Select(
      Plan::MultiwayJoin(
          {Plan::Scan(&s.r1), Plan::Scan(&s.r2), Plan::Scan(&s.r3)}),
      Expr::Compare(catalog.Intern("p"), CmpOp::kGe, Value::Int(0)));

  telemetry::Enable();
  telemetry::Registry::Global().Reset();
  EvalStats stats;
  auto out = Evaluate(plan, EvalOptions(), &stats);
  auto& registry = telemetry::Registry::Global();
  const uint64_t scanned = registry.CounterValue("eval.tuples_scanned");
  const uint64_t emitted = registry.CounterValue("eval.tuples_emitted");
  const uint64_t mid = registry.CounterValue("eval.intermediate_tuples");
  const uint64_t preds = registry.CounterValue("eval.predicate_evals");
  const uint64_t probes =
      registry.CounterValue("eval.join.nested_probes") +
      registry.CounterValue("eval.join.hash_probes");
  telemetry::Disable();
  registry.Reset();

  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(stats.predicate_evals, 0u);
  EXPECT_GT(stats.intermediate_tuples, 0u);
  EXPECT_EQ(scanned, stats.tuples_scanned);
  EXPECT_EQ(emitted, stats.tuples_emitted);
  EXPECT_EQ(mid, stats.intermediate_tuples);
  EXPECT_EQ(preds, stats.predicate_evals);
  EXPECT_EQ(probes, stats.join_probes);
}

TEST(EngineEvalIndexTest, CopiesAndMovesStartCacheLess) {
  FlexibleRelation rel = FlexibleRelation::Derived("r", DependencySet());
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  Tuple t;
  t.Set(a, Value::Int(7));
  rel.InsertUnchecked(t);
  (void)rel.pli_cache();  // force the cache into existence

  FlexibleRelation copy = rel;  // must not alias rel's row vector
  Tuple u;
  u.Set(a, Value::Int(8));
  copy.InsertUnchecked(u);
  PlanPtr plan = Plan::Select(Plan::Scan(&copy), Expr::Eq(a, Value::Int(8)));
  auto out = Evaluate(plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 1u);

  FlexibleRelation moved = std::move(copy);
  auto out2 = Evaluate(Plan::Select(Plan::Scan(&moved),
                                    Expr::Eq(a, Value::Int(8))));
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2.value().size(), 1u);
}

}  // namespace
}  // namespace flexrel
