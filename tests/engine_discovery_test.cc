// Cross-validation of the partition-engine discovery path against the
// retained brute-force reference, plus the engine's consumer bridges
// (EAD mining for the optimizer, Σ installation for generated workloads).
//
// The randomized instance sweep and the mutate-between-discoveries soak
// take their seed from FLEXREL_TEST_SEED when set (tests/seeded_suites.txt
// registers them for CI's fresh-seed rerun) and print it for replay.

#include "engine/parallel_discovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/closure.h"
#include "core/dependency.h"
#include "core/discovery.h"
#include "core/flexible_relation.h"
#include "engine_test_util.h"
#include "optimizer/guard_analysis.h"
#include "relational/attribute.h"
#include "telemetry/telemetry.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace flexrel {
namespace {

using testutil::FullUniverse;
using testutil::MakePlantedFdInstance;
using testutil::RandomInstance;
using testutil::RandomSoakTuple;

// Engine and brute force must return *identical* result vectors — same
// dependencies, same order — under every option combination.
void ExpectIdenticalDiscovery(const std::vector<Tuple>& rows,
                              const AttrSet& universe, size_t max_lhs,
                              bool minimal_only, const char* label) {
  DiscoveryOptions options;
  options.max_lhs_size = max_lhs;
  options.minimal_only = minimal_only;

  EXPECT_EQ(EngineDiscoverAttrDeps(rows, universe, options),
            DiscoverAttrDeps(rows, universe, options))
      << label << " (ADs, max_lhs=" << max_lhs << " minimal=" << minimal_only
      << ")";
  EXPECT_EQ(EngineDiscoverFuncDeps(rows, universe, options),
            DiscoverFuncDeps(rows, universe, options))
      << label << " (FDs, max_lhs=" << max_lhs << " minimal=" << minimal_only
      << ")";
}

TEST(EngineDiscoveryTest, LatticeLevelMatchesCombinationOrder) {
  AttrSet universe{2, 5, 7, 9};
  auto level2 = LatticeLevel(universe, 2);
  ASSERT_EQ(level2.size(), 6u);
  EXPECT_EQ(level2.front(), (AttrSet{2, 5}));
  EXPECT_EQ(level2.back(), (AttrSet{7, 9}));
  EXPECT_TRUE(LatticeLevel(universe, 5).empty());
  EXPECT_TRUE(LatticeLevel(universe, 0).empty());
}

TEST(EngineDiscoveryTest, MatchesBruteForceOnPaperExamples) {
  auto jobtype = MakeJobtypeExample();
  ASSERT_TRUE(jobtype.ok());
  AttrSet ju = FullUniverse(jobtype.value()->catalog.size());
  for (size_t max_lhs : {1u, 2u}) {
    for (bool minimal : {true, false}) {
      ExpectIdenticalDiscovery(jobtype.value()->relation.rows(), ju, max_lhs,
                               minimal, "jobtype example");
    }
  }

  auto address = MakeAddressWorkload(200, 31);
  ASSERT_TRUE(address.ok());
  AttrSet au = FullUniverse(address.value()->catalog.size());
  ExpectIdenticalDiscovery(address.value()->relation.rows(), au, 2, true,
                           "address workload");
}

TEST(EngineDiscoveryTest, MatchesBruteForceOnRandomInstances) {
  // >= 20 randomized instances sweeping shape, density, and value spread.
  const uint64_t base = TestSeedBase(0, "discovery-random");
  size_t instances = 0;
  for (uint64_t i = 1; i <= 8; ++i) {
    const uint64_t seed = base + i;
    Rng rng(seed * 101);
    SCOPED_TRACE(StrCat("seed=", seed));
    std::vector<Tuple> sparse = RandomInstance(&rng, 60, 5, 0.55, 2);
    std::vector<Tuple> dense = RandomInstance(&rng, 50, 4, 0.95, 3);
    std::vector<Tuple> tiny = RandomInstance(&rng, 6, 3, 0.7, 1);
    // Planted FDs over Zipf-skewed values (fat clusters), with absence on
    // the non-planted attributes so the AD pass sees presence disagreement.
    auto planted = MakePlantedFdInstance(&rng, 80, 7 + seed % 3, 2,
                                         4 + static_cast<int64_t>(seed % 4),
                                         0.3);
    ExpectIdenticalDiscovery(sparse, FullUniverse(5), 2, true, "sparse");
    ExpectIdenticalDiscovery(sparse, FullUniverse(5), 2, false, "sparse");
    ExpectIdenticalDiscovery(dense, FullUniverse(4), 3, true, "dense");
    ExpectIdenticalDiscovery(tiny, FullUniverse(3), 3, false, "tiny");
    ExpectIdenticalDiscovery(planted.rows, planted.universe, 2, true,
                             "planted");
    instances += 4;

    // Completeness against the construction: whatever minimal generators
    // discovery settled on must imply every planted dependency.
    DependencySet discovered;
    for (FuncDep& fd : EngineDiscoverFuncDeps(planted.rows, planted.universe)) {
      discovered.AddFd(std::move(fd));
    }
    for (const FuncDep& fd : planted.planted) {
      EXPECT_TRUE(Implies(discovered, fd))
          << "planted " << fd.lhs.ToString() << " -> " << fd.rhs.ToString()
          << " not implied by the discovered set";
    }
  }
  EXPECT_GE(instances, 20u);
}

TEST(EngineDiscoverySoak, SurvivesMutationsBetweenDiscoveries) {
  const uint64_t base = TestSeedBase(223, "discovery-mutation-soak");
  for (uint64_t i = 1; i <= 6; ++i) {
    const uint64_t seed = base + i;
    Rng rng(seed * 6151);
    SCOPED_TRACE(StrCat("seed=", seed));

    AttrCatalog catalog;
    std::vector<AttrId> attrs;
    for (int a = 0; a < 5; ++a) attrs.push_back(catalog.Intern(StrCat("a", a)));
    AttrSet universe = FullUniverse(attrs.size());

    FlexibleRelation rel =
        FlexibleRelation::Derived("discovery-soak", DependencySet());
    for (int r = 0; r < 50; ++r) {
      rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
    }

    // Re-discover through the relation's long-lived cache after every
    // mutation burst: round r validates against columns the flush arms
    // have spliced r times and partitions rebuilt from them.
    for (int round = 0; round < 4; ++round) {
      std::shared_ptr<PliCache> cache = rel.pli_cache();
      EXPECT_EQ(EngineDiscoverFuncDeps(cache.get(), universe),
                DiscoverFuncDeps(rel.rows(), universe))
          << "round " << round;
      EXPECT_EQ(EngineDiscoverAttrDeps(cache.get(), universe),
                DiscoverAttrDeps(rel.rows(), universe))
          << "round " << round;

      for (int m = 0; m < 8; ++m) {
        if (rng.Bernoulli(0.6)) {
          rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
        } else {
          size_t row = rng.Index(rel.size());
          AttrId attr = attrs[rng.Index(attrs.size())];
          auto delta = rel.Update(row, attr, testutil::RandomSoakValue(&rng));
          ASSERT_TRUE(delta.ok()) << delta.status();
        }
      }
    }
  }
}

TEST(DiscoveryTelemetryTest, RunStartResetsStaleGauges) {
  telemetry::Enable();
  telemetry::Registry& registry = telemetry::Registry::Global();
  registry.Reset();
  Rng rng(11);
  std::vector<Tuple> rows = RandomInstance(&rng, 40, 4, 0.9, 2);

  // Plant a stale watermark as an earlier run in this process would have;
  // a following run that never reaches the write site (here: an empty
  // universe walks zero levels) must not leak it into its own dump.
  telemetry::Gauge* util =
      registry.GetGauge("engine.discovery.worker_utilization_pct");
  util->Set(77);
  (void)EngineDiscoverFuncDeps(rows, AttrSet());
  EXPECT_EQ(util->value(), 0)
      << "stale worker-utilization watermark leaked across runs";
  telemetry::Disable();
}

TEST(EngineDiscoveryTest, MatchesBruteForceOnEmployeeWorkloads) {
  for (uint64_t seed : {3u, 14u, 15u}) {
    EmployeeConfig config;
    config.num_variants = 3;
    config.attrs_per_variant = 2;
    config.rows = 150;
    config.seed = seed;
    auto w = MakeEmployeeWorkload(config);
    ASSERT_TRUE(w.ok());
    ExpectIdenticalDiscovery(w.value()->relation.rows(),
                             FullUniverse(w.value()->catalog.size()), 2, true,
                             "employee workload");
  }
}

TEST(EngineDiscoveryTest, ThreadCountDoesNotChangeResults) {
  Rng rng(77);
  std::vector<Tuple> rows = RandomInstance(&rng, 80, 5, 0.7, 2);
  AttrSet universe = FullUniverse(5);
  DiscoveryOptions sequential;
  sequential.num_threads = 1;
  sequential.max_lhs_size = 3;
  DiscoveryOptions parallel = sequential;
  parallel.num_threads = 4;
  EXPECT_EQ(EngineDiscoverAttrDeps(rows, universe, sequential),
            EngineDiscoverAttrDeps(rows, universe, parallel));
  EXPECT_EQ(EngineDiscoverFuncDeps(rows, universe, sequential),
            EngineDiscoverFuncDeps(rows, universe, parallel));
}

TEST(EngineDiscoveryTest, TinyCacheStillProducesIdenticalResults) {
  // Eviction pressure must never change answers, only cost. 20 attributes
  // at |X| <= 3 ask for C(20,2) + C(20,3) = 1330 composites, past the
  // cache's LRU bound of 1024, so both passes run under eviction.
  constexpr AttrId kAttrs = 20;
  Rng rng(123);
  std::vector<Tuple> rows = RandomInstance(&rng, 60, kAttrs, 0.8, 2);
  AttrSet universe = FullUniverse(kAttrs);
  DiscoveryOptions options;
  options.max_lhs_size = 3;
  PliCache cache(&rows);
  EXPECT_EQ(EngineDiscoverFuncDeps(&cache, universe, options),
            DiscoverFuncDeps(rows, universe, options));
  EXPECT_EQ(EngineDiscoverAttrDeps(&cache, universe, options),
            DiscoverAttrDeps(rows, universe, options));
  EXPECT_GT(cache.Stats().evictions, 0u);
}

TEST(EngineDiscoveryTest, BundledDiscoveryMatchesBruteForce) {
  auto ex = MakeJobtypeExample();
  ASSERT_TRUE(ex.ok());
  AttrSet universe = FullUniverse(ex.value()->catalog.size());
  DependencySet via_engine =
      EngineDiscoverDependencies(ex.value()->relation.rows(), universe);
  DependencySet via_brute =
      DiscoverDependencies(ex.value()->relation.rows(), universe);
  EXPECT_EQ(via_engine.fds(), via_brute.fds());
  EXPECT_EQ(via_engine.ads(), via_brute.ads());
}

// Validation and discovery over `cache` must answer for the rows the
// relation holds now: every single-attribute AD and FD like the pairwise
// checkers, and both discovery passes like the brute-force reference.
void ExpectAnswersForRowsHeldNow(const FlexibleRelation& rel,
                                 PliCache* cache, const AttrSet& universe,
                                 const std::string& label) {
  const std::vector<Tuple>& rows = rel.rows();
  for (AttrId x : universe) {
    for (AttrId y : universe) {
      if (x == y) continue;
      const AttrDep ad{AttrSet::Of(x), AttrSet::Of(y)};
      const FuncDep fd{AttrSet::Of(x), AttrSet::Of(y)};
      EXPECT_EQ(ValidatesAd(cache, ad), SatisfiesAttrDep(rows, ad))
          << label << ": " << x << " --attr--> " << y;
      EXPECT_EQ(ValidatesFd(cache, fd), SatisfiesFuncDep(rows, fd))
          << label << ": " << x << " --func--> " << y;
    }
  }
  DependencySet found = EngineDiscoverDependencies(cache, universe);
  DependencySet reference = DiscoverDependencies(rows, universe);
  EXPECT_EQ(found.fds(), reference.fds()) << label;
  EXPECT_EQ(found.ads(), reference.ads()) << label;
}

TEST(EngineDiscoveryTest, LongLivedCacheAnswersForTheRowsHeldNow) {
  // A relation's cache outlives its mutations. An append of rows lacking
  // an attribute grows the partitions past the rows validation first saw,
  // and a footnote-3 update changes a row's presence; validation and
  // discovery through the same cache must follow both.
  auto ex = MakeJobtypeExample();
  ASSERT_TRUE(ex.ok());
  JobtypeExample& world = *ex.value();
  FlexibleRelation& rel = world.relation;
  const AttrSet universe = FullUniverse(world.catalog.size());
  PliCache* cache = rel.pli_cache().get();
  // The secretary is paid 4800, and no one else is yet.
  const AttrDep salary_speed_ad{AttrSet::Of(world.salary),
                                AttrSet::Of(world.typing_speed)};
  const FuncDep salary_speed_fd{AttrSet::Of(world.salary),
                                AttrSet::Of(world.typing_speed)};
  ASSERT_NO_FATAL_FAILURE(
      ExpectAnswersForRowsHeldNow(rel, cache, universe, "loaded"));
  EXPECT_TRUE(ValidatesAd(cache, salary_speed_ad));

  // Appended engineers lack typing-speed; one shares the secretary's
  // salary, so the salary cluster now disagrees on its presence.
  ASSERT_TRUE(rel.InsertRows({world.MakeEngineer(4800, 5),
                              world.MakeEngineer(7000, 1),
                              world.MakeSalesman(7000, 3)})
                  .ok());
  ASSERT_EQ(cache, rel.pli_cache().get());
  ASSERT_NO_FATAL_FAILURE(
      ExpectAnswersForRowsHeldNow(rel, cache, universe, "appended"));
  EXPECT_FALSE(ValidatesAd(cache, salary_speed_ad));

  // Footnote 3: flipping the 4800 engineer to a secretary drops products
  // and programming-languages and adds the secretary attributes, with a
  // typing-speed of its own.
  Tuple fill;
  fill.Set(world.typing_speed, Value::Int(300));
  fill.Set(world.foreign_languages, Value::Str("french, russian"));
  const size_t flipped = rel.size() - 3;
  ASSERT_EQ(rel.row(flipped), world.MakeEngineer(4800, 5));
  auto delta =
      rel.Update(flipped, world.jobtype, Value::Str("secretary"), fill);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_FALSE(delta.value().IsNoop());
  ASSERT_EQ(cache, rel.pli_cache().get());
  ASSERT_NO_FATAL_FAILURE(
      ExpectAnswersForRowsHeldNow(rel, cache, universe, "type changed"));
  EXPECT_TRUE(ValidatesAd(cache, salary_speed_ad));
  EXPECT_FALSE(ValidatesFd(cache, salary_speed_fd));
}

TEST(EngineConsumerTest, MinedEadMatchesTheDeclaredOne) {
  auto ex = MakeJobtypeExample();
  ASSERT_TRUE(ex.ok());
  const JobtypeExample& world = *ex.value();
  const std::vector<Tuple>& rows = world.relation.rows();
  PliCache cache(&rows);
  auto mined = MineExplicitAd(&cache, AttrSet::Of(world.jobtype),
                              world.ead.determined());
  ASSERT_TRUE(mined.ok()) << mined.status();
  EXPECT_EQ(mined.value().determinant(), world.ead.determinant());
  EXPECT_EQ(mined.value().determined(), world.ead.determined());
  EXPECT_TRUE(mined.value().Satisfies(rows));
  // Every instance tuple lands in the same variant under both EADs.
  for (const Tuple& t : rows) {
    EXPECT_EQ(mined.value().RequiredAttrs(t), world.ead.RequiredAttrs(t))
        << t.ToString(world.catalog);
  }
}

TEST(EngineConsumerTest, MiningRejectsViolatedDeterminants) {
  std::vector<Tuple> rows(2);
  rows[0].Set(0, Value::Int(1));
  rows[0].Set(1, Value::Int(9));
  rows[1].Set(0, Value::Int(1));  // same determinant value, lacks attr 1
  PliCache cache(&rows);
  auto mined = MineExplicitAd(&cache, AttrSet{0}, AttrSet{1});
  EXPECT_FALSE(mined.ok());
}

TEST(EngineConsumerTest, MiningRejectsDeterminedAttrsOutsideTheDeterminant) {
  // Definition 2.1's "otherwise ∅": a row lacking the determinant must not
  // carry determined attributes.
  std::vector<Tuple> rows(3);
  rows[0].Set(0, Value::Int(1));
  rows[0].Set(1, Value::Int(4));
  rows[1].Set(0, Value::Int(1));
  rows[1].Set(1, Value::Int(5));
  rows[2].Set(1, Value::Int(6));  // carries Y without the determinant
  PliCache cache(&rows);
  auto mined = MineExplicitAd(&cache, AttrSet{0}, AttrSet{1});
  EXPECT_FALSE(mined.ok());
}

TEST(EngineConsumerTest, GuardEliminationFromInstance) {
  auto ex = MakeJobtypeExample();
  ASSERT_TRUE(ex.ok());
  const JobtypeExample& world = *ex.value();
  // Example 4's shape: selecting secretaries makes the typing-speed guard
  // redundant; the mined EAD must prove it just like the declared one.
  ExprPtr formula =
      Expr::And(Expr::Eq(world.jobtype, Value::Str("secretary")),
                Expr::Exists(world.typing_speed));
  GuardRewrite declared =
      EliminateRedundantGuards(formula, {world.ead});
  GuardRewrite mined = EliminateRedundantGuardsFromInstance(
      formula, world.relation.rows(),
      FullUniverse(world.catalog.size()));
  EXPECT_EQ(declared.guards_eliminated, 1u);
  EXPECT_EQ(mined.guards_eliminated, declared.guards_eliminated);
  EXPECT_EQ(mined.guards_falsified, declared.guards_falsified);
}

TEST(EngineConsumerTest, GuardEliminationSurvivesPartiallyMinableRhs) {
  // Determinant A -> {B, C} holds as an AD, but a row lacking A carries C,
  // so only B is minable under the explicit reading. The B-guard
  // elimination must survive the C poisoning.
  std::vector<Tuple> rows(3);
  rows[0].Set(0, Value::Int(1));
  rows[0].Set(1, Value::Int(10));
  rows[0].Set(2, Value::Int(20));
  rows[1].Set(0, Value::Int(1));
  rows[1].Set(1, Value::Int(11));
  rows[1].Set(2, Value::Int(21));
  rows[2].Set(2, Value::Int(22));  // carries C without the determinant A
  AttrSet universe{0, 1, 2};
  EXPECT_EQ(ExplicitlyMinableRhs(rows, AttrSet{0}, AttrSet{1, 2}),
            AttrSet{1});
  ExprPtr formula =
      Expr::And(Expr::Eq(0, Value::Int(1)), Expr::Exists(1));
  GuardRewrite rewrite =
      EliminateRedundantGuardsFromInstance(formula, rows, universe);
  EXPECT_EQ(rewrite.guards_eliminated, 1u);
}

TEST(EngineConsumerTest, InstallDiscoveredDepsValidatesAndInstalls) {
  EmployeeConfig config;
  config.rows = 120;
  config.seed = 21;
  auto w = MakeEmployeeWorkload(config);
  ASSERT_TRUE(w.ok());
  FlexibleRelation* relation = &w.value()->relation;
  DiscoveryOptions options;
  options.max_lhs_size = 1;
  ASSERT_TRUE(InstallDiscoveredDeps(relation, options).ok());
  EXPECT_FALSE(relation->deps().empty());
  // The installed Σ is satisfied by the instance, and it is exactly what
  // the brute-force reference mines from the same rows and attributes.
  EXPECT_TRUE(relation->SatisfiesDeclaredDeps());
  DependencySet installed = relation->deps();
  DependencySet reference = DiscoverDependencies(
      relation->rows(), relation->ActiveAttrs(), options);
  EXPECT_EQ(installed.fds(), reference.fds());
  EXPECT_EQ(installed.ads(), reference.ads());
  // It must cover the workload's declared EAD abbreviation.
  AttrDep abbreviated{w.value()->eads[0].determinant(),
                      w.value()->eads[0].determined()};
  EXPECT_TRUE(Implies(installed, abbreviated, AxiomSystem::kAdOnly));
}

}  // namespace
}  // namespace flexrel
