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

#include "core/closure.h"
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
  DiscoveryOptions engine;
  engine.max_lhs_size = max_lhs;
  engine.minimal_only = minimal_only;
  engine.use_engine = true;
  DiscoveryOptions brute = engine;
  brute.use_engine = false;

  EXPECT_EQ(DiscoverAttrDeps(rows, universe, engine),
            DiscoverAttrDeps(rows, universe, brute))
      << label << " (ADs, max_lhs=" << max_lhs << " minimal=" << minimal_only
      << ")";
  EXPECT_EQ(DiscoverFuncDeps(rows, universe, engine),
            DiscoverFuncDeps(rows, universe, brute))
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
      DependencyValidator validator(cache.get());
      DiscoveryOptions brute;
      brute.use_engine = false;
      EXPECT_EQ(EngineDiscoverFuncDeps(&validator, universe),
                DiscoverFuncDeps(rel.rows(), universe, brute))
          << "round " << round;
      EXPECT_EQ(EngineDiscoverAttrDeps(&validator, universe),
                DiscoverAttrDeps(rel.rows(), universe, brute))
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
  EngineDiscoveryOptions sequential;
  sequential.num_threads = 1;
  sequential.max_lhs_size = 3;
  EngineDiscoveryOptions parallel = sequential;
  parallel.num_threads = 4;
  EXPECT_EQ(EngineDiscoverAttrDeps(rows, universe, sequential),
            EngineDiscoverAttrDeps(rows, universe, parallel));
  EXPECT_EQ(EngineDiscoverFuncDeps(rows, universe, sequential),
            EngineDiscoverFuncDeps(rows, universe, parallel));
}

TEST(EngineDiscoveryTest, TinyCacheStillProducesIdenticalResults) {
  // Eviction pressure must never change answers, only cost.
  Rng rng(123);
  std::vector<Tuple> rows = RandomInstance(&rng, 60, 6, 0.8, 2);
  AttrSet universe = FullUniverse(6);
  EngineDiscoveryOptions roomy;
  roomy.max_lhs_size = 3;
  EngineDiscoveryOptions cramped = roomy;
  cramped.cache_max_entries = 1;
  EXPECT_EQ(EngineDiscoverAttrDeps(rows, universe, roomy),
            EngineDiscoverAttrDeps(rows, universe, cramped));
  EXPECT_EQ(EngineDiscoverFuncDeps(rows, universe, roomy),
            EngineDiscoverFuncDeps(rows, universe, cramped));
}

TEST(EngineDiscoveryTest, BundledDiscoveryMatchesBruteForce) {
  auto ex = MakeJobtypeExample();
  ASSERT_TRUE(ex.ok());
  AttrSet universe = FullUniverse(ex.value()->catalog.size());
  DiscoveryOptions engine;
  DiscoveryOptions brute;
  brute.use_engine = false;
  DependencySet via_engine =
      DiscoverDependencies(ex.value()->relation.rows(), universe, engine);
  DependencySet via_brute =
      DiscoverDependencies(ex.value()->relation.rows(), universe, brute);
  EXPECT_EQ(via_engine.fds(), via_brute.fds());
  EXPECT_EQ(via_engine.ads(), via_brute.ads());
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
  // The installed Σ is engine-validated, hence satisfied by the instance.
  EXPECT_TRUE(relation->SatisfiesDeclaredDeps());
  // It must cover the workload's declared EAD abbreviation.
  DependencySet installed = relation->deps();
  AttrDep abbreviated{w.value()->eads[0].determinant(),
                      w.value()->eads[0].determined()};
  EXPECT_TRUE(Implies(installed, abbreviated, AxiomSystem::kAdOnly));
}

}  // namespace
}  // namespace flexrel
