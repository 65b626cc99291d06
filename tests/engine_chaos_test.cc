// Fault-tolerance soak for the engine: deterministic fault injection.
//
// The contract under test: with seeded fault injection armed
// (util/fault.h), any interleaving of mutations, cache reads and discovery
// runs either completes with the right answer or surfaces std::bad_alloc /
// fault::InducedAbort on the calling thread, whichever thread the fault
// hit. After every surfaced fault the cache still answers correctly: it is
// structurally equal to a from-scratch rebuild over the current rows (the
// failure-atomic flush and poisoned-entry recovery guarantees), and a
// disarmed discovery over it equals the brute-force reference.
//
// Randomized tests take their seed from FLEXREL_TEST_SEED (tests/
// seeded_suites.txt registers the soak for CI's fresh-seed rerun; the
// nightly chaos job sweeps 30 seeds under ASan+UBSan) and print it, so
// every failure is replayable from the log.

#include <gtest/gtest.h>

#include <memory>
#include <new>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/discovery.h"
#include "core/flexible_relation.h"
#include "engine/parallel_discovery.h"
#include "engine/pli_cache.h"
#include "engine_test_util.h"
#include "test_seed.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace flexrel {
namespace {

using testutil::MakePlantedFdInstance;
using testutil::RandomSoakTuple;
using testutil::RandomSoakValue;

uint64_t ChaosSeed(uint64_t salt) {
  return TestSeed(0xC4A05C4A05C4A050ull, salt, "chaos");
}

// Guard that disarms injection on every exit path — a soak assertion must
// never leave faults armed for the rest of the binary.
struct FaultArmed {
  explicit FaultArmed(uint64_t seed) { fault::Enable(seed); }
  ~FaultArmed() { fault::Disable(); }
};

// Runs `fn`, absorbing exactly the two injectable fault types. Returns
// true when a fault surfaced (the operation was abandoned mid-flight).
template <typename Fn>
bool AbsorbFaults(const Fn& fn) {
  try {
    fn();
  } catch (const std::bad_alloc&) {
    return true;
  } catch (const fault::InducedAbort&) {
    return true;
  }
  return false;
}

// Structural equality of every tracked structure against a from-scratch
// rebuild over the current rows — the chaos soak's postcondition after
// every survived fault. Must run with injection DISARMED (verification
// reads would otherwise inject too).
void VerifyCacheAgainstRebuild(const FlexibleRelation& rel,
                               const std::vector<AttrSet>& partitions,
                               const std::vector<AttrId>& columns,
                               const std::string& context) {
  ASSERT_FALSE(fault::Enabled()) << context;
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  PliCache rebuild(&rel.rows());
  for (const AttrSet& attrs : partitions) {
    std::shared_ptr<const Pli> survived = cache->Get(attrs);
    std::shared_ptr<const Pli> fresh = rebuild.Get(attrs);
    ASSERT_EQ(*survived, *fresh)
        << context << " partition " << attrs.ToString() << " diverged";
    std::string err;
    ASSERT_TRUE(survived->CheckInvariants(&err))
        << context << " partition " << attrs.ToString() << ": " << err;
  }
  for (AttrId attr : columns) {
    ASSERT_TRUE(testutil::ColumnsDecodeEqual(*cache->CodeColumnFor(attr),
                                             *rebuild.CodeColumnFor(attr)))
        << context << " code column of attr " << attr << " diverged";
  }
}

TEST(EngineChaosSoak, SurvivedFaultsLeaveCacheRebuildEquivalent) {
  const uint64_t base = ChaosSeed(1);
  uint64_t total_injected = 0;
  uint64_t total_survived = 0;
  for (uint64_t round = 0; round < 3; ++round) {
    Rng rng(base ^ (round * 0x9E3779B97F4A7C15ull));
    std::vector<AttrId> attrs;
    for (AttrId a = 0; a < 6; ++a) attrs.push_back(a);
    AttrSet universe;
    for (AttrId a : attrs) universe.Insert(a);

    FlexibleRelation rel =
        FlexibleRelation::Derived(StrCat("chaos", round), DependencySet());
    for (int i = 0; i < 60; ++i) {
      rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
    }
    std::vector<AttrSet> partitions;
    for (AttrId a : attrs) partitions.push_back(AttrSet::Of(a));
    partitions.push_back(AttrSet{attrs[0], attrs[1]});
    partitions.push_back(AttrSet{attrs[1], attrs[2]});
    partitions.push_back(AttrSet{attrs[2], attrs[3], attrs[4]});
    std::vector<AttrId> columns = {attrs[0], attrs[1], attrs[2]};
    std::shared_ptr<PliCache> cache = rel.pli_cache();
    for (const AttrSet& k : partitions) (void)cache->Get(k);
    for (AttrId a : columns) (void)cache->CodeColumnFor(a);

    const int kOps = 80;
    for (int op = 0; op < kOps; ++op) {
      // Fresh deterministic schedule per op (Enable resets per-site hit
      // counters, so reusing one seed would replay the same first faults
      // forever); the op index keeps it replayable from the logged base.
      const uint64_t op_seed =
          base ^ (round << 24) ^ (static_cast<uint64_t>(op) * 0x2545F491ull);
      bool faulted = false;
      {
        FaultArmed armed(op_seed);
        double dice = rng.UniformDouble();
        if (dice < 0.35) {
          Tuple t = RandomSoakTuple(attrs, &rng);
          faulted = AbsorbFaults([&] { rel.InsertUnchecked(std::move(t)); });
        } else if (dice < 0.60) {
          size_t row = rng.Index(rel.size());
          AttrId attr = attrs[rng.Index(attrs.size())];
          Value v = RandomSoakValue(&rng);
          faulted = AbsorbFaults([&] {
            auto delta = rel.Update(row, attr, v);
            ASSERT_TRUE(delta.ok()) << delta.status();
          });
        } else if (dice < 0.90) {
          const AttrSet& key = partitions[rng.Index(partitions.size())];
          faulted = AbsorbFaults([&] { (void)cache->Get(key); });
        } else {
          // Discovery under fire: the run owns its cache; faults at level
          // boundaries and partition builds surface here.
          DiscoveryOptions options;
          options.max_lhs_size = 2;
          options.num_threads = 1;
          faulted = AbsorbFaults(
              [&] { (void)EngineDiscoverFuncDeps(rel.rows(), universe,
                                                 options); });
        }
        total_injected += fault::Registry::Global().InjectedTotal();
      }
      if (faulted) ++total_survived;
      // Verify after every survived fault (injection now disarmed), and
      // periodically even on clean ops so swallowed flush aborts — which
      // surface no exception — are audited too.
      if (faulted || op % 16 == 15) {
        ASSERT_NO_FATAL_FAILURE(VerifyCacheAgainstRebuild(
            rel, partitions, columns,
            StrCat("round ", round, " op#", op, " seed ", op_seed)));
      }
    }
    ASSERT_NO_FATAL_FAILURE(VerifyCacheAgainstRebuild(
        rel, partitions, columns, StrCat("round ", round, " final")));
  }
  // ~1/8 of hits inject and every op passes several sites: a soak that
  // never injected is a broken harness, not a robust engine.
  EXPECT_GT(total_injected, 0u) << "fault injection never fired";
  EXPECT_GT(total_survived, 0u) << "no fault ever surfaced to the caller";
}

// Flush-arm faults are swallowed by drop-all recovery, so the read that
// flushes a mutation must never surface one — and the cache must still
// match a rebuild afterwards.
TEST(EngineChaosSoak, FlushFaultsRecoverWithoutSurfacing) {
  const uint64_t base = ChaosSeed(2);
  Rng rng(base);
  std::vector<AttrId> attrs;
  for (AttrId a = 0; a < 4; ++a) attrs.push_back(a);
  FlexibleRelation rel = FlexibleRelation::Derived("flush", DependencySet());
  for (int i = 0; i < 80; ++i) {
    rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  }
  std::vector<AttrSet> partitions = {AttrSet{attrs[0], attrs[1]},
                                     AttrSet{attrs[1], attrs[2]}};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (const AttrSet& k : partitions) (void)cache->Get(k);

  uint64_t flush_aborts = 0;
  for (int op = 0; op < 120; ++op) {
    {
      FaultArmed armed(base + op);
      size_t row = rng.Index(rel.size());
      AttrId attr = attrs[rng.Index(attrs.size())];
      auto delta = rel.Update(row, attr, RandomSoakValue(&rng));
      ASSERT_TRUE(delta.ok()) << delta.status();
      // The hook only buffered the delta; this read flushes it under
      // injection. Any fault inside the flush arms must be absorbed by the
      // drop-all recovery, never rethrown. Faults can still surface from
      // the *build* path (rebuilding a dropped entry), which is the
      // documented contract.
      (void)AbsorbFaults([&] { (void)cache->Get(partitions[op % 2]); });
    }
    flush_aborts = cache->Stats().flush_aborts;
    if (op % 20 == 19) {
      ASSERT_NO_FATAL_FAILURE(VerifyCacheAgainstRebuild(
          rel, partitions, {}, StrCat("flush op#", op)));
    }
  }
  ASSERT_NO_FATAL_FAILURE(
      VerifyCacheAgainstRebuild(rel, partitions, {}, "flush final"));
  EXPECT_GT(flush_aborts, 0u)
      << "the soak never exercised the failure-atomic flush recovery";
}

// The fault-site catalogue: after driving builds, flushes, and discovery
// under injection, the registry must know every site the issue names —
// a site that never registers means its code path lost instrumentation.
TEST(EngineChaosSoak, FaultSiteCatalogueCoversTheExecutionPlane) {
  const uint64_t base = ChaosSeed(3);
  Rng rng(base);
  std::vector<AttrId> attrs;
  for (AttrId a = 0; a < 5; ++a) attrs.push_back(a);
  AttrSet universe;
  for (AttrId a : attrs) universe.Insert(a);
  FlexibleRelation rel = FlexibleRelation::Derived("sites", DependencySet());
  for (int i = 0; i < 50; ++i) {
    rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (int op = 0; op < 60; ++op) {
    FaultArmed armed(base + op);
    (void)AbsorbFaults([&] { (void)cache->Get(AttrSet{attrs[0], attrs[1]}); });
    (void)AbsorbFaults([&] {
      (void)rel.Update(rng.Index(rel.size()), attrs[rng.Index(attrs.size())],
                       RandomSoakValue(&rng));
    });
    DiscoveryOptions options;
    options.max_lhs_size = 1;
    options.num_threads = 1;
    (void)AbsorbFaults(
        [&] { (void)EngineDiscoverAttrDeps(rel.rows(), universe, options); });
  }
  std::unordered_set<std::string> names;
  uint64_t hits = 0;
  for (const fault::Site* site : fault::Registry::Global().Sites()) {
    names.insert(site->name());
    hits += site->hits();
  }
  for (const char* expected :
       {"pli_cache.build", "pli_cache.flush.patch", "pli_cache.flush.commit",
        "discovery.level"}) {
    EXPECT_TRUE(names.count(expected) > 0)
        << "fault site '" << expected << "' never registered";
  }
  EXPECT_GT(hits, 0u);
}

// Worker faults: with four workers, a fault thrown inside any of them (a
// partition build on a pool thread, a level boundary on the calling one)
// must reach the caller as the injected exception after the pool drains,
// never terminate the process or yield a wrong answer, and leave the
// cache the run used able to answer a disarmed rerun exactly.
TEST(EngineChaosSoak, WorkerFaultsSurfaceFromParallelDiscovery) {
  const uint64_t base = ChaosSeed(4);
  Rng rng(base);
  auto instance = MakePlantedFdInstance(&rng, 200, 6, 2, 8, 0.1);
  DiscoveryOptions options;
  options.max_lhs_size = 2;
  options.num_threads = 4;
  const std::vector<FuncDep> reference =
      DiscoverFuncDeps(instance.rows, instance.universe, options);
  int surfaced = 0;
  for (uint64_t run = 0; run < 40; ++run) {
    const uint64_t run_seed = base ^ (run * 0x9E3779B97F4A7C15ull);
    PliCache cache(&instance.rows);
    std::vector<FuncDep> got;
    bool faulted = false;
    {
      FaultArmed armed(run_seed);
      faulted = AbsorbFaults([&] {
        got = EngineDiscoverFuncDeps(&cache, instance.universe, options);
      });
    }
    if (faulted) {
      ++surfaced;
    } else {
      EXPECT_EQ(got, reference) << "run " << run << " seed " << run_seed;
    }
    EXPECT_EQ(EngineDiscoverFuncDeps(&cache, instance.universe, options),
              reference)
        << "disarmed rerun after run " << run << " seed " << run_seed;
  }
  EXPECT_GT(surfaced, 0) << "no fault ever surfaced from the worker pool";
}

}  // namespace
}  // namespace flexrel
