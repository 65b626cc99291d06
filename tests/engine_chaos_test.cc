// Fault-tolerance soak for the execution plane: deadlines, cancellation
// and deterministic fault injection.
//
// Two contracts under test:
//
//  1. Chaos: with seeded fault injection armed (util/fault.h), any
//     interleaving of mutations, cache reads, and discovery runs either
//     completes or surfaces std::bad_alloc / fault::InducedAbort — and
//     after every survived fault the cache is structurally equal to a
//     from-scratch rebuild over the current rows (the failure-atomic flush
//     and poisoned-entry recovery guarantees).
//  2. Cooperative cancellation/deadlines: a tripped ExecContext makes
//     discovery return exactly the verified level prefix (flagged partial
//     with kCancelled / kDeadlineExceeded) and evaluation return the error
//     — with the per-run worker gauges reset.
//
// Randomized tests take their seed from FLEXREL_TEST_SEED (tests/
// seeded_suites.txt registers the soak for CI's fresh-seed rerun; the
// nightly chaos job sweeps 30 seeds under ASan+UBSan) and print it, so
// every failure is replayable from the log.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <new>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/evaluate.h"
#include "algebra/plan.h"
#include "core/flexible_relation.h"
#include "engine/parallel_discovery.h"
#include "engine/pli_cache.h"
#include "engine/validator.h"
#include "engine_test_util.h"
#include "telemetry/telemetry.h"
#include "test_seed.h"
#include "util/exec_context.h"
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

// ---------------------------------------------------------------------------
// 1. Seeded chaos soak: survive injected faults, stay rebuild-equivalent.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// 2. Cancellation and deadlines: verified-prefix partials, clean unwinds.
// ---------------------------------------------------------------------------

std::vector<FuncDep> PrefixOf(const std::vector<FuncDep>& full,
                              size_t max_lhs) {
  std::vector<FuncDep> out;
  for (const FuncDep& fd : full) {
    if (fd.lhs.size() <= max_lhs) out.push_back(fd);
  }
  return out;
}

TEST(ExecControlTest, CancelledDiscoveryReturnsExactVerifiedPrefix) {
  Rng rng(0xD15C0B3Bull);
  auto instance = MakePlantedFdInstance(&rng, 200, 12, 3, 8, 0.15);
  DiscoveryOptions options;
  options.max_lhs_size = 3;
  options.num_threads = 2;

  DiscoveryRunInfo full_info;
  std::vector<FuncDep> full = EngineDiscoverFuncDeps(
      instance.rows, instance.universe, options, &full_info);
  ASSERT_TRUE(full_info.status.ok());
  EXPECT_FALSE(full_info.partial);
  EXPECT_EQ(full_info.completed_levels, 3u);

  // Sweep the trip point across the whole run: for EVERY n the result must
  // be the full run restricted to the completed level prefix — a level
  // either lands whole or not at all, wherever the trip hits (between
  // levels, mid-candidate-batch, inside a partition scan).
  for (int64_t n : {0, 1, 2, 3, 7, 20, 100, 1000}) {
    CancellationToken token;
    token.CancelAfterChecks(n);
    ExecContext ctx;
    ctx.set_cancellation_token(&token);
    DiscoveryOptions cancelled = options;
    cancelled.exec = &ctx;
    DiscoveryRunInfo info;
    std::vector<FuncDep> got = EngineDiscoverFuncDeps(
        instance.rows, instance.universe, cancelled, &info);
    if (!info.partial) {
      // Trip armed past the run's total poll count: a complete result.
      EXPECT_EQ(got, full) << "n=" << n;
      continue;
    }
    EXPECT_EQ(info.status.code(), StatusCode::kCancelled) << "n=" << n;
    EXPECT_LT(info.completed_levels, 3u) << "n=" << n;
    EXPECT_EQ(got, PrefixOf(full, info.completed_levels))
        << "n=" << n << ": partial result is not the verified level prefix";
  }
}

TEST(ExecControlTest, ExpiredDeadlineStopsBeforeAnyLevel) {
  Rng rng(0xDEAD11F3ull);
  auto instance = MakePlantedFdInstance(&rng, 100, 9, 2);
  ExecContext ctx;
  ctx.set_deadline(ExecContext::Clock::now() - std::chrono::seconds(1));
  DiscoveryOptions options;
  options.max_lhs_size = 2;
  options.exec = &ctx;
  DiscoveryRunInfo info;
  std::vector<FuncDep> got = EngineDiscoverFuncDeps(
      instance.rows, instance.universe, options, &info);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(info.partial);
  EXPECT_EQ(info.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(info.completed_levels, 0u);

  // The merged entry point reports the min completed level and the first
  // non-OK status.
  DiscoveryRunInfo merged;
  DependencySet sigma = EngineDiscoverDependencies(
      instance.rows, instance.universe, options, &merged);
  EXPECT_TRUE(sigma.fds().empty());
  EXPECT_TRUE(sigma.ads().empty());
  EXPECT_TRUE(merged.partial);
  EXPECT_EQ(merged.completed_levels, 0u);
}

TEST(ExecControlTest, CancellationResetsRunGauges) {
  telemetry::Enable();
  telemetry::Registry::Global().Reset();
  Rng rng(0x9A00F3ull);
  auto instance = MakePlantedFdInstance(&rng, 150, 10, 2);
  PliCache cache(&instance.rows);
  DependencyValidator validator(&cache);

  CancellationToken token;
  token.CancelAfterChecks(5);  // mid-run: past the first level's poll
  ExecContext ctx;
  ctx.set_cancellation_token(&token);
  DiscoveryOptions options;
  options.max_lhs_size = 3;
  options.num_threads = 2;
  options.exec = &ctx;
  DiscoveryRunInfo info;
  (void)EngineDiscoverFuncDeps(&validator, instance.universe, options, &info);
  EXPECT_TRUE(info.partial);

  // The per-run worker gauges were reset on the abort path, so a cancelled
  // run cannot leave a stale utilization number for dashboards to read.
  EXPECT_EQ(telemetry::Registry::Global()
                .GetGauge("engine.discovery.worker_utilization_pct")
                ->value(),
            0);
  // The context counted its trip exactly once.
  EXPECT_EQ(telemetry::Registry::Global()
                .GetCounter("engine.exec.cancelled")
                ->value(),
            1u);
  telemetry::Registry::Global().Reset();
  telemetry::Disable();
}

TEST(ExecControlTest, EvaluationSurfacesCancellationAndDeadline) {
  Rng rng(0xEBA1ull);
  std::vector<AttrId> attrs = {0, 1, 2};
  FlexibleRelation rel = FlexibleRelation::Derived("eval", DependencySet());
  for (int i = 0; i < 40; ++i) {
    rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  }
  PlanPtr plan = Plan::NaturalJoin(Plan::Scan(&rel), Plan::Scan(&rel));

  // Sanity: the plan evaluates fine without a context.
  ASSERT_TRUE(Evaluate(plan).ok());

  CancellationToken token;
  token.RequestCancel();
  ExecContext ctx;
  ctx.set_cancellation_token(&token);
  EvalOptions options;
  options.exec = &ctx;
  auto cancelled = Evaluate(plan, options);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // Mid-evaluation trip: the first polls pass, a later one trips, and the
  // error still surfaces as the overall result.
  CancellationToken late;
  late.CancelAfterChecks(2);
  ExecContext late_ctx;
  late_ctx.set_cancellation_token(&late);
  EvalOptions late_options;
  late_options.exec = &late_ctx;
  auto late_result = Evaluate(plan, late_options);
  ASSERT_FALSE(late_result.ok());
  EXPECT_EQ(late_result.status().code(), StatusCode::kCancelled);

  ExecContext deadline_ctx;
  deadline_ctx.set_deadline(ExecContext::Clock::now() -
                            std::chrono::milliseconds(1));
  EvalOptions deadline_options;
  deadline_options.exec = &deadline_ctx;
  auto expired = Evaluate(plan, deadline_options);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace flexrel
