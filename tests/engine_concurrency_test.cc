// Concurrency soak for the COW snapshot plane (PliCache with
// PliCacheOptions::cow_reads, the default): N reader threads resolve cached
// partitions and code columns through the published snapshot while M
// writer threads mutate the relation, and every structure a reader
// observes must be internally coherent — CheckInvariants holds, and the
// column's buckets are exactly the single-attribute partition's clusters
// whenever both were bracketed inside one epoch. At quiesce, everything
// must equal a from-scratch rebuild, and COW mode must be structurally
// identical to the locked in-place oracle (cow_reads = false) across a
// 30-seed single-threaded soak.
//
// The reader threads deliberately touch only pre-warmed keys: the row
// vector itself is NOT under the snapshot contract (mutators synchronize
// rows() access externally, see src/engine/README.md), so a cold miss —
// which rebuilds from rows() — belongs to the write side. Warmed singles,
// pairs, and columns are never dropped by sub-threshold per-row flushes,
// so every reader access resolves against immutable snapshot structures.
// This is the suite the CI TSan job runs; a reader acquiring mu_ (or a
// writer publishing a structure it then patches) is a data-race report,
// not just an assertion failure.
//
// Randomized parts take their seed from FLEXREL_TEST_SEED (CI seed
// diversity) via tests/test_seed.h and print it for replay.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/flexible_relation.h"
#include "engine/pli_cache.h"
#include "engine_test_util.h"
#include "telemetry/telemetry.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace flexrel {
namespace {

uint64_t ConcurrencySeed(uint64_t salt) {
  return TestSeed(0xC0C0D0DE5EED0001ull, salt, "concurrency");
}

Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Value::Int(rng->UniformInt(0, 4));  // few values -> fat clusters
    case 1:
      return Value::Str(StrCat("s", rng->UniformInt(0, 2)));
    case 2:
      return Value::Null();
    default:
      return Value::Int(rng->UniformInt(0, 1000));  // mostly-unique tail
  }
}

Tuple RandomTuple(const std::vector<AttrId>& attrs, Rng* rng) {
  Tuple t;
  for (AttrId a : attrs) {
    if (rng->Bernoulli(0.75)) t.Set(a, RandomValue(rng));
  }
  return t;
}

using testutil::ColumnMatchesPartition;
using testutil::ColumnsDecodeEqual;

struct WarmKeys {
  std::vector<AttrSet> partitions;  // singles first, then composites
  std::vector<AttrId> columns;      // every attribute (partner-scan source)
};

WarmKeys WarmCache(PliCache* cache, const std::vector<AttrId>& attrs) {
  WarmKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[1]});
  keys.partitions.push_back(AttrSet{attrs[2], attrs[3]});
  keys.partitions.push_back(AttrSet{attrs[0], attrs[2], attrs[4]});
  keys.partitions.push_back(AttrSet());
  keys.columns = attrs;
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);
  return keys;
}

void VerifyAgainstRebuildAtQuiesce(const FlexibleRelation& rel,
                                   const WarmKeys& keys,
                                   const std::string& context) {
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  PliCache rebuild(&rel.rows());
  for (const AttrSet& k : keys.partitions) {
    std::shared_ptr<const Pli> cached = cache->Get(k);
    std::shared_ptr<const Pli> fresh = rebuild.Get(k);
    ASSERT_EQ(*cached, *fresh)
        << context << " partition " << k.ToString() << " diverged";
    std::string err;
    ASSERT_TRUE(cached->CheckInvariants(&err))
        << context << " partition " << k.ToString() << ": " << err;
    if (k.size() == 1) {
      ASSERT_TRUE(ColumnMatchesPartition(
          *cache->CodeColumnFor(k.ids().front()), *cached))
          << context << " column of " << k.ToString();
    }
  }
  for (AttrId a : keys.columns) {
    ASSERT_TRUE(ColumnsDecodeEqual(*cache->CodeColumnFor(a),
                                   *rebuild.CodeColumnFor(a)))
        << context << " code column of attr " << a << " diverged";
  }
}

// ---------------------------------------------------------------------------
// The tentpole contract: N readers × M writers, readers lock-free.
// ---------------------------------------------------------------------------

TEST(EngineConcurrencySoak, ReadersObserveCoherentSnapshotsUnderWriters) {
  telemetry::Enable();
  const uint64_t lock_waits_before =
      telemetry::CounterValue("engine.pli_cache.reader_lock_waits");
  const uint64_t seed = ConcurrencySeed(1);

  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 6; ++i) attrs.push_back(catalog.Intern(StrCat("c", i)));
  FlexibleRelation rel = FlexibleRelation::Derived("cc", DependencySet());
  {
    Rng seed_rng(seed);
    for (int i = 0; i < 200; ++i) {
      rel.InsertUnchecked(RandomTuple(attrs, &seed_rng));
    }
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  ASSERT_TRUE(cache->options().cow_reads);
  const WarmKeys keys = WarmCache(cache.get(), attrs);
  ASSERT_GT(cache->SnapshotEpoch(), 0u) << "warming must have published";

  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 300;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bracketed_checks{0};

  // Writers synchronize the row vector among themselves — that is the
  // documented external contract; the snapshot plane only covers the
  // cached structures readers resolve.
  std::mutex write_mu;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(seed ^ (0x5151u + static_cast<uint64_t>(w) * 7919));
      for (int op = 0; op < kOpsPerWriter; ++op) {
        std::lock_guard<std::mutex> lock(write_mu);
        if (rng.Bernoulli(0.3)) {
          rel.InsertUnchecked(RandomTuple(attrs, &rng));
        } else {
          size_t row = rng.Index(rel.size());
          AttrId attr = attrs[rng.Index(attrs.size())];
          Value v = RandomValue(&rng);
          ASSERT_TRUE(rel.Update(row, attr, v).ok());
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(seed ^ (0xAAAAu + static_cast<uint64_t>(r) * 104729));
      // The iteration floor keeps the soak meaningful even when the writers
      // outrun reader startup: post-quiesce reads always bracket cleanly.
      for (uint64_t iter = 0;
           !done.load(std::memory_order_acquire) || iter < 50; ++iter) {
        const AttrSet& key =
            keys.partitions[rng.Index(keys.partitions.size())];
        // Epoch-bracketing: equal epochs before and after prove the pli
        // and the column came from one snapshot — only then is the
        // column↔cluster consistency a valid cross-structure assertion.
        const uint64_t epoch_before = cache->SnapshotEpoch();
        std::shared_ptr<const Pli> pli = cache->Get(key);
        std::string err;
        EXPECT_TRUE(pli->CheckInvariants(&err))
            << "reader " << r << " partition " << key.ToString() << ": "
            << err;
        if (key.size() == 1) {
          std::shared_ptr<const CodeColumn> column =
              cache->CodeColumnFor(key.ids().front());
          if (cache->SnapshotEpoch() == epoch_before) {
            ASSERT_TRUE(ColumnMatchesPartition(*column, *pli))
                << "reader " << r << " column of " << key.ToString();
            bracketed_checks.fetch_add(1, std::memory_order_relaxed);
          }
        }
        (void)cache->CodeColumnFor(
            keys.columns[rng.Index(keys.columns.size())]);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_GT(bracketed_checks.load(), 0u)
      << "the soak never caught a quiet epoch; weaken the write storm";
  ASSERT_NO_FATAL_FAILURE(
      VerifyAgainstRebuildAtQuiesce(rel, keys, "quiesce"));

  const PliCache::StatsSnapshot stats = cache->Stats();
  EXPECT_EQ(stats.publishes, stats.flushes)
      << "COW mode must publish exactly once per flush";
  EXPECT_GT(stats.publishes, 0u);
  EXPECT_GE(stats.epoch, stats.publishes);
  EXPECT_EQ(stats.pending_deltas, 0u) << "COW hooks flush eagerly";
  // The lock-free guarantee, as a counter identity: no snapshot read ever
  // took mu_. (Locked-mode reads bump this by design — see the locked-mode
  // oracle test below.)
  EXPECT_EQ(telemetry::CounterValue("engine.pli_cache.reader_lock_waits"),
            lock_waits_before)
      << "a COW-mode snapshot read acquired the cache mutex";
  telemetry::Disable();
}

// ---------------------------------------------------------------------------
// COW vs the locked in-place oracle: structurally identical, 30 seeds.
// ---------------------------------------------------------------------------

TEST(EngineConcurrencySoak, CowModeMatchesLockedOracleAcrossSeeds) {
  const uint64_t base = ConcurrencySeed(2);
  for (uint64_t s = 0; s < 30; ++s) {
    Rng rng(base + s * 0x9E3779B97F4A7C15ull);
    AttrCatalog catalog;
    std::vector<AttrId> attrs;
    for (int i = 0; i < 5; ++i) {
      attrs.push_back(catalog.Intern(StrCat("d", i)));
    }
    FlexibleRelation cow = FlexibleRelation::Derived("cow", DependencySet());
    FlexibleRelation locked =
        FlexibleRelation::Derived("locked", DependencySet());
    PliCacheOptions locked_options;
    locked_options.cow_reads = false;
    locked.SetPliCacheOptions(locked_options);

    for (int i = 0; i < 40; ++i) {
      Tuple t = RandomTuple(attrs, &rng);
      cow.InsertUnchecked(t);
      locked.InsertUnchecked(std::move(t));
    }
    WarmKeys cow_keys = WarmCache(cow.pli_cache().get(), attrs);
    (void)WarmCache(locked.pli_cache().get(), attrs);

    for (int op = 0; op < 60; ++op) {
      if (rng.Bernoulli(0.5)) {
        Tuple t = RandomTuple(attrs, &rng);
        cow.InsertUnchecked(t);
        locked.InsertUnchecked(std::move(t));
      } else {
        size_t row = rng.Index(cow.size());
        AttrId attr = attrs[rng.Index(attrs.size())];
        Value v = RandomValue(&rng);
        ASSERT_TRUE(cow.Update(row, attr, v).ok()) << "seed#" << s;
        ASSERT_TRUE(locked.Update(row, attr, v).ok()) << "seed#" << s;
      }
      if (op % 12 == 11) {
        std::shared_ptr<PliCache> lhs = cow.pli_cache();
        std::shared_ptr<PliCache> rhs = locked.pli_cache();
        for (const AttrSet& k : cow_keys.partitions) {
          ASSERT_EQ(*lhs->Get(k), *rhs->Get(k))
              << "seed#" << s << " op#" << op << " partition "
              << k.ToString();
        }
        for (AttrId a : cow_keys.columns) {
          ASSERT_TRUE(ColumnsDecodeEqual(*lhs->CodeColumnFor(a),
                                         *rhs->CodeColumnFor(a)))
              << "seed#" << s << " op#" << op << " column attr " << a;
        }
      }
    }
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuildAtQuiesce(
        cow, cow_keys, StrCat("seed#", s, " cow quiesce")));

    // Mode-defining counter identities, both directions.
    const PliCache::StatsSnapshot cs = cow.pli_cache()->Stats();
    const PliCache::StatsSnapshot ls = locked.pli_cache()->Stats();
    ASSERT_EQ(cs.publishes, cs.flushes) << "seed#" << s;
    ASSERT_GT(cs.publishes, 0u) << "seed#" << s;
    ASSERT_EQ(ls.publishes, 0u)
        << "seed#" << s << " locked mode must never publish";
    ASSERT_EQ(ls.epoch, 0u) << "seed#" << s;
    ASSERT_EQ(cow.pli_cache()->SnapshotEpoch(), cs.epoch) << "seed#" << s;
    ASSERT_EQ(locked.pli_cache()->SnapshotEpoch(), 0u) << "seed#" << s;
  }
}

// ---------------------------------------------------------------------------
// Frozen-at-epoch semantics: a held snapshot structure never moves.
// ---------------------------------------------------------------------------

TEST(EngineConcurrencySoak, HeldSnapshotStructuresAreFrozenAcrossEpochs) {
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  FlexibleRelation rel = FlexibleRelation::Derived("frozen", DependencySet());
  for (int i = 0; i < 8; ++i) {
    Tuple t;
    t.Set(a, Value::Int(i % 2));
    rel.InsertUnchecked(t);
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  std::shared_ptr<const Pli> held = cache->Get(AttrSet::Of(a));
  const Pli before = *held;  // deep copy: the frozen-state oracle
  const uint64_t epoch_before = cache->SnapshotEpoch();

  ASSERT_TRUE(rel.Update(0, a, Value::Int(41)).ok());
  ASSERT_TRUE(rel.Update(1, a, Value::Int(42)).ok());

  // The held pointer still describes the epoch it was read from...
  EXPECT_EQ(*held, before)
      << "a published partition was patched in place under a reader";
  EXPECT_GT(cache->SnapshotEpoch(), epoch_before);
  // ...while a re-read resolves the successor epoch's structure.
  std::shared_ptr<const Pli> fresh = cache->Get(AttrSet::Of(a));
  EXPECT_NE(fresh.get(), held.get());
  PliCache rebuild(&rel.rows());
  EXPECT_EQ(*fresh, *rebuild.Get(AttrSet::Of(a)));
}

}  // namespace
}  // namespace flexrel
