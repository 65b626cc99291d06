// Concurrency soak for the PliCache's locked contract: many threads may read
// one cache over a quiescent relation, and mutations are serialized against
// every reader by the caller. Each round, N reader threads cold-populate and
// hit overlapping partition keys and code columns at once, under a
// max_entries bound small enough that LRU evictions race in-flight builds
// (shared-future dedup, poisoned-slot recovery and eviction all run under
// contention). Between rounds a single-threaded ApplyBatch phase mutates the
// relation with a burst sized for one flush shape — a small update-only
// splice (which keeps the partitions it does not touch), a large splice
// with an append (which drops every partition), or drop-everything, in
// rotation — and the next read flushes it. After every reader round and
// every mutation phase, each key must equal a from-scratch rebuild and
// satisfy CheckInvariants.
//
// This is the suite the CI TSan job runs: a reader touching cache state
// outside mu_, or a flush racing a reader, is a data-race report, not just
// an assertion failure.
//
// Randomized parts take their seed from FLEXREL_TEST_SEED (CI seed
// diversity) via tests/test_seed.h and print it for replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/flexible_relation.h"
#include "engine/pli_cache.h"
#include "engine_test_util.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace flexrel {
namespace {

using testutil::ColumnMatchesPartition;
using testutil::ColumnsDecodeEqual;
using testutil::RandomSoakTuple;
using testutil::RandomSoakValue;

uint64_t ConcurrencySeed(uint64_t salt) {
  return TestSeed(0xC0C0D0DE5EED0001ull, salt, "concurrency");
}

constexpr AttrId kNumAttrs = 6;
// Carries a fresh value on every inserted row, so batch inserts never trip
// set semantics; it is never part of a cache key.
constexpr AttrId kRowIdAttr = kNumAttrs;

struct Keys {
  std::vector<AttrSet> partitions;  // singles, overlapping composites, ∅
  std::vector<AttrId> columns;
};

Keys MakeKeys() {
  Keys keys;
  for (AttrId a = 0; a < kNumAttrs; ++a) {
    keys.partitions.push_back(AttrSet::Of(a));
    keys.columns.push_back(a);
  }
  // Composites sharing prefixes, so concurrent builds recurse into (and
  // wait on) each other's sub-partitions. Pairs come last: a walk over the
  // keys leaves them cached, so a small splice keeps the pairs it does not
  // touch.
  for (AttrSet k : {AttrSet{0, 1, 2, 3}, AttrSet{0, 1, 2}, AttrSet{0, 2, 4},
                    AttrSet{1, 3, 5}, AttrSet{0, 1}, AttrSet{0, 2},
                    AttrSet{1, 2}, AttrSet{2, 3}, AttrSet{3, 4},
                    AttrSet{4, 5}}) {
    keys.partitions.push_back(k);
  }
  keys.partitions.push_back(AttrSet());
  return keys;
}

// Walks `partitions` in the given order, so a caller can check the entries
// a flush just kept before the walk's own misses evict them.
void VerifyAgainstRebuild(const FlexibleRelation& rel,
                          const std::vector<AttrSet>& partitions,
                          const Keys& keys, const std::string& context) {
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  PliCache rebuild(&rel.rows());
  for (const AttrSet& k : partitions) {
    std::shared_ptr<const Pli> cached = cache->Get(k);
    ASSERT_EQ(*cached, *rebuild.Get(k))
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

// N threads hammer overlapping keys of the quiescent relation's cache; each
// fetched structure must be internally coherent.
void ConcurrentReaderRound(const FlexibleRelation& rel, const Keys& keys,
                           uint64_t seed) {
  constexpr int kReaders = 4;
  constexpr int kOpsPerReader = 150;
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(seed ^ (0xAAAAu + static_cast<uint64_t>(r) * 104729));
      for (int op = 0; op < kOpsPerReader; ++op) {
        const AttrSet& key =
            keys.partitions[rng.Index(keys.partitions.size())];
        std::shared_ptr<const Pli> pli = cache->Get(key);
        std::string err;
        EXPECT_TRUE(pli->CheckInvariants(&err))
            << "reader " << r << " partition " << key.ToString() << ": "
            << err;
        if (key.size() == 1) {
          // Nothing mutates during the round, so a column and its
          // single-attribute partition describe the same instance.
          EXPECT_TRUE(ColumnMatchesPartition(
              *cache->CodeColumnFor(key.ids().front()), *pli))
              << "reader " << r << " column of " << key.ToString();
        }
        (void)cache->CodeColumnFor(
            keys.columns[rng.Index(keys.columns.size())]);
      }
    });
  }
  for (std::thread& t : readers) t.join();
}

enum class Arm { kSmallBatch, kLargeBatch, kDrop };

// One transactional batch sized for `arm` under `options`: a net burst of
// 1-2 updates, of 16-19 updates plus one append, or of at least drop_at
// updates. Updates write fresh values to distinct rows, so none nets out of
// the burst.
std::vector<FlexibleRelation::Mutation> BurstFor(
    Arm arm, const FlexibleRelation& rel, const PliCacheOptions& options,
    Rng* rng, int64_t* next_id) {
  const size_t drop_at = std::max(options.drop_threshold, rel.size() / 2);
  size_t updates = 0;
  size_t inserts = 0;
  switch (arm) {
    case Arm::kSmallBatch:
      updates = 1 + rng->Index(2);
      break;
    case Arm::kLargeBatch:
      updates = 16 + rng->Index(4);
      inserts = 1;
      break;
    case Arm::kDrop:
      updates = drop_at;
      break;
  }
  std::vector<size_t> rows(rel.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  for (size_t i = 0; i < updates; ++i) {
    std::swap(rows[i], rows[i + rng->Index(rows.size() - i)]);
  }
  std::vector<FlexibleRelation::Mutation> batch;
  for (size_t i = 0; i < updates; ++i) {
    AttrId attr = static_cast<AttrId>(rng->Index(kNumAttrs));
    Value v = rng->Bernoulli(0.5) ? RandomSoakValue(rng)
                                  : Value::Int(1000000 + (*next_id)++);
    if (const Value* old = rel.row(rows[i]).Get(attr); old != nullptr &&
                                                        *old == v) {
      v = Value::Int(1000000 + (*next_id)++);
    }
    batch.push_back(FlexibleRelation::Mutation::Update(rows[i], attr, v));
  }
  std::vector<AttrId> attrs(kNumAttrs);
  std::iota(attrs.begin(), attrs.end(), AttrId{0});
  for (size_t i = 0; i < inserts; ++i) {
    Tuple t = RandomSoakTuple(attrs, rng);
    t.Set(kRowIdAttr, Value::Int((*next_id)++));
    batch.push_back(FlexibleRelation::Mutation::Insert(std::move(t)));
  }
  return batch;
}

TEST(EngineConcurrencySoak, ConcurrentReadersMatchRebuildAcrossFlushArms) {
  const uint64_t base = ConcurrencySeed(1);
  const Keys keys = MakeKeys();
  for (uint64_t s = 0; s < 4; ++s) {
    const uint64_t seed = base + s * 0x9E3779B97F4A7C15ull;
    Rng rng(seed);
    std::vector<AttrId> attrs(kNumAttrs);
    std::iota(attrs.begin(), attrs.end(), AttrId{0});

    FlexibleRelation rel = FlexibleRelation::Derived("cc", DependencySet());
    PliCacheOptions options;
    options.max_entries = 3;      // well below the 10 composites: evictions
                                  // race the builds of the reader rounds
    options.drop_threshold = 64;  // reachable drop arm on a small instance
    rel.SetPliCacheOptions(options);
    int64_t next_id = 0;
    for (int i = 0; i < 400; ++i) {
      Tuple t = RandomSoakTuple(attrs, &rng);
      t.Set(kRowIdAttr, Value::Int(next_id++));
      rel.InsertUnchecked(std::move(t));
    }
    std::shared_ptr<PliCache> cache = rel.pli_cache();

    for (int round = 0; round < 6; ++round) {
      const std::string context = StrCat("seed#", s, " round ", round);
      ConcurrentReaderRound(rel, keys, seed + static_cast<uint64_t>(round));
      ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(
          rel, keys.partitions, keys, StrCat(context, " readers")));

      const Arm arm = static_cast<Arm>(round % 3);
      const PliCache::StatsSnapshot before = cache->Stats();
      ASSERT_TRUE(
          rel.ApplyBatch(BurstFor(arm, rel, options, &rng, &next_id)).ok())
          << context;
      EXPECT_GT(cache->Stats().pending_deltas, 0u)
          << context << " hooks must only buffer";
      // The walk above left its last composites — the pairs — cached, so a
      // small splice keeps those it does not touch; check them first,
      // before this walk's own misses evict them.
      ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(
          rel, {keys.partitions.rbegin(), keys.partitions.rend()}, keys,
          StrCat(context, " batch")));
      const PliCache::StatsSnapshot after = cache->Stats();
      EXPECT_EQ(after.pending_deltas, 0u) << context;
      EXPECT_EQ(after.flushes, before.flushes + 1) << context;
      if (arm == Arm::kDrop) {
        EXPECT_EQ(after.full_drops, before.full_drops + 1) << context;
      } else {
        EXPECT_GT(after.batch_applies, before.batch_applies) << context;
        EXPECT_EQ(after.full_drops, before.full_drops) << context;
      }
    }
    EXPECT_GT(cache->Stats().evictions, 0u)
        << "seed#" << s << ": max_entries never forced an eviction";
  }
}

}  // namespace
}  // namespace flexrel
