// Mutation soak for incremental cache maintenance: the PliCache hooks
// buffer each mutation, and the next read splices the code columns
// (CodeColumn::ApplyBatch) and drops the partitions the burst touches,
// which the next Get rebuilds from the spliced columns.
//
// The contract under test: after ANY interleaving of Insert /
// InsertUnchecked / Update with Get / CodeColumnFor queries, every cached
// partition and code column describes the same instance as a from-scratch
// rebuild over the mutated rows — clusters (canonical form, so
// Pli::operator== is exact), defined_rows, grouped_rows and NumDistinct all
// agree, columns decode to the same value -> rows map. The oracle is a fresh
// PliCache over the same rows: it builds every structure from scratch, which
// is all a drop-everything cache would do on its next read.
//
// Randomized tests take their seed from the FLEXREL_TEST_SEED environment
// variable when set (CI's seed-diversity step passes the run id) and print
// it, so every failure is replayable from the log.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/pli_cache.h"
#include "engine_test_util.h"
#include "telemetry/telemetry.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace flexrel {
namespace {

using testutil::ApplyRandomEmployeeMutation;
using testutil::ColumnMatchesPartition;
using testutil::ColumnsDecodeEqual;
using testutil::RandomSoakTuple;
using testutil::RandomSoakValue;
using testutil::SoakEmployeeConfig;

uint64_t SoakSeed(uint64_t salt) {
  return TestSeed(0xF1E37A11DEADBEEFull, salt, "soak");
}

// ---------------------------------------------------------------------------
// Randomized mutation soak over an untyped (derived) relation.
// ---------------------------------------------------------------------------

struct SoakKeys {
  std::vector<AttrSet> partitions;
  std::vector<AttrId> columns;
};

// Asserts every tracked structure of `rel`'s attached cache equals a
// from-scratch rebuild over the current rows — clusters, counters, arena
// invariants, and the code columns (decoded, and as the probes of their
// single-attribute partitions).
void VerifyAgainstRebuild(const FlexibleRelation& rel, const SoakKeys& keys,
                          const std::string& context) {
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  PliCache rebuild(&rel.rows());
  for (const AttrSet& attrs : keys.partitions) {
    std::shared_ptr<const Pli> cached = cache->Get(attrs);
    std::shared_ptr<const Pli> fresh = rebuild.Get(attrs);
    ASSERT_EQ(*cached, *fresh)
        << context << " partition " << attrs.ToString() << " diverged";
    EXPECT_EQ(cached->defined_rows(), fresh->defined_rows())
        << context << " defined_rows of " << attrs.ToString();
    EXPECT_EQ(cached->grouped_rows(), fresh->grouped_rows())
        << context << " grouped_rows of " << attrs.ToString();
    EXPECT_EQ(cached->NumDistinct(), fresh->NumDistinct())
        << context << " NumDistinct of " << attrs.ToString();
    std::string err;
    ASSERT_TRUE(cached->CheckInvariants(&err))
        << context << " partition " << attrs.ToString() << ": " << err;
    // A single-attribute partition's column is the probe every product
    // with the attribute refines by: its buckets must be the clusters.
    if (attrs.size() == 1) {
      ASSERT_TRUE(ColumnMatchesPartition(
          *cache->CodeColumnFor(attrs.ids().front()), *cached))
          << context << " column of " << attrs.ToString();
    }
  }
  for (AttrId attr : keys.columns) {
    ASSERT_TRUE(ColumnsDecodeEqual(*cache->CodeColumnFor(attr),
                                   *rebuild.CodeColumnFor(attr)))
        << context << " code column of attr " << attr << " diverged";
  }
}

TEST(EngineIncrementalSoak, DerivedRelationPatchesMatchRebuilds) {
  Rng rng(SoakSeed(1));
  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 6; ++i) attrs.push_back(catalog.Intern(StrCat("a", i)));

  FlexibleRelation rel = FlexibleRelation::Derived("soak", DependencySet());
  for (int i = 0; i < 60; ++i) rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));

  // Warm the cache: singles, pairs, a triple, the ∅-partition, and columns.
  SoakKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[1]});
  keys.partitions.push_back(AttrSet{attrs[1], attrs[2]});
  keys.partitions.push_back(AttrSet{attrs[0], attrs[2], attrs[3]});
  keys.partitions.push_back(AttrSet());
  keys.columns = {attrs[0], attrs[1], attrs[2], attrs[3]};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);

  const int kOps = 300;
  for (int op = 0; op < kOps; ++op) {
    double dice = rng.UniformDouble();
    std::string what;
    if (dice < 0.40) {
      rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
      what = "insert-unchecked";
    } else if (dice < 0.55) {
      // Checked insert: duplicates bounce off set semantics — both the
      // accepted and the rejected path must leave the cache coherent.
      Status s = rel.Insert(RandomSoakTuple(attrs, &rng));
      what = StrCat("insert(", s.ok() ? "ok" : "dup", ")");
    } else {
      size_t row = rng.Index(rel.size());
      AttrId attr = attrs[rng.Index(attrs.size())];
      auto delta = rel.Update(row, attr, RandomSoakValue(&rng));
      ASSERT_TRUE(delta.ok()) << delta.status();
      what = StrCat("update(row=", row, ",attr=", attr, ")");
    }
    // Grow the tracked key set mid-soak: new partitions assemble out of
    // *spliced* columns and join the checked set from then on.
    if (op % 40 == 17) {
      AttrSet fresh_key{attrs[rng.Index(attrs.size())],
                        attrs[rng.Index(attrs.size())]};
      (void)cache->Get(fresh_key);
      keys.partitions.push_back(fresh_key);
    }
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(
        rel, keys, StrCat("op#", op, " [", what, "]")));
  }
  // The soak must have exercised the splice, not silently rebuilt.
  EXPECT_GT(cache->Stats().batch_applies, 0u);
  EXPECT_EQ(cache.get(), rel.pli_cache().get())
      << "incremental mode must keep the attached cache alive";
}

// ---------------------------------------------------------------------------
// What a flush keeps: the spliced columns and the untouched partitions.
// ---------------------------------------------------------------------------

// An update of attribute a drops exactly the partitions over a: {a} and
// {a, b} are misses rebuilt from the spliced column, while {c} is a hit on
// the very object built before the update.
TEST(PliCacheFlushTest, UpdateDropsOnlyTheTouchedPartitions) {
  AttrCatalog catalog;
  const AttrId a = catalog.Intern("a");
  const AttrId b = catalog.Intern("b");
  const AttrId c = catalog.Intern("c");
  FlexibleRelation rel = FlexibleRelation::Derived("touch", DependencySet());
  for (int i = 0; i < 12; ++i) {
    Tuple t;
    t.Set(a, Value::Int(i % 3));
    t.Set(b, Value::Int(i % 2));
    t.Set(c, Value::Int(i % 4));
    rel.InsertUnchecked(t);
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  const AttrSet key_a = AttrSet::Of(a);
  const AttrSet key_ab{a, b};
  const AttrSet key_c = AttrSet::Of(c);
  const std::shared_ptr<const Pli> before_a = cache->Get(key_a);
  const std::shared_ptr<const Pli> before_ab = cache->Get(key_ab);
  const std::shared_ptr<const Pli> before_c = cache->Get(key_c);

  ASSERT_TRUE(rel.Update(0, a, Value::Int(2)).ok());
  const PliCache::StatsSnapshot before = cache->Stats();
  for (const auto& [key, held] :
       {std::pair{key_a, before_a}, std::pair{key_ab, before_ab}}) {
    const size_t misses = cache->Stats().misses;
    const std::shared_ptr<const Pli> after = cache->Get(key);
    EXPECT_EQ(cache->Stats().misses, misses + 1)
        << key.ToString() << " must be rebuilt";
    EXPECT_NE(after.get(), held.get()) << key.ToString();
    EXPECT_EQ(*after, Pli::Build(rel.rows(), key)) << key.ToString();
  }
  const size_t hits = cache->Stats().hits;
  const std::shared_ptr<const Pli> after_c = cache->Get(key_c);
  EXPECT_EQ(cache->Stats().hits, hits + 1);
  EXPECT_EQ(after_c.get(), before_c.get())
      << "a partition the burst did not touch must survive the flush";
  EXPECT_EQ(*after_c, Pli::Build(rel.rows(), key_c));
  const PliCache::StatsSnapshot after = cache->Stats();
  EXPECT_EQ(after.patch_rebuilds, before.patch_rebuilds + 2);
  EXPECT_EQ(after.batch_applies, before.batch_applies + 1)
      << "only a's column is spliced";
}

// An append moves every partition's row count, so the flush drops them
// all — the ∅-partition and the partition over an attribute the new row
// lacks included — and each rebuild from the spliced columns equals a
// fresh cache's, through a later update too.
TEST(PliCacheFlushTest, InsertDropsEveryCachedPartition) {
  AttrCatalog catalog;
  const AttrId a = catalog.Intern("a");
  const AttrId b = catalog.Intern("b");
  const AttrId uniq = catalog.Intern("uniq");
  FlexibleRelation rel = FlexibleRelation::Derived("fat", DependencySet());
  for (int i = 0; i < 12; ++i) {
    Tuple t;
    t.Set(a, Value::Int(1));
    t.Set(b, Value::Int(2));
    t.Set(uniq, Value::Int(i));  // keeps tuples distinct
    rel.InsertUnchecked(t);
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  const std::vector<AttrSet> keys = {AttrSet::Of(a), AttrSet{a, b},
                                     AttrSet::Of(uniq), AttrSet()};
  for (const AttrSet& k : keys) (void)cache->Get(k);
  const PliCache::StatsSnapshot before = cache->Stats();
  ASSERT_EQ(before.cached_entries, keys.size());

  Tuple t;
  t.Set(a, Value::Int(1));
  t.Set(b, Value::Int(2));
  rel.InsertUnchecked(t);
  PliCache fresh(&rel.rows());
  for (const AttrSet& k : keys) {
    EXPECT_EQ(*cache->Get(k), *fresh.Get(k)) << k.ToString();
  }
  EXPECT_EQ(cache->Stats().patch_rebuilds,
            before.patch_rebuilds + keys.size());
  EXPECT_TRUE(ColumnsDecodeEqual(*cache->CodeColumnFor(uniq),
                                 *fresh.CodeColumnFor(uniq)));

  ASSERT_TRUE(rel.Update(0, b, Value::Int(7)).ok());
  PliCache fresh2(&rel.rows());
  for (const AttrSet& k : keys) {
    EXPECT_EQ(*cache->Get(k), *fresh2.Get(k)) << k.ToString();
  }
}

// ---------------------------------------------------------------------------
// Re-interning mid-stream: products probe by the recoded column.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, ReinternMidStreamKeepsProductsRebuildEqual) {
  // Strip churn leaves dead codes behind: each strip moves one carrier of
  // every cluster to a fresh value, each un-strip moves it back and kills
  // those values. Past 2:1 dead-to-live (and the slack floor) the flush
  // re-interns the column — after the last partner read, so the products
  // that probe by its codes must stay rebuild-equal across the recode,
  // whether the churn arrives as row-at-a-time updates or UpdateRows.
  AttrCatalog catalog;
  const AttrId g = catalog.Intern("g");  // ids ascend with intern order, so
  const AttrId h = catalog.Intern("h");  // {g, h} probes by h's column
  const AttrId uniq = catalog.Intern("uniq");
  FlexibleRelation rel = FlexibleRelation::Derived("reintern", DependencySet());
  constexpr int kClusters = 120;
  for (int i = 0; i < kClusters; ++i) {
    for (int j = 0; j < 2; ++j) {
      Tuple t;
      t.Set(g, Value::Int(i % 7));
      t.Set(h, Value::Int(i));
      t.Set(uniq, Value::Int(i * 2 + j));
      rel.InsertUnchecked(t);
    }
  }
  SoakKeys keys;
  keys.partitions = {AttrSet::Of(g), AttrSet::Of(h), AttrSet{g, h},
                     AttrSet{h, uniq}, AttrSet{g, h, uniq}};
  keys.columns = {g, h, uniq};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  const uint64_t generation0 = cache->CodeColumnFor(h)->generation();

  constexpr int kChurn = 110;
  auto churn = [&](int64_t base, bool batched, const std::string& what) {
    std::vector<FlexibleRelation::UpdateSpec> updates;
    for (int i = 0; i < kChurn; ++i) {
      Value v = Value::Int(base == 0 ? i : base + i);
      if (batched) {
        updates.push_back({static_cast<size_t>(2 * i), h, v, Tuple()});
      } else {
        ASSERT_TRUE(rel.Update(2 * i, h, v).ok());
      }
    }
    if (batched) ASSERT_TRUE(rel.UpdateRows(std::move(updates)).ok());
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, what));
  };
  for (int cycle = 0; cycle < 4; ++cycle) {
    const bool batched = cycle >= 2;
    ASSERT_NO_FATAL_FAILURE(churn(10000 * (cycle + 1), batched,
                                  StrCat("strip#", cycle)));
    ASSERT_NO_FATAL_FAILURE(churn(0, batched, StrCat("unstrip#", cycle)));
  }
  // One re-intern fires on the second row-at-a-time un-strip, one on the
  // second UpdateRows un-strip.
  EXPECT_GE(cache->CodeColumnFor(h)->generation(), generation0 + 2)
      << "the churn never pushed the column past its re-intern threshold";
  EXPECT_LE(cache->CodeColumnFor(h)->code_bound(), 2u * kClusters + 64)
      << "dead codes must not accumulate past the re-intern bound";
}

// ---------------------------------------------------------------------------
// Reads interleaved with every mutation, each checked against the
// drop-everything oracle: a fresh cache over the same rows.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, IncrementalModeMatchesDropEverythingOracle) {
  Rng rng(SoakSeed(2));
  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 5; ++i) attrs.push_back(catalog.Intern(StrCat("b", i)));

  FlexibleRelation rel = FlexibleRelation::Derived("inc", DependencySet());
  SoakKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[3]});
  keys.partitions.push_back(AttrSet{attrs[1], attrs[2], attrs[4]});
  keys.columns = {attrs[0], attrs[2], attrs[4]};
  std::shared_ptr<PliCache> cache = rel.pli_cache();

  for (int op = 0; op < 250; ++op) {
    if (rng.Bernoulli(0.5) || rel.empty()) {
      rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
    } else {
      size_t row = rng.Index(rel.size());
      AttrId attr = attrs[rng.Index(attrs.size())];
      ASSERT_TRUE(rel.Update(row, attr, RandomSoakValue(&rng)).ok());
    }
    ASSERT_NO_FATAL_FAILURE(
        VerifyAgainstRebuild(rel, keys, StrCat("op#", op)));
  }
  // The attached cache was maintained, not dropped and rebuilt.
  EXPECT_GT(cache->Stats().batch_applies, 0u);
  EXPECT_EQ(cache.get(), rel.pli_cache().get());
}

// ---------------------------------------------------------------------------
// Typed soak: footnote-3 type changes arrive as multi-attribute deltas.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, TypedUpdatesWithTypeChangesPatchCorrectly) {
  uint64_t seed = SoakSeed(3);
  auto w = MakeEmployeeWorkload(SoakEmployeeConfig(seed, 80, 3));
  ASSERT_TRUE(w.ok()) << w.status();
  EmployeeWorkload& workload = *w.value();
  FlexibleRelation& rel = workload.relation;
  Rng rng(seed ^ 0xABCDEF);

  SoakKeys keys;
  keys.partitions.push_back(AttrSet::Of(workload.id_attr));
  keys.partitions.push_back(AttrSet::Of(workload.jobtype_attr));
  for (AttrId a : workload.common_attrs) {
    keys.partitions.push_back(AttrSet::Of(a));
  }
  AttrId first_variant_attr = 0;
  for (const auto& variant : workload.eads[0].variants()) {
    for (AttrId a : variant.then) {
      keys.partitions.push_back(AttrSet::Of(a));
      keys.partitions.push_back(AttrSet{workload.jobtype_attr, a});
      if (first_variant_attr == 0) first_variant_attr = a;
    }
  }
  keys.columns = {workload.id_attr, workload.jobtype_attr,
                  first_variant_attr};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);

  int type_changes = 0;
  for (int op = 0; op < 150; ++op) {
    // A checked insert or a jobtype flip (the footnote-3 type change whose
    // delta is a genuine multi-attribute presence change for OnUpdate).
    auto outcome = ApplyRandomEmployeeMutation(&workload, &rng);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    if (outcome.type_changed) ++type_changes;
    if (op % 5 == 4) {
      ASSERT_NO_FATAL_FAILURE(
          VerifyAgainstRebuild(rel, keys, StrCat("typed op#", op)));
    }
  }
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "typed final"));
  EXPECT_GT(type_changes, 0) << "soak never exercised a footnote-3 change";
  EXPECT_GT(cache->Stats().batch_applies, 0u);
}

// ---------------------------------------------------------------------------
// Transactional batch entry points: semantics and atomicity.
// ---------------------------------------------------------------------------

TEST(BatchMutationTest, UpdatesComposeAndMayTargetBatchInsertedRows) {
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  AttrId b = catalog.Intern("b");
  FlexibleRelation rel = FlexibleRelation::Derived("tx", DependencySet());
  Tuple seed;
  seed.Set(a, Value::Int(1));
  rel.InsertUnchecked(seed);

  // Op order matters: the inserted row is addressable at index size(),
  // and two updates to row 0 compose left to right.
  Tuple fresh;
  fresh.Set(a, Value::Int(2));
  std::vector<FlexibleRelation::Mutation> batch;
  batch.push_back(FlexibleRelation::Mutation::Insert(fresh));
  batch.push_back(FlexibleRelation::Mutation::Update(1, b, Value::Int(10)));
  batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(3)));
  batch.push_back(FlexibleRelation::Mutation::Update(0, b, Value::Int(4)));
  ASSERT_TRUE(rel.ApplyBatch(std::move(batch)).ok());

  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.row(0).Get(a)->as_int(), 3);
  EXPECT_EQ(rel.row(0).Get(b)->as_int(), 4);
  EXPECT_EQ(rel.row(1).Get(a)->as_int(), 2);
  EXPECT_EQ(rel.row(1).Get(b)->as_int(), 10);
}

TEST(BatchMutationTest, DuplicateCheckSurvivesValueEqualTwinsMidBatch) {
  // Mid-batch the staged instance legally holds value-equal twins —
  // updates never duplicate-check. When one twin then moves on to a new
  // value, the staged membership set must retire *that* row's entry, not
  // whichever value-equal entry find() lands on: erasing the wrong twin
  // left the set's survivor pointing at the slot about to be overwritten
  // in place (a live hash key mutating), after which a later duplicate
  // insert slipped through. Which twin find() prefers depends on the
  // stdlib's equal-group ordering, so both orders are exercised: one
  // scenario where the wrong twin is an older pre-existing row, one
  // where it is a newer staged entry.
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  auto seeded = [&](std::initializer_list<int> values) {
    FlexibleRelation rel =
        FlexibleRelation::Derived("twins", DependencySet());
    for (int v : values) {
      Tuple t;
      t.Set(a, Value::Int(v));
      rel.InsertUnchecked(t);
    }
    return rel;
  };
  Tuple nine, two;
  nine.Set(a, Value::Int(9));
  two.Set(a, Value::Int(2));

  // Twin is the pre-existing row 1: row 0 passes through (a:2) — a dup of
  // row 1 — then moves on, and the final insert must still see row 1.
  {
    FlexibleRelation rel = seeded({1, 2});
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(FlexibleRelation::Mutation::Insert(nine));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(2)));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(5)));
    batch.push_back(FlexibleRelation::Mutation::Insert(two));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
    ASSERT_EQ(rel.size(), 2u);
    EXPECT_EQ(rel.row(0).Get(a)->as_int(), 1);
  }
  // Twin is the newer staged overlay of row 0: the batch-inserted row 1
  // passes through (a:2), moves on, and the final insert must still see
  // row 0's staged (a:2).
  {
    FlexibleRelation rel = seeded({1});
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(FlexibleRelation::Mutation::Insert(two));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(2)));
    batch.push_back(FlexibleRelation::Mutation::Update(1, a, Value::Int(5)));
    batch.push_back(FlexibleRelation::Mutation::Insert(two));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
    ASSERT_EQ(rel.size(), 1u);
    EXPECT_EQ(rel.row(0).Get(a)->as_int(), 1);
  }
  // The same prefix without the duplicating insert commits cleanly — the
  // erase-by-identity must not spuriously reject valid inserts either.
  {
    FlexibleRelation rel = seeded({1, 2});
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(FlexibleRelation::Mutation::Insert(nine));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(2)));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(5)));
    ASSERT_TRUE(rel.ApplyBatch(std::move(batch)).ok());
    ASSERT_EQ(rel.size(), 3u);
    EXPECT_EQ(rel.row(0).Get(a)->as_int(), 5);
  }
}

TEST(BatchMutationTest, FailedBatchLeavesRelationAndCacheUntouched) {
  auto ex = MakeEmployeeWorkload(SoakEmployeeConfig(SoakSeed(7), 60, 3));
  ASSERT_TRUE(ex.ok()) << ex.status();
  EmployeeWorkload& workload = *ex.value();
  FlexibleRelation& rel = workload.relation;
  Rng rng(SoakSeed(7));

  // Warm the cache so a leaky batch would corrupt something observable.
  SoakKeys keys;
  keys.partitions.push_back(AttrSet::Of(workload.id_attr));
  keys.partitions.push_back(AttrSet::Of(workload.jobtype_attr));
  keys.partitions.push_back(
      AttrSet{workload.id_attr, workload.jobtype_attr});
  keys.columns = {workload.id_attr, workload.jobtype_attr};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);

  const std::vector<Tuple> rows_before = rel.rows();
  auto expect_untouched = [&](const char* what) {
    ASSERT_EQ(rel.rows(), rows_before) << what << " mutated the relation";
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, what));
  };

  // Valid ops followed by an ill-typed insert: all-or-nothing.
  {
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(
        FlexibleRelation::Mutation::Insert(RandomEmployee(workload, &rng)));
    batch.push_back(FlexibleRelation::Mutation::Update(
        0, workload.id_attr, Value::Int(123456)));
    Tuple mistyped = RandomEmployee(workload, &rng);
    mistyped.Erase(workload.jobtype_attr);  // shape violation
    batch.push_back(FlexibleRelation::Mutation::Insert(std::move(mistyped)));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_FALSE(s.ok());
    expect_untouched("ill-typed batch");
  }
  // A duplicate insert *within* the batch trips set semantics.
  {
    Tuple t = RandomEmployee(workload, &rng);
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(FlexibleRelation::Mutation::Insert(t));
    batch.push_back(FlexibleRelation::Mutation::Insert(t));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
    expect_untouched("duplicate batch");
  }
  // An out-of-range update (even pointing just past the staged inserts).
  {
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(
        FlexibleRelation::Mutation::Insert(RandomEmployee(workload, &rng)));
    batch.push_back(FlexibleRelation::Mutation::Update(
        rel.size() + 1, workload.id_attr, Value::Int(7)));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_EQ(s.code(), StatusCode::kOutOfRange) << s;
    expect_untouched("out-of-range batch");
  }
  // A jobtype flip without fill values for the new variant's attributes.
  {
    std::vector<FlexibleRelation::Mutation> batch;
    size_t row = rng.Index(rel.size());
    int variant = static_cast<int>(rng.Index(workload.jobtype_values.size()));
    batch.push_back(FlexibleRelation::Mutation::Update(
        row, workload.jobtype_attr, workload.jobtype_values[variant]));
    Status s = rel.ApplyBatch(std::move(batch));
    if (!s.ok()) {  // same variant drawn -> no type change -> ok is fine
      ASSERT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
      expect_untouched("fill-less type change");
    }
  }
  // And after all those refusals, a valid batch still lands.
  ASSERT_TRUE(
      rel.InsertRows({RandomEmployee(workload, &rng)}).ok());
  EXPECT_EQ(rel.size(), rows_before.size() + 1);
}

// A burst appending this many rows to `rel` crosses the drop-everything
// bound max(2048, rows/2): updates alone never reach 2048 net deltas on the
// soaks' few-hundred-row instances.
size_t DropBurstRows(const FlexibleRelation& rel) {
  return std::max<size_t>(2048, rel.size());
}

std::vector<Tuple> RandomSoakTuples(const std::vector<AttrId>& attrs,
                                    size_t count, Rng* rng) {
  std::vector<Tuple> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    rows.push_back(RandomSoakTuple(attrs, rng));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Randomized batch soak: InsertRows/UpdateRows/ApplyBatch bursts of sizes
// 1/8/64/512 interleaved with single-row ops and reads, every cached
// structure checked against from-scratch rebuilds after each round. A
// closing append burst crosses the drop-everything bound, so both flush
// arms are exercised in one soak.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, BatchBurstsMatchRebuildsAcrossAllPolicies) {
  // The soak doubles as the telemetry accounting check: with the plane on,
  // the engine.pli_cache.* counters must balance exactly at the end —
  // every Get takes exactly one hit-or-miss arm, and every counted flush
  // exactly one batched/dropped arm.
  telemetry::Enable();
  telemetry::Registry::Global().Reset();
  Rng rng(SoakSeed(5));
  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 6; ++i) attrs.push_back(catalog.Intern(StrCat("d", i)));

  FlexibleRelation rel = FlexibleRelation::Derived("burst", DependencySet());
  for (int i = 0; i < 300; ++i) {
    rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  }

  SoakKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[1]});
  keys.partitions.push_back(AttrSet{attrs[1], attrs[2], attrs[3]});
  keys.partitions.push_back(AttrSet());
  keys.columns = {attrs[0], attrs[2], attrs[5]};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  auto warm = [&] {
    for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
    for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);
  };
  warm();

  auto random_update_burst = [&](size_t burst) {
    std::vector<FlexibleRelation::UpdateSpec> updates;
    updates.reserve(burst);
    for (size_t i = 0; i < burst; ++i) {
      updates.push_back({rng.Index(rel.size()), attrs[rng.Index(attrs.size())],
                         RandomSoakValue(&rng), Tuple()});
    }
    return updates;
  };

  const size_t kBursts[] = {1, 8, 64, 512};
  for (int round = 0; round < 30; ++round) {
    size_t burst = kBursts[rng.Index(4)];
    double dice = rng.UniformDouble();
    std::string what;
    if (dice < 0.25) {
      // Checked bulk insert; random tuples may collide with set semantics,
      // in which case the whole batch must bounce atomically. Insert
      // bursts stay small so the instance keeps its size class.
      size_t n = std::min<size_t>(burst, 8);
      std::vector<Tuple> rows;
      const std::vector<Tuple> before = rel.rows();
      for (size_t i = 0; i < n; ++i) {
        rows.push_back(RandomSoakTuple(attrs, &rng));
      }
      Status s = rel.InsertRows(std::move(rows));
      if (!s.ok()) {
        ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
        ASSERT_EQ(rel.rows(), before) << "failed InsertRows must be a no-op";
      }
      what = StrCat("insert-rows(", n, s.ok() ? ",ok)" : ",dup)");
    } else if (dice < 0.55) {
      auto deltas = rel.UpdateRows(random_update_burst(burst));
      ASSERT_TRUE(deltas.ok()) << deltas.status();
      what = StrCat("update-rows(", burst, ")");
    } else if (dice < 0.8) {
      // Mixed transactional batch: updates interleaved with a few inserts,
      // some updates aimed at rows the same batch inserts.
      std::vector<FlexibleRelation::Mutation> batch;
      size_t inserted = 0;
      for (size_t i = 0; i < burst; ++i) {
        if (inserted < 4 && rng.Bernoulli(0.1)) {
          batch.push_back(FlexibleRelation::Mutation::Insert(
              RandomSoakTuple(attrs, &rng)));
          ++inserted;
        } else if (inserted > 0 && rng.Bernoulli(0.2)) {
          batch.push_back(FlexibleRelation::Mutation::Update(
              rel.size() + rng.Index(inserted), attrs[rng.Index(attrs.size())],
              RandomSoakValue(&rng)));
        } else {
          batch.push_back(FlexibleRelation::Mutation::Update(
              rng.Index(rel.size()), attrs[rng.Index(attrs.size())],
              RandomSoakValue(&rng)));
        }
      }
      const std::vector<Tuple> before = rel.rows();
      Status s = rel.ApplyBatch(std::move(batch));
      if (!s.ok()) {
        ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
        ASSERT_EQ(rel.rows(), before) << "failed ApplyBatch must be a no-op";
      }
      what = StrCat("apply-batch(", burst, s.ok() ? ",ok)" : ",dup)");
    } else {
      // Single-row ops between bursts keep one-row splices in the mix.
      size_t row = rng.Index(rel.size());
      auto delta = rel.Update(row, attrs[rng.Index(attrs.size())],
                              RandomSoakValue(&rng));
      ASSERT_TRUE(delta.ok()) << delta.status();
      what = StrCat("single-update(row=", row, ")");
    }
    warm();  // reads flush the buffered burst through the adaptive policy
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(
        rel, keys, StrCat("burst round#", round, " [", what, "]")));
  }
  // Deterministic closing bursts so both flush arms and both splice sizes
  // are exercised regardless of the draw sequence above: a single update,
  // a mid-size burst, an oversized append (drop), and a splice into the
  // columns rebuilt after the drop.
  ASSERT_TRUE(rel.UpdateRows(random_update_burst(1)).ok());
  warm();
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "final 1 burst"));
  ASSERT_TRUE(rel.UpdateRows(random_update_burst(48)).ok());
  warm();
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "final 48 burst"));
  rel.InsertRowsUnchecked(RandomSoakTuples(attrs, DropBurstRows(rel), &rng));
  warm();
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "final append"));
  ASSERT_TRUE(rel.UpdateRows(random_update_burst(8)).ok());
  warm();
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "final 8 burst"));
  EXPECT_GT(cache->Stats().batch_applies, 0u) << "splice path never ran";
  EXPECT_GT(cache->Stats().full_drops, 0u) << "drop-everything path never ran";
  EXPECT_EQ(cache->Stats().pending_deltas, 0u);
  EXPECT_EQ(cache.get(), rel.pli_cache().get())
      << "batched maintenance must keep the attached cache alive";

  // Telemetry accounting invariants over the whole soak (every cache in
  // the test shares the process-global registry, so these hold across the
  // soak cache and the rebuild oracles alike).
  auto& registry = telemetry::Registry::Global();
  const uint64_t lookups =
      registry.CounterValue("engine.pli_cache.lookups");
  const uint64_t hits = registry.CounterValue("engine.pli_cache.hits");
  const uint64_t misses = registry.CounterValue("engine.pli_cache.misses");
  EXPECT_GT(lookups, 0u);
  EXPECT_EQ(hits + misses, lookups);
  const uint64_t flushes =
      registry.CounterValue("engine.pli_cache.flushes");
  const uint64_t batched =
      registry.CounterValue("engine.pli_cache.flush.batched");
  const uint64_t dropped =
      registry.CounterValue("engine.pli_cache.flush.dropped");
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(batched, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(batched + dropped, flushes);
  telemetry::Disable();
  registry.Reset();
}

// ---------------------------------------------------------------------------
// The flush policy against the drop-everything oracle (a fresh cache over
// the same rows): every tracked structure equal after every burst, update
// bursts of 1/8/64/512 and an append burst past the drop bound.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, FlushPolicyMatchesDropOracleAcrossBurstSizes) {
  Rng rng(SoakSeed(6));
  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 5; ++i) attrs.push_back(catalog.Intern(StrCat("e", i)));

  FlexibleRelation rel = FlexibleRelation::Derived("adaptive", DependencySet());
  SoakKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[2]});
  keys.columns = {attrs[1], attrs[3]};
  for (int i = 0; i < 150; ++i) {
    rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "warm"));

  auto run_burst = [&](size_t burst, const std::string& context) {
    std::vector<FlexibleRelation::UpdateSpec> updates;
    for (size_t i = 0; i < burst; ++i) {
      updates.push_back({rng.Index(rel.size()),
                         attrs[rng.Index(attrs.size())],
                         RandomSoakValue(&rng), Tuple()});
    }
    ASSERT_TRUE(rel.UpdateRows(std::move(updates)).ok());
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, context));
  };

  const size_t kBursts[] = {1, 8, 64, 512};
  for (int round = 0; round < 20; ++round) {
    ASSERT_NO_FATAL_FAILURE(
        run_burst(kBursts[rng.Index(4)], StrCat("round#", round)));
  }
  // Deterministic closing bursts pin the equality at every burst size
  // regardless of the draws above, then an append crosses the drop bound
  // and a last burst splices the columns rebuilt after it.
  for (size_t burst : kBursts) {
    ASSERT_NO_FATAL_FAILURE(run_burst(burst, StrCat("closing ", burst)));
  }
  rel.InsertRowsUnchecked(RandomSoakTuples(attrs, DropBurstRows(rel), &rng));
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "closing append"));
  ASSERT_NO_FATAL_FAILURE(run_burst(64, "after the drop"));
  // Both flush arms ran on the one attached cache.
  EXPECT_GT(cache->Stats().batch_applies, 0u);
  EXPECT_GT(cache->Stats().full_drops, 0u);
  EXPECT_EQ(cache.get(), rel.pli_cache().get());
}

}  // namespace
}  // namespace flexrel
