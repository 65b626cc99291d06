#include "engine/pli.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "engine/pli_cache.h"
#include "engine/validator.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace flexrel {
namespace {

// Random heterogeneous instance: each row carries each of `num_attrs`
// attributes with probability `density`, values in [0, spread].
std::vector<Tuple> RandomRows(Rng* rng, size_t n, AttrId num_attrs,
                              double density, int64_t spread,
                              double null_fraction = 0.0) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple t;
    for (AttrId a = 0; a < num_attrs; ++a) {
      if (!rng->Bernoulli(density)) continue;
      if (null_fraction > 0 && rng->Bernoulli(null_fraction)) {
        t.Set(a, Value::Null());
      } else {
        t.Set(a, Value::Int(rng->UniformInt(0, spread)));
      }
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

TEST(PliTest, SingleAttributeClusters) {
  std::vector<Tuple> rows;
  for (int v : {1, 2, 1, 3, 2, 1}) {
    Tuple t;
    t.Set(0, Value::Int(v));
    rows.push_back(std::move(t));
  }
  Pli pli = Pli::Build(rows, AttrId{0});
  // Value 1 -> rows {0, 2, 5}, value 2 -> rows {1, 4}; value 3 is stripped.
  ASSERT_EQ(pli.num_clusters(), 2u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 2, 5}));
  EXPECT_EQ(pli.clusters()[1], (Pli::Cluster{1, 4}));
  EXPECT_EQ(pli.grouped_rows(), 5u);
  EXPECT_EQ(pli.num_rows(), rows.size());
}

TEST(PliTest, AbsentRowsStayOutOfThePartition) {
  std::vector<Tuple> rows(4);
  rows[0].Set(0, Value::Int(7));
  rows[1].Set(1, Value::Int(7));  // not defined on attr 0
  rows[2].Set(0, Value::Int(7));
  rows[3].Set(0, Value::Int(7));
  Pli pli = Pli::Build(rows, AttrId{0});
  ASSERT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 2, 3}));
}

TEST(PliTest, NullIsAValueAbsenceIsNot) {
  // Definition 4.1/4.2 quantify over tuples *defined on* X; an explicit
  // null is defined and equals null, an absent attribute is out of scope.
  std::vector<Tuple> rows(4);
  rows[0].Set(0, Value::Null());
  rows[1].Set(0, Value::Null());
  rows[2].Set(1, Value::Int(1));  // attr 0 absent
  rows[3].Set(0, Value::Int(5));  // singleton value
  Pli pli = Pli::Build(rows, AttrId{0});
  ASSERT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 1}));
}

TEST(PliTest, EmptyAttrSetGroupsAllRows) {
  std::vector<Tuple> rows(3);
  rows[0].Set(0, Value::Int(1));
  rows[1].Set(1, Value::Int(2));
  Pli pli = Pli::Build(rows, AttrSet{});
  ASSERT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 1, 2}));
}

TEST(PliTest, IntersectionEqualsDirectBuild) {
  // The algebraic core: partition(X) refined by a's code column ==
  // partition(X ∪ {a}), over many random heterogeneous (and null-bearing)
  // instances.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    std::vector<Tuple> rows = RandomRows(&rng, 80, 4, 0.75, 2, 0.1);
    std::vector<CodeColumn> columns;
    for (AttrId a = 0; a < 4; ++a) {
      columns.push_back(CodeColumn::Build(rows, a));
    }
    auto refine = [&](const Pli& pli, AttrId a) {
      return pli.IntersectWithProbe(columns[a].codes(),
                                    columns[a].code_bound());
    };
    for (AttrId a = 0; a < 4; ++a) {
      for (AttrId b = 0; b < 4; ++b) {
        if (a == b) continue;
        Pli direct = Pli::Build(rows, AttrSet{a, b});
        EXPECT_EQ(refine(Pli::Build(rows, a), b), direct)
            << "seed=" << seed << " a=" << a << " b=" << b;
        EXPECT_EQ(refine(Pli::Build(rows, b), a), direct) << "commutativity";
      }
    }
    // Three-way: ((0 ∩ 1) ∩ 2) == direct {0,1,2}.
    EXPECT_EQ(refine(refine(Pli::Build(rows, AttrId{0}), 1), 2),
              Pli::Build(rows, AttrSet{0, 1, 2}))
        << "seed=" << seed;
  }
}

TEST(PliStorageTest, ScratchReuseDoesNotLeakStateAcrossIntersections) {
  // Back-to-back products of many shapes on one thread share its scratch;
  // each must still equal the direct build.
  Rng rng(77);
  std::vector<Tuple> rows = RandomRows(&rng, 120, 5, 0.8, 3, 0.05);
  for (AttrId a = 0; a < 5; ++a) {
    Pli pa = Pli::Build(rows, a);
    for (AttrId b = 0; b < 5; ++b) {
      if (a == b) continue;
      // A code column is a probe as it stands (label = code).
      CodeColumn column = CodeColumn::Build(rows, b);
      EXPECT_EQ(pa.IntersectWithProbe(column.codes(), column.code_bound()),
                Pli::Build(rows, AttrSet{a, b}))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(PliStorageTest, CodeLabelledIntersectionOnHighCardinalityAttribute) {
  // The product X ∪ {a} with a mostly all-distinct: a's code column is the
  // probe, so the scratch arrays are sized by its whole dictionary
  // (singleton codes included) rather than by its cluster count, and every
  // singleton code must fall out of the product on its own. The attribute
  // also carries a few shared values (real sub-clusters), explicit nulls
  // (which cluster), and absent rows (which must drop out).
  Rng rng(91);
  constexpr size_t kRows = 3000;
  const AttrId hi = 2;
  std::vector<Tuple> rows;
  for (size_t i = 0; i < kRows; ++i) {
    Tuple t;
    t.Set(0, Value::Int(rng.UniformInt(0, 3)));
    if (rng.Bernoulli(0.9)) t.Set(1, Value::Int(rng.UniformInt(0, 5)));
    const double dice = rng.UniformDouble();
    if (dice < 0.05) {
      // absent
    } else if (dice < 0.10) {
      t.Set(hi, Value::Null());
    } else if (dice < 0.15) {
      t.Set(hi, Value::Int(rng.UniformInt(0, 9)));
    } else {
      t.Set(hi, Value::Int(1000000 + static_cast<int64_t>(i)));
    }
    rows.push_back(std::move(t));
  }
  const CodeColumn column = CodeColumn::Build(rows, hi);
  ASSERT_GT(column.code_bound(), kRows / 2) << "not high-cardinality";
  for (const AttrSet& x : {AttrSet{0}, AttrSet{1}, AttrSet{0, 1}}) {
    const AttrSet with_hi = x.Union(AttrSet::Of(hi));
    const Pli direct = Pli::Build(rows, with_hi);
    Pli product = Pli::Build(rows, x).IntersectWithProbe(column.codes(),
                                                         column.code_bound());
    EXPECT_EQ(product, direct) << with_hi.ToString();
    std::string err;
    EXPECT_TRUE(product.CheckInvariants(&err)) << err;
    EXPECT_GT(product.num_clusters(), 0u) << "shared values and nulls";
    // The cache assembles the same product out of its pinned columns.
    PliCache cache(&rows);
    EXPECT_EQ(*cache.Get(with_hi), direct) << with_hi.ToString();
  }
  // The high-cardinality partition as the outer operand, probed by a
  // low-cardinality column after this thread's scratch grew to the large
  // bound.
  const CodeColumn low = CodeColumn::Build(rows, 0);
  EXPECT_EQ(Pli::Build(rows, hi).IntersectWithProbe(low.codes(),
                                                    low.code_bound()),
            Pli::Build(rows, AttrSet{0, hi}));
}

TEST(PliCacheTest, CachedPartitionsMatchDirectBuilds) {
  Rng rng(17);
  std::vector<Tuple> rows = RandomRows(&rng, 120, 5, 0.8, 3);
  PliCache cache(&rows);
  for (AttrId a = 0; a < 5; ++a) {
    for (AttrId b = a + 1; b < 5; ++b) {
      for (AttrId c = b + 1; c < 5; ++c) {
        AttrSet x{a, b, c};
        EXPECT_EQ(*cache.Get(x), Pli::Build(rows, x)) << x.ToString();
      }
    }
  }
  EXPECT_GT(cache.Stats().hits, 0u);  // shared prefixes must be reused
}

TEST(PliCacheTest, RepeatLookupsHitTheCache) {
  Rng rng(5);
  std::vector<Tuple> rows = RandomRows(&rng, 40, 3, 0.9, 2);
  PliCache cache(&rows);
  AttrSet x{0, 2};
  std::shared_ptr<const Pli> first = cache.Get(x);
  size_t misses_after_first = cache.Stats().misses;
  std::shared_ptr<const Pli> second = cache.Get(x);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.Stats().misses, misses_after_first);
}

TEST(PliCacheTest, LruBoundEvictsMultiAttributeEntries) {
  // C(46, 2) = 1035 pairs overflow the cache's LRU bound of 1024
  // multi-attribute entries.
  constexpr AttrId kAttrs = 46;
  constexpr size_t kLruBound = 1024;
  Rng rng(11);
  std::vector<Tuple> rows = RandomRows(&rng, 60, kAttrs, 0.8, 2);
  PliCache cache(&rows);
  size_t pairs = 0;
  for (AttrId a = 0; a < kAttrs; ++a) {
    for (AttrId b = a + 1; b < kAttrs; ++b, ++pairs) cache.Get(AttrSet{a, b});
  }
  const PliCache::StatsSnapshot stats = cache.Stats();
  EXPECT_EQ(stats.evictions, pairs - kLruBound);
  // Pinned singletons + at most kLruBound evictable pairs.
  EXPECT_LE(stats.cached_entries, kAttrs + kLruBound);
  // The least recently used pair was evicted, and rebuilds correctly.
  EXPECT_EQ(*cache.Get(AttrSet{0, 1}), Pli::Build(rows, AttrSet{0, 1}));
  EXPECT_EQ(cache.Stats().misses, stats.misses + 1);
}

TEST(PliCacheTest, ConcurrentGetsProduceConsistentPartitions) {
  Rng rng(23);
  std::vector<Tuple> rows = RandomRows(&rng, 200, 5, 0.8, 3);
  PliCache cache(&rows);
  std::vector<AttrSet> keys;
  for (AttrId a = 0; a < 5; ++a) {
    for (AttrId b = a + 1; b < 5; ++b) keys.push_back(AttrSet{a, b});
  }
  std::vector<std::thread> workers;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < keys.size(); ++i) {
        const AttrSet& key = keys[(i + static_cast<size_t>(t)) % keys.size()];
        if (*cache.Get(key) != Pli::Build(rows, key)) mismatch = true;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_FALSE(mismatch);
}

// Every single-attribute AD and FD over `num_attrs` attributes, validated
// through a fresh cache and through the brute-force satisfaction checkers.
void ExpectValidatorAgreesWithBruteForce(const std::vector<Tuple>& rows,
                                         AttrId num_attrs,
                                         const std::string& label) {
  PliCache cache(&rows);
  for (AttrId x = 0; x < num_attrs; ++x) {
    for (AttrId y = 0; y < num_attrs; ++y) {
      if (x == y) continue;
      AttrDep ad{AttrSet{x}, AttrSet{y}};
      FuncDep fd{AttrSet{x}, AttrSet{y}};
      EXPECT_EQ(ValidatesAd(&cache, ad), SatisfiesAttrDep(rows, ad))
          << label << " " << x << "->" << y;
      EXPECT_EQ(ValidatesFd(&cache, fd), SatisfiesFuncDep(rows, fd))
          << label << " " << x << "->" << y;
    }
  }
}

TEST(ValidatorTest, AgreesWithBruteForceSatisfaction) {
  for (uint64_t seed = 30; seed < 36; ++seed) {
    Rng rng(seed);
    std::vector<Tuple> rows = RandomRows(&rng, 70, 4, 0.7, 2, 0.05);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    ExpectValidatorAgreesWithBruteForce(rows, 4, StrCat("seed=", seed));
  }

  // Hand-built: attribute 0's only cluster ({r0, r1}) mixes explicit Null
  // and absence on attribute 2; attribute 1's only cluster ({r2, r3})
  // carries two nulls. Null is a value (code 0), absence is kMissingCode:
  // null vs absent fails both readings, and two nulls agree under both.
  std::vector<Tuple> rows(4);
  for (size_t r = 0; r < rows.size(); ++r) {
    const int64_t i = static_cast<int64_t>(r);
    rows[r].Set(0, Value::Int(r < 2 ? 1 : i));
    rows[r].Set(1, Value::Int(r < 2 ? i : 3));
    if (r != 1) rows[r].Set(2, Value::Null());
  }
  ExpectValidatorAgreesWithBruteForce(rows, 3, "null and absence");
  PliCache cache(&rows);
  EXPECT_FALSE(ValidatesAd(&cache, AttrDep{AttrSet{0}, AttrSet{2}}));
  EXPECT_FALSE(ValidatesFd(&cache, FuncDep{AttrSet{0}, AttrSet{2}}));
  EXPECT_TRUE(ValidatesAd(&cache, AttrDep{AttrSet{1}, AttrSet{2}}));
  EXPECT_TRUE(ValidatesFd(&cache, FuncDep{AttrSet{1}, AttrSet{2}}));
}

TEST(ValidatorTest, TrivialDependenciesAlwaysValidate) {
  std::vector<Tuple> rows(2);
  rows[0].Set(0, Value::Int(1));
  rows[1].Set(0, Value::Int(1));
  PliCache cache(&rows);
  EXPECT_TRUE(ValidatesAd(&cache, AttrDep{AttrSet{0, 1}, AttrSet{1}}));
  EXPECT_TRUE(ValidatesFd(&cache, FuncDep{AttrSet{0, 1}, AttrSet{0}}));
}

}  // namespace
}  // namespace flexrel
