// End-to-end dependency discovery: partition engine vs. the brute-force
// reference path, across instance sizes. The engine's advantage compounds
// with max_lhs_size — every level-2+ candidate costs it one integer-valued
// partition intersection instead of a full instance re-hash.

#include <benchmark/benchmark.h>

#include "core/discovery.h"
#include "engine/parallel_discovery.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace flexrel {
namespace {

std::vector<Tuple> MakeRows(size_t n, uint64_t seed) {
  EmployeeConfig config;
  config.num_variants = 4;
  config.attrs_per_variant = 2;
  config.rows = 0;
  config.seed = seed;
  auto w = MakeEmployeeWorkload(config);
  Rng rng(seed + 1);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(RandomEmployee(*w.value(), &rng));
  }
  return rows;
}

AttrSet UniverseOf(const std::vector<Tuple>& rows) {
  AttrSet u;
  for (const Tuple& t : rows) u = u.Union(t.attrs());
  return u;
}

void RunDiscovery(benchmark::State& state, bool use_engine, size_t max_lhs) {
  std::vector<Tuple> rows = MakeRows(static_cast<size_t>(state.range(0)), 9);
  AttrSet universe = UniverseOf(rows);
  DiscoveryOptions options;
  options.max_lhs_size = max_lhs;
  options.use_engine = use_engine;
  for (auto _ : state) {
    DependencySet deps = DiscoverDependencies(rows, universe, options);
    benchmark::DoNotOptimize(deps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_DiscoveryEngine(benchmark::State& state) {
  RunDiscovery(state, /*use_engine=*/true, /*max_lhs=*/2);
}
BENCHMARK(BM_DiscoveryEngine)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_DiscoveryBruteForce(benchmark::State& state) {
  RunDiscovery(state, /*use_engine=*/false, /*max_lhs=*/2);
}
BENCHMARK(BM_DiscoveryBruteForce)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_DiscoveryEngineLhs3(benchmark::State& state) {
  RunDiscovery(state, /*use_engine=*/true, /*max_lhs=*/3);
}
BENCHMARK(BM_DiscoveryEngineLhs3)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_DiscoveryBruteForceLhs3(benchmark::State& state) {
  RunDiscovery(state, /*use_engine=*/false, /*max_lhs=*/3);
}
BENCHMARK(BM_DiscoveryBruteForceLhs3)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The engine traversal alone at |X| <= 3, without the core translation
// layer: code-column-built single-attribute partitions, intersections
// probed by the pinned code columns.
void BM_DiscoveryArenaStorage(benchmark::State& state) {
  std::vector<Tuple> rows = MakeRows(static_cast<size_t>(state.range(0)), 9);
  AttrSet universe = UniverseOf(rows);
  DiscoveryOptions options;
  options.max_lhs_size = 3;
  for (auto _ : state) {
    DependencySet deps = EngineDiscoverDependencies(rows, universe, options);
    benchmark::DoNotOptimize(deps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DiscoveryArenaStorage)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The wide planted-FD shape: many attributes, small skewed domains (fat
// clusters, so every validation does real partition work), a handful of
// FDs planted by construction, and mild attribute absence outside the
// plants so the AD pass sees presence disagreement. Level-wise validates
// all C(n,2)+n candidates, almost all of which come back empty.
std::vector<Tuple> MakeWidePlanted(AttrId num_attrs, size_t num_rows,
                                   AttrSet* universe) {
  constexpr int64_t kDomain = 6;
  constexpr size_t kPlanted = 4;
  Rng rng(17);
  *universe = AttrSet();
  for (AttrId a = 0; a < num_attrs; ++a) universe->Insert(a);
  std::vector<Tuple> rows;
  rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    Tuple t;
    for (AttrId a = 0; a < num_attrs; ++a) {
      if (rng.Bernoulli(0.15)) continue;
      // Nested draw skews toward 0: a few huge clusters, a thinner tail.
      t.Set(a, Value::Int(rng.UniformInt(0, rng.UniformInt(0, kDomain - 1))));
    }
    // Plant p holds over the rows that carry its whole LHS; rows missing
    // part of the LHS fall out of the partition, so the FD (and the
    // variant-presence AD on the same determinant) still holds exactly.
    for (size_t p = 0; p < kPlanted; ++p) {
      AttrId base = static_cast<AttrId>(3 * p);
      const Value* v0 = t.Get(base);
      const Value* v1 = t.Get(base + 1);
      if (v0 != nullptr && v1 != nullptr) {
        t.Set(base + 2,
              Value::Int((v0->as_int() * 7 + v1->as_int() * 13) % kDomain));
      }
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

// The engine traversal on the wide shape at |X| <= 2 (engine README,
// "Numbers").
void BM_DiscoveryArenaStorageWide(benchmark::State& state) {
  AttrSet universe;
  std::vector<Tuple> rows =
      MakeWidePlanted(static_cast<AttrId>(state.range(0)), 2048, &universe);
  DiscoveryOptions options;
  options.max_lhs_size = 2;
  for (auto _ : state) {
    DependencySet deps = EngineDiscoverDependencies(rows, universe, options);
    benchmark::DoNotOptimize(deps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_DiscoveryArenaStorageWide)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flexrel
