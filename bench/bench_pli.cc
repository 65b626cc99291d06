// Partition-engine microbenchmarks: stripped-partition construction and
// intersection throughput, the cache's level-sweep behaviour, and the
// mutate-then-query sweep comparing incremental maintenance (the flush
// splices the code columns and rebuilds the partitions a burst touches from
// them) against a rebuild oracle that reads through a fresh cache after
// every mutation.
// These are the primitives whose cost replaces per-candidate instance
// re-hashing in dependency discovery (see bench_discovery.cc for the
// end-to-end compare); the sweep's results are recorded in
// BENCH_incremental.json.

#include <benchmark/benchmark.h>

#include <unordered_set>

#include "engine/pli_cache.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace flexrel {
namespace {

// Heterogeneous employee-shaped rows without relation/type-check overhead.
std::vector<Tuple> MakeRows(size_t n, uint64_t seed) {
  EmployeeConfig config;
  config.num_variants = 4;
  config.attrs_per_variant = 2;
  config.rows = 0;  // tuples are drawn below, bypassing insert checks
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

void BM_PliBuildSingleAttr(benchmark::State& state) {
  std::vector<Tuple> rows = MakeRows(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    Pli pli = Pli::Build(rows, AttrId{1});  // jobtype: few fat clusters
    benchmark::DoNotOptimize(pli);
  }
  state.counters["partition_bytes"] = static_cast<double>(
      Pli::Build(rows, AttrId{1}).MemoryBytes());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PliBuildSingleAttr)->Arg(1000)->Arg(10000)->Arg(100000);

// The cache's build: a counting sort over the prebuilt code column
// (Pli::BuildFromCodes) against BM_PliBuildSingleAttr's per-row Value
// hashing (the rebuild oracle). The column itself is built outside the
// loop — in steady state the cache maintains it incrementally, so partition
// (re)builds only ever pay the counting sort. perf_smoke.py gates the
// counting sort ≤ the hash build at 10000.
void BM_PliBuildSingleAttrCoded(benchmark::State& state) {
  std::vector<Tuple> rows = MakeRows(static_cast<size_t>(state.range(0)), 5);
  CodeColumn column = CodeColumn::Build(rows, AttrId{1});
  for (auto _ : state) {
    Pli pli = Pli::BuildFromCodes(column.codes(), column.code_bound());
    benchmark::DoNotOptimize(pli);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PliBuildSingleAttrCoded)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PliBuildPairDirect(benchmark::State& state) {
  // The cost the engine avoids: hashing two-attribute projections directly.
  std::vector<Tuple> rows = MakeRows(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    Pli pli = Pli::Build(rows, AttrSet{1, 2});
    benchmark::DoNotOptimize(pli);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PliBuildPairDirect)->Arg(1000)->Arg(10000)->Arg(100000);

// Integer-valued refinement of a single-attribute partition by another
// attribute's code column — the probe the cache's pinned column provides
// (label = code).
void BM_PliIntersect(benchmark::State& state) {
  std::vector<Tuple> rows = MakeRows(static_cast<size_t>(state.range(0)), 5);
  Pli a = Pli::Build(rows, AttrId{1});
  CodeColumn b = CodeColumn::Build(rows, AttrId{2});
  for (auto _ : state) {
    Pli product = a.IntersectWithProbe(b.codes(), b.code_bound());
    benchmark::DoNotOptimize(product);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PliIntersect)->Arg(1000)->Arg(10000)->Arg(100000);

// A full |X| = 2 lattice level through a cold cache: every pair partition
// assembled out of pinned single-attribute partitions, each seeded by
// materializing its attribute's code column (one intern pass) and
// counting-sorting over it.
void BM_PliCacheLevelSweep(benchmark::State& state) {
  std::vector<Tuple> rows = MakeRows(static_cast<size_t>(state.range(0)), 5);
  AttrSet universe;
  for (const Tuple& t : rows) universe = universe.Union(t.attrs());
  const std::vector<AttrId>& ids = universe.ids();
  for (auto _ : state) {
    PliCache cache(&rows);
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        benchmark::DoNotOptimize(cache.Get(AttrSet{ids[i], ids[j]}));
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PliCacheLevelSweep)->Arg(1000)->Arg(10000);

// Dense categorical rows: every attribute present on every row, values in
// [0, spread) — the regime where every lattice-level product carries
// hundreds of clusters.
std::vector<Tuple> MakeDenseRows(size_t n, AttrId num_attrs, int64_t spread,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple t;
    for (AttrId a = 0; a < num_attrs; ++a) {
      t.Set(a, Value::Int(rng.UniformInt(0, spread - 1)));
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

// The discovery-shaped intersection sweep, warm: single-attribute
// partitions and their code columns are built once (in real discovery they
// are pinned and amortized over every lattice level) and each iteration
// assembles the full |X| = 2 and |X| = 3 candidate levels by code-labelled
// refinement over a dense categorical instance, isolated from the
// single-attribute builds.
void BM_PliLevelSweep(benchmark::State& state) {
  std::vector<Tuple> rows =
      MakeDenseRows(static_cast<size_t>(state.range(0)), 8, 10, 5);
  std::vector<Pli> singles;
  std::vector<CodeColumn> columns;
  for (AttrId id = 0; id < 8; ++id) {
    singles.push_back(Pli::Build(rows, id));
    columns.push_back(CodeColumn::Build(rows, id));
  }
  for (auto _ : state) {
    for (size_t i = 0; i < singles.size(); ++i) {
      for (size_t j = i + 1; j < singles.size(); ++j) {
        Pli pair = singles[i].IntersectWithProbe(columns[j].codes(),
                                                 columns[j].code_bound());
        for (size_t k = j + 1; k < singles.size(); ++k) {
          benchmark::DoNotOptimize(pair.IntersectWithProbe(
              columns[k].codes(), columns[k].code_bound()));
        }
        benchmark::DoNotOptimize(pair);
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PliLevelSweep)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Mutate-then-query: the workload incremental maintenance exists for. Each
// iteration applies `mutations` (state.range(1)) random updates and then
// runs a query mix over the attached cache — a code-column selection shape
// plus single- and two-attribute partition reads. Every burst re-values the
// jobtype or the common attribute, and the two-attribute read spans both,
// so the partition reads measure a read right after a mutation, served by
// a rebuild from the spliced columns. Three maintenance modes:
//
//   Incremental — row-at-a-time Update() calls under the default policy
//     (the buffer coalesces the burst, and the next read splices it);
//   Batched     — the same burst staged through one UpdateRows() call;
//   Rebuild     — no cache attached to the relation; every query reads
//     through a fresh PliCache over its rows, the drop-everything oracle.
//
// Updates only (no growth), so all modes benchmark the same instance size
// regardless of iteration count.
// ---------------------------------------------------------------------------

constexpr AttrId kJobtype = 1;  // few fat clusters (the selective attribute)
constexpr AttrId kCommon = 2;   // common attribute, medium clusters

enum class MaintenanceMode {
  kAdaptive,  // the attached cache: splice or drop by burst size
  kRebuild,   // a fresh cache per query, the from-scratch oracle
};

FlexibleRelation RelationOf(const std::vector<Tuple>& rows) {
  FlexibleRelation rel = FlexibleRelation::Derived("bench", DependencySet());
  std::vector<Tuple> copy = rows;
  rel.InsertRowsUnchecked(std::move(copy));
  return rel;
}

// The per-round query: the code column a selection reads
// (algebra/evaluate.cc SelectViaIndex) plus single- and two-attribute
// partition reads. The evaluator's only partition reads (DistinctOn) go to
// the caches of freshly materialized join legs, never a mutated base
// relation, so the partition reads here stand for discovery or a Σ audit
// run over a live relation right after a burst.
void QueryCache(PliCache* cache) {
  benchmark::DoNotOptimize(cache->CodeColumnFor(kJobtype));
  benchmark::DoNotOptimize(cache->Get(AttrSet::Of(kJobtype)));
  benchmark::DoNotOptimize(cache->Get(AttrSet{kJobtype, kCommon}));
}

// The query through the relation's attached cache, or — in Rebuild mode,
// where no cache is ever attached — through a fresh cache over its rows:
// the from-scratch work a cache dropped on every mutation would redo.
void QueryRelation(FlexibleRelation* rel, MaintenanceMode mode) {
  if (mode == MaintenanceMode::kRebuild) {
    PliCache fresh(&rel->rows());
    QueryCache(&fresh);
  } else {
    QueryCache(rel->pli_cache().get());
  }
}

void MutateThenQuery(benchmark::State& state, MaintenanceMode mode,
                     bool staged_batches) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int mutations = static_cast<int>(state.range(1));
  std::vector<Tuple> rows = MakeRows(n, 5);
  // The pool of legal jobtype values, for cluster-to-cluster moves.
  std::vector<Value> jobtypes;
  {
    std::unordered_set<std::string> seen;
    for (const Tuple& t : rows) {
      if (const Value* v = t.Get(kJobtype)) {
        if (seen.insert(v->as_string()).second) jobtypes.push_back(*v);
      }
    }
  }
  FlexibleRelation rel = RelationOf(rows);
  QueryRelation(&rel, mode);  // warm: attaches the cache unless Rebuild
  Rng rng(99);
  std::vector<FlexibleRelation::UpdateSpec> burst;
  burst.reserve(static_cast<size_t>(mutations));
  for (auto _ : state) {
    burst.clear();
    for (int m = 0; m < mutations; ++m) {
      size_t row = rng.Index(rel.size());
      FlexibleRelation::UpdateSpec spec;
      spec.index = row;
      if (rng.Bernoulli(0.5)) {
        // Move a row between the fat jobtype clusters.
        spec.attr = kJobtype;
        spec.value = jobtypes[rng.Index(jobtypes.size())];
      } else {
        // Re-value a common attribute (medium clusters).
        spec.attr = kCommon;
        spec.value = Value::Int(rng.UniformInt(0, 50));
      }
      burst.push_back(std::move(spec));
    }
    bool ok;
    if (staged_batches) {
      // The whole burst through one transactional UpdateRows call.
      ok = rel.UpdateRows(std::move(burst)).ok();
      burst = {};
    } else {
      // Row-at-a-time mutation API; the cache still buffers and coalesces.
      ok = true;
      for (FlexibleRelation::UpdateSpec& spec : burst) {
        if (!rel.Update(spec.index, spec.attr, std::move(spec.value)).ok()) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) {
      state.SkipWithError("update failed");
      return;
    }
    QueryRelation(&rel, mode);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          mutations);
  // Maintenance counters (the flush-arm split) are reported through the
  // telemetry plane: run with --metrics_json=PATH and
  // read engine.pli_cache.* from the dump (the channel perf_smoke ingests).
}

void BM_MutateThenQueryIncremental(benchmark::State& state) {
  MutateThenQuery(state, MaintenanceMode::kAdaptive,
                  /*staged_batches=*/false);
}
void BM_MutateThenQueryBatched(benchmark::State& state) {
  MutateThenQuery(state, MaintenanceMode::kAdaptive, /*staged_batches=*/true);
}
void BM_MutateThenQueryRebuild(benchmark::State& state) {
  MutateThenQuery(state, MaintenanceMode::kRebuild, /*staged_batches=*/false);
}
// rows × mutation ratio (mutations per query round).
#define FLEXREL_MUTATE_SWEEP(bench)                      \
  BENCHMARK(bench)                                       \
      ->ArgNames({"rows", "muts"})                       \
      ->Args({1000, 1})->Args({1000, 8})->Args({1000, 64})    \
      ->Args({10000, 1})->Args({10000, 8})->Args({10000, 64}) \
      ->Args({100000, 1})->Args({100000, 8})->Args({100000, 64})
FLEXREL_MUTATE_SWEEP(BM_MutateThenQueryIncremental);
FLEXREL_MUTATE_SWEEP(BM_MutateThenQueryBatched);
FLEXREL_MUTATE_SWEEP(BM_MutateThenQueryRebuild);
#undef FLEXREL_MUTATE_SWEEP

// The engine-side cost of one batched flush: a 64-update burst staged
// straight into the cache's delta buffer (OnUpdateBatch) and flushed by the
// next read — the code-column splices and the rebuilds of the partitions
// the burst touched, isolated from the transactional validation
// FlexibleRelation layers above them (BM_MutateThenQueryBatched measures
// the full round). The burst re-values attributes 0-2, so every partition
// read here is rebuilt from the spliced columns.
void BM_CacheBatchedFlush(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int mutations = static_cast<int>(state.range(1));
  std::vector<Tuple> rows = MakeDenseRows(n, 8, 10, 5);
  PliCache cache(&rows);
  auto query = [&cache] {
    benchmark::DoNotOptimize(cache.CodeColumnFor(0));
    benchmark::DoNotOptimize(cache.Get(AttrSet::Of(0)));
    benchmark::DoNotOptimize(cache.Get(AttrSet{0, 1}));
    benchmark::DoNotOptimize(cache.Get(AttrSet{0, 2}));
    benchmark::DoNotOptimize(cache.Get(AttrSet{1, 2}));
    benchmark::DoNotOptimize(cache.Get(AttrSet{0, 1, 2}));
    benchmark::DoNotOptimize(cache.Get(AttrSet{1, 2, 3}));
  };
  query();
  Rng rng(99);
  std::vector<std::pair<Pli::RowId, Tuple>> burst;
  burst.reserve(static_cast<size_t>(mutations));
  for (auto _ : state) {
    burst.clear();
    for (int m = 0; m < mutations; ++m) {
      const size_t row = rng.Index(rows.size());
      burst.emplace_back(static_cast<Pli::RowId>(row), rows[row]);
      rows[row].Set(static_cast<AttrId>(rng.Index(3)),
                    Value::Int(rng.UniformInt(0, 9)));
    }
    cache.OnUpdateBatch(std::move(burst));
    burst = {};
    query();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          mutations);
  // Flush maintenance counters live in the telemetry dump
  // (--metrics_json=PATH, engine.pli_cache.* names).
}
BENCHMARK(BM_CacheBatchedFlush)
    ->ArgNames({"rows", "muts"})->Args({10000, 64});

// Append-then-query: the insert path. The relation is reset (untimed) every
// time it doubles so both modes amortize identical reset cadence.
void AppendThenQuery(benchmark::State& state, MaintenanceMode mode) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Tuple> rows = MakeRows(n, 5);
  std::vector<Tuple> extra = MakeRows(n, 6);
  size_t next = 0;
  FlexibleRelation rel = RelationOf(rows);
  QueryRelation(&rel, mode);
  for (auto _ : state) {
    if (rel.size() >= 2 * n) {
      state.PauseTiming();
      rel = RelationOf(rows);
      QueryRelation(&rel, mode);
      state.ResumeTiming();
    }
    rel.InsertUnchecked(extra[next++ % extra.size()]);
    QueryRelation(&rel, mode);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_AppendThenQueryIncremental(benchmark::State& state) {
  AppendThenQuery(state, MaintenanceMode::kAdaptive);
}
void BM_AppendThenQueryRebuild(benchmark::State& state) {
  AppendThenQuery(state, MaintenanceMode::kRebuild);
}
BENCHMARK(BM_AppendThenQueryIncremental)
    ->ArgNames({"rows"})->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_AppendThenQueryRebuild)
    ->ArgNames({"rows"})->Arg(1000)->Arg(10000)->Arg(100000);

// Bulk-load-then-query: the storage path's shape (ReadFlexDb stages every
// row through one transactional batch). One timed round = InsertRows of n
// rows into an empty cached relation plus the first query over it.
void BM_BulkLoadThenQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Tuple> rows = MakeRows(n, 5);
  {
    // Checked inserts enforce set semantics; drop the rare random dups.
    std::unordered_set<Tuple, TupleHash> seen;
    std::erase_if(rows, [&](const Tuple& t) { return !seen.insert(t).second; });
  }
  for (auto _ : state) {
    FlexibleRelation rel =
        FlexibleRelation::Derived("bulk", DependencySet());
    // Attach the cache first so the load goes through it.
    QueryRelation(&rel, MaintenanceMode::kAdaptive);
    std::vector<Tuple> copy = rows;
    if (!rel.InsertRows(std::move(copy)).ok()) {
      state.SkipWithError("bulk load failed");
      return;
    }
    QueryRelation(&rel, MaintenanceMode::kAdaptive);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BulkLoadThenQuery)->ArgNames({"rows"})->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace flexrel
