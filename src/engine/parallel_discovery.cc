#include "engine/parallel_discovery.h"

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "core/closure.h"
#include "engine/pli_cache.h"
#include "telemetry/telemetry.h"
#include "util/fault.h"

namespace flexrel {

namespace {

using ColumnSpan = std::span<const std::shared_ptr<const CodeColumn>>;

// Worker count for `work_items` independent tasks: the requested count, or
// hardware concurrency when 0, never more workers than items.
size_t ResolveThreads(size_t requested, size_t work_items) {
  size_t n = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  if (work_items == 0) work_items = 1;
  return n < work_items ? n : work_items;
}

// Below this many row-candidate pairs per level, thread spawn/join costs
// more than the partition work it would parallelise; auto mode stays
// sequential (an explicit num_threads is honoured regardless).
constexpr size_t kMinWorkForAutoThreads = size_t{1} << 15;

// Runs fn(0..n-1) across `num_threads` workers pulling from a shared
// counter; the calling thread participates. The first exception a worker
// hits is captured and rethrown on the calling thread after the join —
// letting it escape a thread entry function would std::terminate.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&] {
    try {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      next.store(n);  // drain remaining work
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(num_threads - 1);
  try {
    for (size_t t = 1; t < num_threads; ++t) pool.emplace_back(worker);
  } catch (const std::system_error&) {
    // Thread exhaustion: degrade to the workers that did spawn (plus this
    // thread) instead of letting ~thread() terminate the process.
  }
  worker();
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

// Zeroes the per-run worker-utilization gauge. Gauges are last-write-wins
// and survive across runs in one process, so a run that never reaches the
// write site (fewer levels, an empty universe, a fault mid-level) would
// otherwise dump the previous run's watermark as its own.
void ResetDiscoveryRunGauges() {
  if (!telemetry::Enabled()) return;
  telemetry::Registry::Global()
      .GetGauge("engine.discovery.worker_utilization_pct")
      ->Reset();
}

// Shared traversal: per level, fan the maximal-RHS computations out, then
// prune and emit sequentially in enumeration order (pruning consults the
// dependencies already emitted, so its order is semantics-bearing).
// `maximal_rhs(lhs, columns)` is one candidate's scan over the universe's
// code columns, which the pass fetches once at level 1 and drops on return.
template <typename Dep, typename RhsFn, typename PrunedFn, typename EmitFn>
std::vector<Dep> LevelWise(PliCache* cache, const AttrSet& universe,
                           const DiscoveryOptions& options,
                           const RhsFn& maximal_rhs, const PrunedFn& pruned,
                           const EmitFn& emit) {
  ResetDiscoveryRunGauges();
  const size_t num_rows = cache->rows().size();
  std::vector<Dep> out;
  DependencySet found;
  std::vector<std::shared_ptr<const CodeColumn>> columns(universe.size());
  for (size_t k = 1; k <= options.max_lhs_size && k <= universe.size(); ++k) {
    telemetry::ScopedSpan level_span("discovery.level");
    FLEXREL_FAULT_INJECT("discovery.level");
    const bool traced = telemetry::Enabled();
    const uint64_t level_start = traced ? telemetry::NowNs() : 0;
    std::vector<AttrSet> candidates = LatticeLevel(universe, k);
    std::vector<AttrSet> rhss(candidates.size());
    size_t threads = ResolveThreads(options.num_threads, candidates.size());
    if (options.num_threads == 0 &&
        num_rows * candidates.size() < kMinWorkForAutoThreads) {
      threads = 1;
    }
    // Σ of per-worker busy time (column fetches and candidate scans);
    // against the level's wall time and worker count it yields utilization
    // — how much of the fan-out the shared-counter pull actually kept busy.
    std::atomic<uint64_t> busy_ns{0};
    auto timed = [&](auto&& work) {
      const uint64_t t0 = traced ? telemetry::NowNs() : 0;
      work();
      if (traced) {
        busy_ns.fetch_add(telemetry::NowNs() - t0, std::memory_order_relaxed);
      }
    };
    if (k == 1) {
      // Level 1's candidates are the universe's attributes, so its thread
      // count fits the fetch too: one column build per worker at a time,
      // none built twice, and every later Get over the universe finds its
      // columns pinned.
      ParallelFor(universe.size(), threads, [&](size_t i) {
        timed([&] { columns[i] = cache->CodeColumnFor(universe.ids()[i]); });
      });
    }
    ParallelFor(candidates.size(), threads, [&](size_t i) {
      timed([&] { rhss[i] = maximal_rhs(candidates[i], columns); });
    });
    size_t pruned_count = 0;
    size_t emitted_count = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (rhss[i].empty()) continue;
      Dep candidate{std::move(candidates[i]), std::move(rhss[i])};
      if (options.minimal_only && pruned(found, candidate)) {
        ++pruned_count;
        continue;
      }
      ++emitted_count;
      out.push_back(candidate);
      emit(&found, std::move(candidate));
    }
    FLEXREL_TELEMETRY_COUNT("engine.discovery.levels", 1);
    FLEXREL_TELEMETRY_COUNT("engine.discovery.candidates", candidates.size());
    FLEXREL_TELEMETRY_COUNT("engine.discovery.pruned", pruned_count);
    FLEXREL_TELEMETRY_COUNT("engine.discovery.emitted", emitted_count);
    if (traced) {
      const uint64_t wall = telemetry::NowNs() - level_start;
      const uint64_t util_pct =
          wall == 0 ? 0
                    : busy_ns.load(std::memory_order_relaxed) * 100 /
                          (wall * threads);
      FLEXREL_TELEMETRY_GAUGE_SET("engine.discovery.worker_utilization_pct",
                                  util_pct);
      level_span.SetDetail(
          "k=" + std::to_string(k) +
          " candidates=" + std::to_string(candidates.size()) +
          " pruned=" + std::to_string(pruned_count) +
          " emitted=" + std::to_string(emitted_count) +
          " threads=" + std::to_string(threads) +
          " util_pct=" + std::to_string(util_pct));
    }
  }
  return out;
}

}  // namespace

std::vector<AttrSet> LatticeLevel(const AttrSet& universe, size_t k) {
  const std::vector<AttrId>& ids = universe.ids();
  std::vector<AttrSet> out;
  if (k == 0 || k > ids.size()) return out;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  std::vector<AttrId> current;
  while (true) {
    current.clear();
    for (size_t i : idx) current.push_back(ids[i]);
    out.push_back(AttrSet::FromIds(current));
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + ids.size() - k) break;
    }
    if (idx[i] == i + ids.size() - k) break;
    ++idx[i];
    for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
  return out;
}

std::vector<AttrDep> EngineDiscoverAttrDeps(PliCache* cache,
                                            const AttrSet& universe,
                                            const DiscoveryOptions& options) {
  return LevelWise<AttrDep>(
      cache, universe, options,
      [&](const AttrSet& lhs, const ColumnSpan columns) {
        return MaximalAdRhs(cache, lhs, universe, columns);
      },
      [](const DependencySet& found, const AttrDep& candidate) {
        return Implies(found, candidate, AxiomSystem::kAdOnly);
      },
      [](DependencySet* found, AttrDep dep) { found->AddAd(std::move(dep)); });
}

std::vector<FuncDep> EngineDiscoverFuncDeps(PliCache* cache,
                                            const AttrSet& universe,
                                            const DiscoveryOptions& options) {
  return LevelWise<FuncDep>(
      cache, universe, options,
      [&](const AttrSet& lhs, const ColumnSpan columns) {
        return MaximalFdRhs(cache, lhs, universe, columns);
      },
      [](const DependencySet& found, const FuncDep& candidate) {
        return Implies(found, candidate);
      },
      [](DependencySet* found, FuncDep dep) { found->AddFd(std::move(dep)); });
}

std::vector<AttrDep> EngineDiscoverAttrDeps(const std::vector<Tuple>& rows,
                                            const AttrSet& universe,
                                            const DiscoveryOptions& options) {
  PliCache cache(&rows);
  return EngineDiscoverAttrDeps(&cache, universe, options);
}

std::vector<FuncDep> EngineDiscoverFuncDeps(const std::vector<Tuple>& rows,
                                            const AttrSet& universe,
                                            const DiscoveryOptions& options) {
  PliCache cache(&rows);
  return EngineDiscoverFuncDeps(&cache, universe, options);
}

DependencySet EngineDiscoverDependencies(PliCache* cache,
                                         const AttrSet& universe,
                                         const DiscoveryOptions& options) {
  DependencySet out;
  for (FuncDep& fd : EngineDiscoverFuncDeps(cache, universe, options)) {
    out.AddFd(std::move(fd));
  }
  for (AttrDep& ad : EngineDiscoverAttrDeps(cache, universe, options)) {
    out.AddAd(std::move(ad));
  }
  return out;
}

DependencySet EngineDiscoverDependencies(const std::vector<Tuple>& rows,
                                         const AttrSet& universe,
                                         const DiscoveryOptions& options) {
  // One cache serves both passes: the FD pass leaves every candidate
  // partition and column warm for the AD pass. The worker pool shares it —
  // a warm candidate read holds the cache lock for one lookup, and cold
  // builds run outside it, deduplicated by the slot's shared future.
  PliCache cache(&rows);
  return EngineDiscoverDependencies(&cache, universe, options);
}

}  // namespace flexrel
