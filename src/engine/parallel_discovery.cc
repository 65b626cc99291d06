#include "engine/parallel_discovery.h"

#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "core/closure.h"
#include "engine/pli_cache.h"
#include "telemetry/telemetry.h"
#include "util/fault.h"

namespace flexrel {

namespace {

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
// write site (fewer levels, an empty universe, a trip mid-level) would
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
template <typename Dep, typename RhsFn, typename PrunedFn, typename EmitFn>
std::vector<Dep> LevelWise(const AttrSet& universe,
                           const DiscoveryOptions& options,
                           size_t num_rows, const RhsFn& maximal_rhs,
                           const PrunedFn& pruned, const EmitFn& emit,
                           DiscoveryRunInfo* info) {
  ResetDiscoveryRunGauges();
  const ExecContext* exec = options.exec;
  DiscoveryRunInfo run;
  std::vector<Dep> out;
  DependencySet found;
  for (size_t k = 1; k <= options.max_lhs_size && k <= universe.size(); ++k) {
    if (Status st = CheckExec(exec); !st.ok()) {
      run.status = std::move(st);
      run.partial = true;
      break;
    }
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
    // Σ of per-candidate validation time across workers; against the
    // level's wall time and worker count it yields utilization — how much
    // of the fan-out the shared-counter pull actually kept busy.
    std::atomic<uint64_t> busy_ns{0};
    // Mid-level trip: workers poll the context at candidate boundaries and
    // raise the shared stop flag, so the whole pool drains within one
    // candidate each instead of finishing the level.
    std::atomic<bool> stop{false};
    ParallelFor(candidates.size(), threads, [&](size_t i) {
      if (stop.load(std::memory_order_relaxed)) return;
      if (exec != nullptr && !exec->Check().ok()) {
        stop.store(true, std::memory_order_relaxed);
        return;
      }
      if (traced) {
        const uint64_t t0 = telemetry::NowNs();
        rhss[i] = maximal_rhs(candidates[i]);
        busy_ns.fetch_add(telemetry::NowNs() - t0,
                          std::memory_order_relaxed);
      } else {
        rhss[i] = maximal_rhs(candidates[i]);
      }
    });
    // A trip mid-fan-out leaves this level partially validated; the
    // context is sticky, so re-checking here discards the in-flight level
    // entirely — the output stays the exact prefix of completed levels.
    if (Status st = CheckExec(exec); !st.ok()) {
      run.status = std::move(st);
      run.partial = true;
      ResetDiscoveryRunGauges();
      break;
    }
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
    run.completed_levels = k;
  }
  if (info != nullptr) *info = std::move(run);
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

std::vector<AttrDep> EngineDiscoverAttrDeps(
    DependencyValidator* validator, const AttrSet& universe,
    const DiscoveryOptions& options, DiscoveryRunInfo* info) {
  // The validator polls the context inside its cluster scans, so a trip
  // lands mid-candidate instead of waiting out a fat partition.
  validator->set_exec(options.exec);
  return LevelWise<AttrDep>(
      universe, options, validator->row_attrs().size(),
      [&](const AttrSet& lhs) {
        return validator->MaximalAdRhs(lhs, universe);
      },
      [](const DependencySet& found, const AttrDep& candidate) {
        return Implies(found, candidate, AxiomSystem::kAdOnly);
      },
      [](DependencySet* found, AttrDep dep) { found->AddAd(std::move(dep)); },
      info);
}

std::vector<FuncDep> EngineDiscoverFuncDeps(
    DependencyValidator* validator, const AttrSet& universe,
    const DiscoveryOptions& options, DiscoveryRunInfo* info) {
  validator->set_exec(options.exec);
  return LevelWise<FuncDep>(
      universe, options, validator->row_attrs().size(),
      [&](const AttrSet& lhs) {
        return validator->MaximalFdRhs(lhs, universe);
      },
      [](const DependencySet& found, const FuncDep& candidate) {
        return Implies(found, candidate);
      },
      [](DependencySet* found, FuncDep dep) { found->AddFd(std::move(dep)); },
      info);
}

std::vector<AttrDep> EngineDiscoverAttrDeps(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const DiscoveryOptions& options, DiscoveryRunInfo* info) {
  PliCache cache(&rows);
  DependencyValidator validator(&cache);
  return EngineDiscoverAttrDeps(&validator, universe, options, info);
}

std::vector<FuncDep> EngineDiscoverFuncDeps(
    const std::vector<Tuple>& rows, const AttrSet& universe,
    const DiscoveryOptions& options, DiscoveryRunInfo* info) {
  PliCache cache(&rows);
  DependencyValidator validator(&cache);
  return EngineDiscoverFuncDeps(&validator, universe, options, info);
}

DependencySet EngineDiscoverDependencies(DependencyValidator* validator,
                                         const AttrSet& universe,
                                         const DiscoveryOptions& options,
                                         DiscoveryRunInfo* info) {
  DependencySet out;
  DiscoveryRunInfo fd_info;
  DiscoveryRunInfo ad_info;
  for (FuncDep& fd :
       EngineDiscoverFuncDeps(validator, universe, options, &fd_info)) {
    out.AddFd(std::move(fd));
  }
  for (AttrDep& ad :
       EngineDiscoverAttrDeps(validator, universe, options, &ad_info)) {
    out.AddAd(std::move(ad));
  }
  if (info != nullptr) {
    // A sticky context trips both passes; report the first failure and the
    // smaller verified prefix so the combined result's contract holds for
    // every dependency kind at once.
    info->status =
        !fd_info.status.ok() ? std::move(fd_info.status)
                             : std::move(ad_info.status);
    info->partial = fd_info.partial || ad_info.partial;
    info->completed_levels =
        std::min(fd_info.completed_levels, ad_info.completed_levels);
  }
  return out;
}

DependencySet EngineDiscoverDependencies(const std::vector<Tuple>& rows,
                                         const AttrSet& universe,
                                         const DiscoveryOptions& options,
                                         DiscoveryRunInfo* info) {
  // One cache serves both passes: the FD pass leaves every candidate
  // partition warm for the AD pass. The worker pool shares it — a warm
  // candidate read holds the cache lock for one lookup, and cold builds
  // run outside it, deduplicated by the slot's shared future.
  PliCache cache(&rows);
  DependencyValidator validator(&cache);
  return EngineDiscoverDependencies(&validator, universe, options, info);
}

}  // namespace flexrel
