// Maintenance knobs for the partition cache, split out of pli_cache.h so
// that core/flexible_relation.h (which owns the options for its lazily
// attached cache) does not pull the whole engine into every core include.

#ifndef FLEXREL_ENGINE_PLI_CACHE_OPTIONS_H_
#define FLEXREL_ENGINE_PLI_CACHE_OPTIONS_H_

#include <cstddef>

namespace flexrel {

struct PliCacheOptions {
  /// Maximal number of cached multi-attribute partitions (single-attribute
  /// partitions are pinned and not counted). Least recently used entries
  /// are dropped beyond this bound.
  size_t max_entries = 1024;

  /// Byte budget over every structure the cache holds — partitions and
  /// code columns (estimated footprints;
  /// snapshot tables ride along as per-entry overhead). 0 (the default)
  /// disables governance entirely: no accounting sweeps run and nothing
  /// beyond max_entries is evicted, so the hot paths pay zero overhead.
  /// When set, each flush/build re-accounts the footprint
  /// (engine.cache.bytes_* gauges) and evicts least-recently-used
  /// multi-attribute entries until under budget
  /// (engine.cache.budget_evictions); when the pinned base structures
  /// alone exceed the budget, multi-attribute Gets degrade gracefully to
  /// building without caching (uncached_serves in Stats()) instead of
  /// growing without bound.
  size_t memory_budget_bytes = 0;

  /// Maintain cached partitions and code columns incrementally across
  /// instance mutations (PliCache::OnInsert/OnUpdate patch the affected
  /// clusters in place). False restores the pre-incremental behavior:
  /// FlexibleRelation drops the whole cache on every mutation and the next
  /// query rebuilds it from scratch — kept as the cross-validation oracle
  /// for the incremental path.
  bool incremental = true;

  /// Patch-vs-rebuild crossover for multi-attribute partitions: when the
  /// smallest code bucket seeding a partner scan exceeds
  /// max(patch_scan_limit, rows/2), the flush drops the entry for lazy
  /// re-intersection instead of patching it (counted in
  /// PliCache::Stats().patch_rebuilds). Tests lower it to force the
  /// rebuild path on small instances.
  size_t patch_scan_limit = 2048;

  /// Per-row-patch vs batched-apply crossover. Mutations are buffered as
  /// pending deltas and flushed on the next read; a flush of fewer than
  /// batch_threshold net deltas replays them row by row (the PR 3 patch
  /// path), a larger one group-applies them: code columns and
  /// single-attribute partitions are spliced in one sorted pass
  /// (CodeColumn::ApplyBatch / Pli::ApplyBatch) and multi-attribute
  /// partitions are group-patched or dropped for lazy re-intersection by
  /// a per-entry scan-cost estimate. The default sits where the splice
  /// (≈ two copies of every affected cluster) starts beating per-row
  /// surgery (≈ half a cluster memmove per mutation) on fat clusters.
  /// SIZE_MAX pins the per-row path — the cross-validation reference for
  /// the batched one.
  size_t batch_threshold = 16;

  /// Batched-apply vs drop-everything crossover: a flush of at least
  /// max(drop_threshold, rows/2) net deltas drops every cached structure
  /// (code columns included) for lazy from-scratch rebuilds — at that
  /// burst size one deferred rebuild beats any splicing, which is what the
  /// incremental = false oracle demonstrates at high mutation ratios.
  size_t drop_threshold = 2048;

  /// Epoch-style copy-on-write snapshot publication (the default): every
  /// flush patches successor copies of the affected partitions and code
  /// columns off to the side and publishes them with one atomic swap of an
  /// immutable snapshot table, so Get/CodeColumnFor serve
  /// cached structures with a single acquire-load and zero mutex
  /// acquisitions (telemetry: engine.pli_cache.reader_lock_waits stays 0).
  /// Mutation hooks flush eagerly under the writers-only lock — one
  /// publish per flush — so reads stay fresh without ever flushing.
  /// False pins the historical locked in-place mode: reads take the cache
  /// lock, flush lazily, and patch live structures — kept as the
  /// cross-validation oracle (and as the mode that coalesces read-free
  /// mutation storms across hook calls, which eager COW flushing gives
  /// up). The tradeoff is write amplification: a COW flush clones every
  /// structure it patches, so a single-row mutation stream pays
  /// O(cache footprint) per row where locked mode coalesces the stream
  /// into one adaptive flush at the next read. Concurrent serving wants
  /// the default; a single-threaded mutate-heavy pipeline should pin
  /// locked mode (bench_pli's mutate-then-query sweep does, and
  /// BM_SnapshotReadStorm* measures the COW side). See the "Concurrency"
  /// section of src/engine/README.md.
  bool cow_reads = true;
};

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PLI_CACHE_OPTIONS_H_
