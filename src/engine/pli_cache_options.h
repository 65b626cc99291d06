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
  /// code columns (estimated footprints plus a flat per-entry bookkeeping
  /// charge). 0 (the default)
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

  /// Maintain the cache incrementally across instance mutations (the
  /// PliCache hooks buffer each delta; the next read splices the code
  /// columns and drops the partitions it touches). False restores the
  /// pre-incremental behavior: FlexibleRelation drops the whole cache on
  /// every mutation and the next query rebuilds it from scratch — kept as
  /// the cross-validation oracle for the incremental path.
  bool incremental = true;

  /// Splice vs drop-everything crossover. Mutations are buffered as
  /// pending deltas and flushed on the next read; a flush of fewer than
  /// max(drop_threshold, rows/2) net deltas splices them into the code
  /// columns (CodeColumn::ApplyBatch) and drops the partitions they touch,
  /// a larger one drops every cached structure (code columns included) for
  /// lazy from-scratch rebuilds — at that burst size one deferred rebuild
  /// beats any splicing, which is what the incremental = false oracle
  /// demonstrates at high mutation ratios. The floor decides the arm in
  /// bench_pli's BM_BulkLoadThenQuery/rows:1000.
  size_t drop_threshold = 2048;
};

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PLI_CACHE_OPTIONS_H_
