// An LRU-bounded cache of stripped partitions keyed by attribute set, built
// on one dictionary code column per attribute.
//
// Level-wise discovery asks for the partition of every candidate
// determinant; naively each request re-hashes the instance. The cache
// instead builds the partition of X = {a1 < ... < ak} as
//     Get({a1..a(k-1)}) ∩ column(ak),
// recursing down to single-attribute partitions. The base of everything is
// the per-attribute CodeColumn (engine/dictionary.h), the only structure a
// flush maintains: a single-attribute partition is a counting sort over it
// (Pli::BuildFromCodes), and its code array is the probe every product
// refines by (label = code — singleton codes drop out of a product on their
// own). Columns and single-attribute partitions are pinned; because
// candidates of one lattice level share (k-1)-prefixes, almost every
// multi-attribute request reduces to a single integer-valued intersection
// over already cached operands. Invariant: every attribute of a cached
// partition has a pinned column (the builds fetch them; only the
// drop-everything paths drop columns, and they drop the partitions with
// them).
//
// Mutations: the cache is not bound to an immutable instance. When the
// underlying row vector changes, the owner reports the change through
// OnInsertBatch/OnUpdateBatch, which *buffer* the delta; the next read
// (Get/CodeColumnFor — that includes every evaluator and validator access)
// flushes the pending buffer. The flush either splices or drops, decided by
// the net burst size b:
//
//   - b < max(2048, rows/2): splice — deltas are grouped by attribute and
//     each affected code bucket is spliced in place from its lowest
//     touched row (CodeColumn::ApplyBatch). Every cached partition
//     the burst touches is dropped: those over a changed attribute, or all
//     of them when the burst appends rows. The next Get rebuilds a dropped
//     partition from the spliced columns (a counting sort, then one
//     intersection per further attribute); partitions over untouched
//     attributes stay as built. Partitions are never patched: the live
//     read paths (selections, join-order estimates) read the columns, and
//     discovery and Σ audits run over a freshly loaded instance, so no
//     caller re-reads a partition of a relation it has just mutated.
//   - b >= max(2048, rows/2): everything (columns included) is dropped for
//     lazy from-scratch rebuilds — the burst is so large that one deferred
//     rebuild beats splicing every column (bench_pli's
//     BM_BulkLoadThenQuery/rows:10000 takes this arm).
//
// Deltas to one row coalesce in the buffer (first old state, final new
// state), so a row updated 64 times between queries flushes as one move.
// The cross-validation oracle is a fresh PliCache over the same rows: the
// from-scratch rebuild every soak compares against.
//
// Concurrency: Get/CodeColumnFor are safe to call from many worker threads
// over a quiescent instance (parallel discovery's workers do). Every read
// takes mu_ to flush the pending buffer and resolve its key; each cache
// slot holds a shared_future, so the first requester of a key builds the
// partition outside the lock and fulfils the promise, and later requesters
// block on the future instead of duplicating the work. Eviction is LRU over
// completed multi-attribute entries beyond 1024 of them — single-attribute
// partitions are the base of every product and stay resident. Mutations
// (and their hooks) must be serialized against readers by the caller: a
// flush splices live columns in place, so a pointer held across a mutation
// is invalid. See src/engine/README.md, "Concurrency".

#ifndef FLEXREL_ENGINE_PLI_CACHE_H_
#define FLEXREL_ENGINE_PLI_CACHE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/dictionary.h"
#include "engine/pli.h"

namespace flexrel {

/// Thread-safe partition cache over one instance. The referenced rows must
/// outlive the cache; every mutation of the rows must be reported through
/// OnInsertBatch/OnUpdateBatch (or the cache discarded) before the next
/// read.
class PliCache {
 public:
  explicit PliCache(const std::vector<Tuple>* rows);

  PliCache(const PliCache&) = delete;
  PliCache& operator=(const PliCache&) = delete;

  /// The stripped partition by `attrs`, building (and caching) it when
  /// absent. Flushes pending mutation deltas first. Never returns null.
  std::shared_ptr<const Pli> Get(const AttrSet& attrs);

  /// The dictionary code column of `attr` (engine/dictionary.h): values
  /// interned into dense uint32_t codes, held columnar, with per-code row
  /// buckets — the base of the partition builds, intersections and
  /// selections. Built once per attribute, pinned, and spliced by the same
  /// flush that drops the partitions it touches, so a fetched column is
  /// always exactly as fresh as a Get() from the same quiescent point.
  /// Flushes pending deltas first; never returns null; safe from many
  /// threads; same holding contract as Get results (do not hold it across
  /// mutations).
  std::shared_ptr<const CodeColumn> CodeColumnFor(AttrId attr);

  // ------------------------------------------------------------------
  // Incremental maintenance hooks. FlexibleRelation calls these *after*
  // mutating its row vector. The hooks only append to the pending-delta
  // buffer (O(1) per row — inserts record nothing but the row id, updates
  // take ownership of the displaced old tuple); all maintenance is
  // deferred to the next read. Structures handed out by earlier
  // Get/CodeColumnFor calls are shared — a holder may observe the
  // pre-flush instance until some reader flushes, which is exactly the
  // documented contract: do not hold partition pointers across mutations;
  // re-Get after mutating.
  // ------------------------------------------------------------------

  /// Rows first_row .. first_row + count - 1 were just appended.
  void OnInsertBatch(Pli::RowId first_row, size_t count);

  /// Every (row, pre-mutation state) of one already-applied mutation, its
  /// current state being in rows(). Attribute additions and removals are
  /// handled, so footnote-3 type changes (an update whose TypeDelta
  /// adds/drops variant attributes) arrive as one multi-attribute delta.
  void OnUpdateBatch(std::vector<std::pair<Pli::RowId, Tuple>> old_rows);

  const std::vector<Tuple>& rows() const { return *rows_; }

  /// One coherent snapshot of every cache statistic, taken under a single
  /// lock — the ad-hoc per-counter accessors this replaces could tear
  /// across a concurrent flush. Tests assert on it; bench_pli prints it.
  struct StatsSnapshot {
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    size_t cached_entries = 0;
    /// Cached partitions a splicing flush dropped because the burst touched
    /// them (or because their build raced the mutation); each is rebuilt
    /// lazily from the spliced columns by the next Get.
    size_t patch_rebuilds = 0;
    /// Code columns spliced by a flush.
    size_t batch_applies = 0;
    /// Flushes that dropped every cached structure because the burst
    /// crossed max(2048, rows/2).
    size_t full_drops = 0;
    /// Mutation deltas currently buffered (not yet flushed by a read).
    size_t pending_deltas = 0;
    /// Flushes that took either arm (batched + dropped).
    size_t flushes = 0;
    /// Flushes that failed mid-splice (allocation failure or injected
    /// fault) and recovered by dropping every cached structure instead of
    /// keeping a half-spliced one.
    size_t flush_aborts = 0;
  };
  StatsSnapshot Stats() const;

 private:
  using PliPtr = std::shared_ptr<const Pli>;  // immutable once built
  struct Entry {
    std::shared_future<PliPtr> future;
    /// Position in lru_; only meaningful when evictable.
    std::list<AttrSet>::iterator lru_pos;
    bool evictable = false;
  };

  /// One buffered mutation: an append (old_row empty, the row's state is
  /// read from rows() at flush time) or an update (old_row = the displaced
  /// pre-mutation tuple).
  struct PendingDelta {
    Pli::RowId row;
    bool is_insert;
    Tuple old_row;
  };

  /// One coalesced mutation at flush time: the row's first recorded old
  /// state (or "inserted"), its final state being rows()[row], and the
  /// attributes whose value or presence the net move changes — diffed once
  /// here, consumed by every flush stage (a no-op update diffs to ∅ and is
  /// dropped before any splicing).
  struct NetDelta {
    Pli::RowId row;
    bool is_insert;
    const Tuple* old_row;  // into pending_; null for inserts
    AttrSet changed_attrs;
  };

  /// Builds the partition for `attrs` from cached sub-partitions.
  PliPtr BuildFor(const AttrSet& attrs);

  /// Drops the least recently used completed evictable entries beyond the
  /// LRU bound. Requires mu_.
  void EvictLocked();

  /// Applies the pending-delta buffer to every cached structure — one
  /// splice, or drop-everything past the burst-size bound (see file
  /// comment). Requires mu_; every read path calls this before touching
  /// entries_/code_columns_.
  void FlushPendingLocked();

  /// The splice: drops every cached partition the burst touches, then
  /// splices each affected code column and gives it its staleness check
  /// (CodeColumn::MaybeReintern). Requires mu_.
  void SpliceLocked(const std::vector<NetDelta>& net, const AttrSet& changed,
                    size_t insert_count);

  /// Drops every cached structure for lazy rebuilds. Requires mu_.
  void DropAllLocked();

  /// Coalesces the pending buffer in place (first delta per row wins) so a
  /// read-free mutation storm cannot grow it past the touched-row count.
  /// Requires mu_.
  void CompactPendingLocked();

  using EntryMap = std::unordered_map<AttrSet, Entry, AttrSetHash>;

  /// Drops entry `it` (and its LRU slot), returning the next iterator.
  /// Requires mu_.
  EntryMap::iterator DropEntryLocked(EntryMap::iterator it);

  const std::vector<Tuple>* rows_;

  /// Guards every member below; held by every read and hook, never across
  /// a partition or column build.
  mutable std::mutex mu_;
  EntryMap entries_;
  std::unordered_map<AttrId, std::shared_ptr<CodeColumn>>
      code_columns_;  // pinned and spliced; the per-attribute base
  std::list<AttrSet> lru_;  // front = most recently used, evictable keys only
  std::vector<PendingDelta> pending_;  // buffered mutations, oldest first
  size_t pending_compact_at_;  // next buffer size that triggers compaction
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  size_t patch_rebuilds_ = 0;
  size_t batch_applies_ = 0;
  size_t full_drops_ = 0;
  size_t flushes_ = 0;
  size_t flush_aborts_ = 0;
};

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PLI_CACHE_H_
