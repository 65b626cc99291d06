// An LRU-bounded cache of stripped partitions keyed by attribute set, built
// on one dictionary code column per attribute.
//
// Level-wise discovery asks for the partition of every candidate
// determinant; naively each request re-hashes the instance. The cache
// instead builds the partition of X = {a1 < ... < ak} as
//     Get({a1..a(k-1)}) ∩ column(ak),
// recursing down to single-attribute partitions. The base of everything is
// the per-attribute CodeColumn (engine/dictionary.h), the cache's only
// maintained per-attribute structure: a single-attribute partition is a
// counting sort over it (Pli::BuildFromCodes), its code array is the probe
// every product refines by (label = code — singleton codes drop out of a
// product on their own), and its code -> ascending rows buckets are the
// unstripped partner lists incremental maintenance consults. Columns and
// single-attribute partitions are pinned; because candidates of one lattice
// level share (k-1)-prefixes, almost every multi-attribute request reduces
// to a single integer-valued intersection over already cached operands.
// Invariant: every attribute of a cached partition has a pinned column (the
// builds fetch them; only the drop-everything paths drop columns, and they
// drop the partitions with them).
//
// Mutations: the cache is not bound to an immutable instance. When the
// underlying row vector changes, the owner reports the change through
// OnInsert/OnUpdate (or their batch forms), which *buffer* the delta; the
// next read (Get/CodeColumnFor — that includes every evaluator and
// validator access) flushes the pending buffer with a three-way policy
// decided by the net burst size b (PliCacheOptions::{batch_threshold,
// drop_threshold}):
//
//   - b < batch_threshold: per-row patching — only the clusters the mutated
//     row leaves or joins are touched, O(cluster) integer work per cached
//     structure per row.
//   - batch_threshold <= b < max(drop_threshold, rows/2): batched apply —
//     deltas are grouped by attribute, each affected code bucket is spliced
//     in one sorted pass (CodeColumn::ApplyBatch), the resulting per-code
//     cluster replacements group-apply to the single-attribute partitions
//     (Pli::ApplyBatch), and affected multi-attribute partitions are
//     group-patched around the splice or dropped for lazy re-intersection.
//     A 64-mutation burst costs one splice instead of 64 cluster surgeries.
//   - b >= max(drop_threshold, rows/2): everything (columns included) is
//     dropped for lazy from-scratch rebuilds — the burst is so large that
//     one deferred rebuild beats any patching.
//
// Deltas to one row coalesce in the buffer (first old state, final new
// state), so a row updated 64 times between queries flushes as one move.
// Both patch arms read partners off the columns *before* patching them, so
// partner lists describe the pre-delta state the partitions still hold. A
// multi-attribute entry whose patch (seed-bucket scan + verification) would
// cost more than re-intersecting its patched sub-partitions is dropped
// instead and rebuilt lazily on the next Get. PliCacheOptions::incremental
// = false disables the hooks' use by FlexibleRelation, restoring the
// drop-everything behavior as the cross-validation oracle; batch_threshold
// = SIZE_MAX pins the per-row path, the reference the batched one is
// benchmarked and soak-tested against.
//
// Concurrency: Get/CodeColumnFor are safe to call from many worker threads.
// In the default copy-on-write mode (PliCacheOptions::cow_reads) reads are
// *lock-free under write traffic*: an immutable Snapshot table (partitions
// + columns, shared_ptr'd) is published with one atomic swap per flush,
// readers resolve cached structures with a single acquire-load and never
// touch mu_, and a flush patches successor copies off to the side before
// swapping — the structures a reader holds are frozen at the epoch it
// loaded them. mu_ shrinks to a writers-only flush/publish (and
// cache-population) lock. With cow_reads = false the historical locked
// in-place mode applies: every read takes mu_, flushes the pending buffer,
// and may observe in-place patches. Either way, each cache slot holds a
// shared_future; the first requester of a key builds the partition outside
// the lock and fulfils the promise, later requesters block on the future
// instead of duplicating the work. Eviction is LRU over completed
// multi-attribute entries only — single-attribute partitions are the base
// of every product and stay resident (in COW mode lock-free hits skip the
// LRU touch, so eviction order degrades toward build order). Concurrent
// mutation still requires the *row vector* itself to be externally
// synchronized against readers that project tuples; the cache's own
// structures need no reader-side synchronization in COW mode. See
// src/engine/README.md, "Concurrency".

#ifndef FLEXREL_ENGINE_PLI_CACHE_H_
#define FLEXREL_ENGINE_PLI_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
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
#include "engine/pli_cache_options.h"

namespace flexrel {

/// Thread-safe partition cache over one instance. The referenced rows must
/// outlive the cache; every mutation of the rows must be reported through
/// OnInsert/OnUpdate (or the batch hooks, or the cache discarded) before
/// the next read.
class PliCache {
 public:
  using Options = PliCacheOptions;

  explicit PliCache(const std::vector<Tuple>* rows);
  PliCache(const std::vector<Tuple>* rows, Options options);

  PliCache(const PliCache&) = delete;
  PliCache& operator=(const PliCache&) = delete;

  /// The stripped partition by `attrs`, building (and caching) it when
  /// absent. Flushes pending mutation deltas first. Never returns null.
  std::shared_ptr<const Pli> Get(const AttrSet& attrs);

  /// The dictionary code column of `attr` (engine/dictionary.h): values
  /// interned into dense uint32_t codes, held columnar, with per-code row
  /// buckets — the base of the partition builds, intersections, selections,
  /// and hybrid sampling. Built once per attribute, pinned, and patched by
  /// the same flush that patches the partitions, so a fetched column is
  /// always exactly as fresh as a Get() from the same quiescent point.
  /// Flushes pending deltas first; never returns null; safe from many
  /// threads; same holding contract as Get results (in COW mode a held
  /// column is frozen at its epoch, in locked mode do not hold it across
  /// mutations).
  std::shared_ptr<const CodeColumn> CodeColumnFor(AttrId attr);

  // ------------------------------------------------------------------
  // Incremental maintenance hooks. FlexibleRelation calls these *after*
  // mutating its row vector. The hooks only append to the pending-delta
  // buffer (O(1) per row — inserts record nothing but the row id, updates
  // take ownership of the displaced old tuple); all patching is deferred
  // to the next read. Structures handed out by earlier Get/CodeColumnFor
  // calls are shared — a holder may observe the pre-flush instance until
  // some reader flushes, which is exactly the documented contract: do not
  // hold partition pointers across mutations; re-Get after mutating.
  // ------------------------------------------------------------------

  /// The row at index `row` == rows().size() - 1 was just appended.
  void OnInsert(Pli::RowId row);

  /// Rows first_row .. first_row + count - 1 were just appended.
  void OnInsertBatch(Pli::RowId first_row, size_t count);

  /// The row at index `row` changed from `old_row` to its current state in
  /// rows(). Attribute additions and removals are handled, so footnote-3
  /// type changes (an Update whose TypeDelta adds/drops variant
  /// attributes) arrive as one multi-attribute delta.
  void OnUpdate(Pli::RowId row, Tuple old_row);

  /// Batch form of OnUpdate: every (row, pre-mutation state) of one
  /// already-applied transactional batch, buffered under a single lock.
  void OnUpdateBatch(std::vector<std::pair<Pli::RowId, Tuple>> old_rows);

  const std::vector<Tuple>& rows() const { return *rows_; }
  const Options& options() const { return options_; }

  /// One coherent snapshot of every cache statistic, taken under a single
  /// lock — the ad-hoc per-counter accessors this replaces could tear
  /// across a concurrent flush. Tests assert on it; bench_pli prints it.
  struct StatsSnapshot {
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    size_t cached_entries = 0;
    /// Structures patched row-by-row by a flush taking the per-row path.
    size_t patches = 0;
    /// Cached partitions dropped by a flush because re-intersecting patched
    /// sub-partitions is cheaper than patching them (rebuilt lazily).
    size_t patch_rebuilds = 0;
    /// Structures group-applied by a flush taking the batched path.
    size_t batch_applies = 0;
    /// Flushes that dropped every cached structure because the burst
    /// crossed max(drop_threshold, rows/2).
    size_t full_drops = 0;
    /// Mutation deltas currently buffered (not yet flushed by a read).
    /// Always 0 at rest in COW mode, whose hooks flush eagerly.
    size_t pending_deltas = 0;
    /// Flushes that took any arm (per_row + batched + dropped).
    size_t flushes = 0;
    /// COW snapshot swaps driven by a flush. Identity: publishes == flushes
    /// in COW mode, 0 in locked mode (build-driven snapshot refreshes are
    /// counted separately, in telemetry only).
    size_t publishes = 0;
    /// Monotone snapshot version: bumps on every swap (flush publishes and
    /// build refreshes alike). 0 while nothing was ever published.
    uint64_t epoch = 0;
    /// Estimated byte footprints per structure kind, refreshed by the
    /// accounting sweep. All 0 while memory_budget_bytes == 0 (governance
    /// off — nothing is ever accounted).
    size_t bytes_plis = 0;
    size_t bytes_columns = 0;
    /// Entries evicted because the byte budget (not max_entries) was
    /// exceeded. Identity: 0 while governance is off.
    size_t budget_evictions = 0;
    /// Multi-attribute Gets served by building without caching because the
    /// cache could not get under budget by evicting.
    size_t uncached_serves = 0;
    /// Flushes that failed mid-patch (allocation failure or injected
    /// fault) and recovered by dropping every cached structure instead of
    /// publishing a half-patched table.
    size_t flush_aborts = 0;
  };
  StatsSnapshot Stats() const;

  /// True when no reader currently pins either snapshot slot — the leak
  /// check the cancellation and chaos suites assert after unwinding
  /// mid-flight work (a pin is held only for a shared_ptr copy, so at
  /// quiescence this must hold).
  bool SnapshotPinsDrained() const {
    return snapshot_slots_[0].Drained() && snapshot_slots_[1].Drained();
  }

  /// Epoch of the currently published snapshot — 0 before the first
  /// publish, monotone afterwards. Lock-free (one slot pin), so readers
  /// (and the concurrency soaks) can bracket a multi-structure read: equal
  /// epochs before and after guarantee every structure came from that one
  /// snapshot (a thread's observed epochs never go backwards). Always 0 in
  /// locked mode, which never publishes.
  uint64_t SnapshotEpoch() const;

 private:
  using PliPtr = std::shared_ptr<Pli>;
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
  /// dropped before any patching).
  struct NetDelta {
    Pli::RowId row;
    bool is_insert;
    const Tuple* old_row;  // into pending_; null for inserts
    AttrSet changed_attrs;
  };

  /// One published epoch: an immutable table of every completed cached
  /// structure at publish time. Readers resolve against these maps under
  /// a slot pin (see WithSnapshot) without taking mu_; the shared_ptrs
  /// they copy out keep a superseded epoch's structures alive for exactly
  /// as long as some reader still holds them. Never mutated after
  /// publication.
  struct Snapshot {
    std::unordered_map<AttrSet, std::shared_ptr<const Pli>, AttrSetHash> plis;
    std::unordered_map<AttrId, std::shared_ptr<const CodeColumn>> columns;
    uint64_t epoch = 0;
  };

  /// Builds the partition for `attrs` from cached sub-partitions.
  PliPtr BuildFor(const AttrSet& attrs);

  /// Rebuilds the snapshot table from the live maps and swaps it in with
  /// one release-store. `flush_publish` distinguishes the flush-driven
  /// swaps (the publishes == flushes identity) from build-driven refreshes
  /// (a miss adding a fresh entry). Requires mu_; COW mode only.
  void PublishLocked(bool flush_publish);

  /// Replaces every cached structure the imminent flush will patch with a
  /// same-content successor copy, so the patch mutates only objects no
  /// published snapshot (and no earlier reader) can reference. `changed`
  /// scopes the copies to affected attributes; inserts touch every entry
  /// (row-count bookkeeping) and every column (code arrays grow).
  /// Requires mu_; COW mode only.
  void CloneForCowLocked(const AttrSet& changed, bool has_inserts);

  /// Drops completed evictable entries beyond max_entries, then — when a
  /// memory budget is configured — keeps evicting least recently used
  /// evictable entries until the accounted footprint fits the budget.
  /// Requires mu_.
  void EvictLocked();

  /// Full accounting sweep over the live maps: per-kind estimated byte
  /// footprints into bytes_* (and the engine.cache.bytes_* gauges). Only
  /// called when options_.memory_budget_bytes != 0 — governance off means
  /// zero accounting work. Requires mu_.
  void AccountMemoryLocked();

  /// bytes_plis_ + bytes_columns_.
  size_t AccountedBytesLocked() const { return bytes_plis_ + bytes_columns_; }

  /// Applies the pending-delta buffer to every cached structure, choosing
  /// per-row replay, batched apply, or drop-everything by the net burst
  /// size (see file comment), then gives every patched column its
  /// staleness check (CodeColumn::MaybeReintern). Requires mu_; every read
  /// path calls this before touching entries_/code_columns_.
  void FlushPendingLocked();

  /// Per-row replay of one net insert/update: partitions are patched
  /// against partner lists read off the columns, then the columns take the
  /// row's new codes. Requires mu_.
  void ReplayInsertLocked(Pli::RowId row);
  void ReplayUpdateLocked(Pli::RowId row, const Tuple& old_row,
                          const AttrSet& changed);

  /// Group-applies net deltas >= batch_threshold: two-phase cluster
  /// patches for kept multi-attribute entries around one splice of the
  /// code columns and the single-attribute partitions. Requires mu_.
  void BatchApplyLocked(const std::vector<NetDelta>& net,
                        const AttrSet& changed, size_t insert_count);

  /// One phase of the multi-attribute group patch: groups the net-delta
  /// rows leaving (`erase`, old states against pre-batch columns) or
  /// joining (final states against post-batch columns) the partition by
  /// cluster and applies one ClusterPatch per affected cluster via
  /// Pli::ApplyBatch. `scan_budget` caps the cumulative partner-scan work
  /// across both phases at one re-intersection's worth. Returns false —
  /// the caller drops the entry — when the budget runs out, a single seed
  /// is oversized, or the scans contradict the clusters. Requires mu_.
  bool MultiAttrGroupPatchLocked(const AttrSet& attrs, Pli* pli,
                                 const std::vector<NetDelta>& net, bool erase,
                                 size_t* scan_budget);

  /// Upfront cost of group-patching a multi-attribute entry: the summed
  /// seed-bucket sizes of both phases' partner scans, computed from cheap
  /// column lookups before any scanning happens. Requires mu_.
  size_t EstimateMultiPatchScanLocked(const AttrSet& attrs,
                                      const std::vector<NetDelta>& net);

  /// Drops every cached structure for lazy rebuilds. Requires mu_.
  void DropAllLocked();

  /// Coalesces the pending buffer in place (first delta per row wins) so a
  /// read-free mutation storm cannot grow it past the touched-row count.
  /// Requires mu_.
  void CompactPendingLocked();

  /// Ascending rows agreeing with `proj` on `attrs`, excluding
  /// `exclude_row` (into `out`): the k-way intersection of the attributes'
  /// code buckets, smallest list seeding, larger ones refined by streaming
  /// merge or per-survivor binary search (adaptive set intersection). Pure
  /// column work, so the scan is coherent with whatever intermediate state
  /// the columns are in mid-flush. A non-null `scan_budget` is decremented
  /// by the seed size. Returns false — patching would cost more than a
  /// rebuild — when the seed bucket is oversized or would overdraw the
  /// budget. Requires mu_; `proj` must be defined on all of `attrs`.
  bool AgreeingRowsLocked(const AttrSet& attrs, const Tuple& proj,
                          Pli::RowId exclude_row, Pli::Cluster* out,
                          size_t* scan_budget);

  using EntryMap = std::unordered_map<AttrSet, Entry, AttrSetHash>;

  /// Drops entry `it` (and its LRU slot), returning the next iterator.
  /// Requires mu_.
  EntryMap::iterator DropEntryLocked(EntryMap::iterator it);

  enum class PatchResult {
    kPatched,    ///< the partition was modified in place
    kUntouched,  ///< the mutation does not affect this partition
    kRebuild,    ///< contradicted or cheaper to rebuild: drop the entry
  };

  /// The flush paths' shared walk over the cached partitions: unready
  /// entries (a build racing the mutation — a documented data race, shed
  /// defensively) and entries whose `patch` returns kRebuild are dropped
  /// for lazy rebuilding and counted in patch_rebuilds_; kPatched counts
  /// in `*patched_counter` (patches_ or batch_applies_). Callbacks must
  /// not create entries. Requires mu_.
  void PatchEntriesLocked(
      const std::function<PatchResult(const AttrSet&, Pli*)>& patch,
      size_t* patched_counter);

  const std::vector<Tuple>* rows_;
  Options options_;

  /// Double-buffered snapshot publication (left-right pattern). We roll
  /// this by hand instead of using std::atomic<std::shared_ptr<...>>
  /// because libstdc++ 12's _Sp_atomic releases its embedded spin lock in
  /// load() with a relaxed RMW, so the reader's plain _M_ptr read carries
  /// no release edge to the next store()'s plain write — a formal data
  /// race TSan rightly reports. Here every edge is an explicit
  /// acquire/release atomic the model (and TSan) fully orders.
  ///
  /// Protocol: readers pin a slot (readers++ on the slot the current index
  /// names, then re-check the index — a flip in between means the pin may
  /// have landed on the slot the writer is rebuilding, so unpin and
  /// retry), copy the shared_ptr, unpin. The single writer (under mu_)
  /// overwrites only the spare slot, and only after its pin count drains
  /// to zero; the store of snapshot_cur_ then publishes the new snapshot.
  /// Readers pin for a shared_ptr copy only, so the writer's drain wait is
  /// bounded and tiny.
  ///
  /// The index and pin-count operations are seq_cst on purpose: with only
  /// acquire/release, the reader's re-check load may legally re-read the
  /// STALE index value (plain coherence never forces a load forward), and
  /// a double flip (A: 0→1, B: rebuilding slot 0 after a drain that missed
  /// the pin) would let the re-check pass against a slot mid-rebuild. The
  /// single seq_cst total order forbids exactly that: a drain that missed
  /// the pin orders the earlier flip before the re-check, so the re-check
  /// reads either that flip (mismatch → retry) or a later flip of the same
  /// slot (whose release edge makes the rebuilt snap visible). On x86 the
  /// upgrade is free — seq_cst loads are plain movs, RMWs lock-prefixed
  /// either way.
  /// The pin count is striped across cachelines (readers pick a stripe by
  /// thread) so concurrent pins don't ping-pong one counter line; the
  /// writer drains every stripe. The seq_cst argument holds per stripe.
  struct SnapshotSlot {
    static constexpr size_t kPinStripes = 8;
    struct alignas(64) PinStripe {
      std::atomic<uint64_t> pins{0};
    };
    std::shared_ptr<const Snapshot> snap;
    PinStripe stripes[kPinStripes];

    std::atomic<uint64_t>& PinsForThisThread() {
      static std::atomic<size_t> next_stripe{0};
      thread_local const size_t stripe =
          next_stripe.fetch_add(1, std::memory_order_relaxed) % kPinStripes;
      return stripes[stripe].pins;
    }
    bool Drained() const {
      for (const PinStripe& s : stripes) {
        if (s.pins.load() != 0) return false;
      }
      return true;
    }
  };
  mutable SnapshotSlot snapshot_slots_[2];
  alignas(64) std::atomic<uint32_t> snapshot_cur_{0};

  /// The lock-free reader side of the protocol above: runs `fn` against
  /// the current snapshot (null until the first publish — readers fall
  /// through to the locked population path on a snapshot miss) while the
  /// slot is pinned, and returns fn's result. The raw pointer is valid
  /// for exactly the pinned extent; fn copies out the shared_ptr of the
  /// one structure it resolves, never the whole snapshot — taking
  /// ownership of the snapshot itself would put every reader's
  /// fetch_add/fetch_sub on one control-block cacheline, which is the
  /// contention this protocol exists to avoid. Never touches mu_.
  template <typename Fn>
  auto WithSnapshot(Fn&& fn) const {
    for (;;) {
      const uint32_t idx = snapshot_cur_.load();
      std::atomic<uint64_t>& pins =
          snapshot_slots_[idx].PinsForThisThread();
      pins.fetch_add(1);
      if (snapshot_cur_.load() == idx) {
        auto out = fn(snapshot_slots_[idx].snap.get());
        pins.fetch_sub(1);
        return out;
      }
      // Raced with a flip: the writer may already be rebuilding this
      // slot. Drop the pin and re-resolve the current index.
      pins.fetch_sub(1);
    }
  }

  /// Writers-only in COW mode (flush/publish and cache population); the
  /// read path of every locked-mode call as well.
  mutable std::mutex mu_;
  EntryMap entries_;
  std::unordered_map<AttrId, std::shared_ptr<CodeColumn>>
      code_columns_;  // pinned and patched; the per-attribute base
  std::list<AttrSet> lru_;  // front = most recently used, evictable keys only
  std::vector<PendingDelta> pending_;  // buffered mutations, oldest first
  size_t pending_compact_at_;  // next buffer size that triggers compaction
  std::atomic<size_t> hits_{0};  // atomic: bumped on the lock-free hit path
  size_t misses_ = 0;
  size_t evictions_ = 0;
  size_t patches_ = 0;
  size_t patch_rebuilds_ = 0;
  size_t batch_applies_ = 0;
  size_t full_drops_ = 0;
  size_t flushes_ = 0;
  size_t publishes_ = 0;
  uint64_t epoch_ = 0;
  // Memory-governance state, all meaningful only while
  // options_.memory_budget_bytes != 0 (zero otherwise).
  size_t bytes_plis_ = 0;
  size_t bytes_columns_ = 0;
  size_t budget_evictions_ = 0;
  size_t uncached_serves_ = 0;
  size_t flush_aborts_ = 0;
};

// Out of line so WithSnapshot's deduced return type is settled first.
inline uint64_t PliCache::SnapshotEpoch() const {
  return WithSnapshot([](const Snapshot* snap) {
    return snap == nullptr ? uint64_t{0} : snap->epoch;
  });
}

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PLI_CACHE_H_
