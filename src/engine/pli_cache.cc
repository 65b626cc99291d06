#include "engine/pli_cache.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/fault.h"

namespace flexrel {

namespace {

// Once the pending buffer holds this many raw deltas, the hooks coalesce it
// in place (first delta per row wins — exactly what the flush would keep),
// bounding the buffer by the number of touched rows even when a mutation
// storm runs without interleaved reads.
constexpr size_t kPendingCompactThreshold = 4096;

// Flat bookkeeping charge per map entry for the memory-budget accounting
// sweep: hash slot, future/control block, LRU node, snapshot-table mirror.
// The budget is advisory — this keeps the estimate honest without
// sizeof-walking every node type.
constexpr size_t kPerEntryOverhead = 160;

// An already-fulfilled slot: what a COW clone (and nothing else) installs —
// the original future's builder protocol already ran to completion.
std::shared_future<std::shared_ptr<Pli>> ReadyFuture(std::shared_ptr<Pli> p) {
  std::promise<std::shared_ptr<Pli>> promise;
  promise.set_value(std::move(p));
  return promise.get_future().share();
}

}  // namespace

PliCache::PliCache(const std::vector<Tuple>* rows)
    : PliCache(rows, Options()) {}

PliCache::PliCache(const std::vector<Tuple>* rows, Options options)
    : rows_(rows),
      options_(options),
      pending_compact_at_(kPendingCompactThreshold) {}

std::shared_ptr<const Pli> PliCache::Get(const AttrSet& attrs) {
  // Nested lookups (BuildFor's prefix recursion) each count —
  // every Get() bumps exactly one of hits/misses, so the telemetry
  // identity hits + misses == lookups holds at any quiescent point.
  FLEXREL_TELEMETRY_COUNT("engine.pli_cache.lookups", 1);
  FLEXREL_TELEMETRY_LATENCY(get_timer, "engine.pli_cache.get_ns");
  if (options_.cow_reads) {
    // The snapshot read path: one slot pin, no mutex, no flush (COW
    // hooks flush eagerly, so the snapshot is always current). A miss
    // falls through to the locked path below — that is cache *population*
    // (write-side work), not a reader lock wait.
    std::shared_ptr<const Pli> hit =
        WithSnapshot([&](const Snapshot* snap) -> std::shared_ptr<const Pli> {
          if (snap == nullptr) return nullptr;
          auto it = snap->plis.find(attrs);
          return it == snap->plis.end() ? nullptr : it->second;
        });
    if (hit != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.hits", 1);
      return hit;
    }
  } else {
    // Locked-mode reads take mu_ by design; the counter existing (and
    // staying 0 in COW mode) is the regression tripwire for the lock-free
    // read-path guarantee.
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.reader_lock_waits", 1);
  }
  std::promise<PliPtr> promise;
  std::shared_future<PliPtr> future;
  {
    std::unique_lock<std::mutex> lock(mu_);
    FlushPendingLocked();
    auto it = entries_.find(attrs);
    if (it != entries_.end()) {
      ++hits_;
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.hits", 1);
      if (it->second.evictable) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      }
      // Copy the future and wait outside the lock: the thread fulfilling it
      // may itself need the lock for recursive sub-partition lookups.
      std::shared_future<PliPtr> pending = it->second.future;
      lock.unlock();
      return pending.get();
    }
    ++misses_;
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.misses", 1);
    if (options_.memory_budget_bytes != 0 && attrs.size() > 1) {
      EvictLocked();
      if (AccountedBytesLocked() > options_.memory_budget_bytes) {
        // Nothing evictable is left and the pinned bases alone exceed the
        // budget: degrade gracefully to the uncached oracle path — build
        // and serve this partition without caching it.
        ++uncached_serves_;
        FLEXREL_TELEMETRY_COUNT("engine.cache.uncached_serves", 1);
        lock.unlock();
        return BuildFor(attrs);
      }
    }
    Entry entry;
    entry.future = future = promise.get_future().share();
    entry.evictable = attrs.size() > 1;
    if (entry.evictable) {
      lru_.push_front(attrs);
      entry.lru_pos = lru_.begin();
    }
    entries_.emplace(attrs, std::move(entry));
    EvictLocked();
  }
  // Build outside the lock; concurrent requesters for the same key block on
  // the shared future instead of rebuilding.
  try {
    PliPtr pli = BuildFor(attrs);
    promise.set_value(std::move(pli));
    if (options_.cow_reads || options_.memory_budget_bytes != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (options_.memory_budget_bytes != 0) {
        AccountMemoryLocked();
        EvictLocked();
      }
      // Fold the fresh entry into the published table so every later read
      // resolves it lock-free.
      if (options_.cow_reads) PublishLocked(/*flush_publish=*/false);
    }
  } catch (...) {
    // Un-poison the slot before publishing the failure: requesters already
    // waiting see this exception, but the next Get() rebuilds instead of
    // rethrowing a stale (possibly transient) error forever.
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(attrs);
      if (it != entries_.end()) DropEntryLocked(it);
    }
    promise.set_exception(std::current_exception());
  }
  return future.get();
}

PliCache::PliPtr PliCache::BuildFor(const AttrSet& attrs) {
  // Chaos harness hook: a build that throws (here: an injected allocation
  // failure) unwinds through Get's un-poisoning catch, so the next request
  // rebuilds instead of inheriting a stale error.
  FLEXREL_FAULT_INJECT("pli_cache.build");
  if (attrs.empty()) return std::make_shared<Pli>(Pli::Build(*rows_, attrs));
  // X = prefix ∪ {last}. The last attribute's column is the input either
  // way: a single-attribute partition is a counting sort over it (the
  // column hashes each value once in its lifetime, so partition rebuilds
  // never hash at all), and a product refines the cached prefix partition
  // (the more refined operand, hence the outer one) by its code array.
  const AttrId last = attrs.ids().back();
  std::shared_ptr<const CodeColumn> column = CodeColumnFor(last);
  if (attrs.size() == 1) {
    return std::make_shared<Pli>(
        Pli::BuildFromCodes(column->codes(), column->code_bound()));
  }
  std::shared_ptr<const Pli> left = Get(attrs.Minus(AttrSet::Of(last)));
  return std::make_shared<Pli>(
      left->IntersectWithProbe(column->codes(), column->code_bound()));
}

std::shared_ptr<const CodeColumn> PliCache::CodeColumnFor(AttrId attr) {
  if (options_.cow_reads) {
    std::shared_ptr<const CodeColumn> hit = WithSnapshot(
        [&](const Snapshot* snap) -> std::shared_ptr<const CodeColumn> {
          if (snap == nullptr) return nullptr;
          auto it = snap->columns.find(attr);
          return it == snap->columns.end() ? nullptr : it->second;
        });
    if (hit != nullptr) return hit;
  } else {
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.reader_lock_waits", 1);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    FlushPendingLocked();
    auto it = code_columns_.find(attr);
    if (it != code_columns_.end()) return it->second;
  }
  // Build outside the lock — an O(rows) intern pass must not stall
  // concurrent Get()s, and it is the only time this attribute's values are
  // ever hashed.
  auto column = std::make_shared<CodeColumn>(CodeColumn::Build(*rows_, attr));
  std::lock_guard<std::mutex> lock(mu_);
  // Racing builders compute identical columns; first insert wins.
  std::shared_ptr<const CodeColumn> memo =
      code_columns_.emplace(attr, std::move(column)).first->second;
  if (options_.cow_reads) PublishLocked(/*flush_publish=*/false);
  return memo;
}

bool PliCache::AgreeingRowsLocked(const AttrSet& attrs, const Tuple& proj,
                                  Pli::RowId exclude_row, Pli::Cluster* out,
                                  size_t* scan_budget) {
  out->clear();
  // The partners are exactly the k-way intersection of the attributes'
  // code buckets: pure sorted-integer work against the columns' current
  // state (mid-flush the row vector is already ahead of the structures,
  // so touching tuples here would observe not-yet-applied states).
  std::vector<const Pli::Cluster*> lists;
  lists.reserve(attrs.size());
  for (AttrId a : attrs) {
    auto column = code_columns_.find(a);
    if (column == code_columns_.end()) return false;  // defensive: pinned
    const Pli::Cluster& rows = column->second->RowsOf(*proj.Get(a));
    if (rows.empty()) return true;  // value uncarried -> no partners
    lists.push_back(&rows);
  }
  std::sort(lists.begin(), lists.end(),
            [](const Pli::Cluster* a, const Pli::Cluster* b) {
              return a->size() < b->size();
            });
  const Pli::Cluster* seed = lists.front();
  // Patch vs rebuild: a seed cluster spanning most of the instance — or a
  // burst whose cumulative scans overdraw the budget — costs more than one
  // intersection pass over the patched sub-partitions; tell the caller to
  // drop and re-intersect instead.
  if (seed->size() >
      std::max(options_.patch_scan_limit, rows_->size() / 2)) {
    return false;
  }
  if (scan_budget != nullptr) {
    if (seed->size() > *scan_budget) return false;
    *scan_budget -= seed->size();
  }
  out->reserve(seed->size());
  for (Pli::RowId r : *seed) {
    if (r != exclude_row) out->push_back(r);
  }
  // Refine by each larger list: stream it when the sizes are comparable,
  // binary-search per survivor when it dwarfs them (adaptive set
  // intersection — fat clusters cost log, not a full scan).
  for (size_t l = 1; l < lists.size() && !out->empty(); ++l) {
    const Pli::Cluster& other = *lists[l];
    size_t kept = 0;
    if (other.size() / out->size() >= 16) {
      for (Pli::RowId r : *out) {
        if (std::binary_search(other.begin(), other.end(), r)) {
          (*out)[kept++] = r;
        }
      }
    } else {
      size_t j = 0;
      for (Pli::RowId r : *out) {
        while (j < other.size() && other[j] < r) ++j;
        if (j < other.size() && other[j] == r) (*out)[kept++] = r;
      }
    }
    out->resize(kept);
  }
  return true;
}

PliCache::EntryMap::iterator PliCache::DropEntryLocked(
    EntryMap::iterator it) {
  if (it->second.evictable) lru_.erase(it->second.lru_pos);
  return entries_.erase(it);
}

void PliCache::PatchEntriesLocked(
    const std::function<PatchResult(const AttrSet&, Pli*)>& patch,
    size_t* patched_counter) {
  using namespace std::chrono_literals;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.future.wait_for(0s) != std::future_status::ready) {
      ++patch_rebuilds_;
      it = DropEntryLocked(it);
      continue;
    }
    switch (patch(it->first, it->second.future.get().get())) {
      case PatchResult::kRebuild:
        ++patch_rebuilds_;
        it = DropEntryLocked(it);
        break;
      case PatchResult::kPatched:
        ++*patched_counter;
        ++it;
        break;
      case PatchResult::kUntouched:
        ++it;
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation hooks: append to the pending buffer, O(1) per row. In locked
// mode all patching is deferred to the next read's flush; in COW mode the
// hook flushes (and publishes) eagerly under the same lock hold, so the
// published snapshot is always current and readers never flush — the
// ordering contract is: mutate rows, hook buffers + patches successor
// copies + swaps the snapshot, release mu_, readers see the new epoch.
// ---------------------------------------------------------------------------

void PliCache::OnInsert(Pli::RowId row) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back({row, /*is_insert=*/true, Tuple()});
  if (options_.cow_reads) FlushPendingLocked();
}

void PliCache::OnInsertBatch(Pli::RowId first_row, size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.reserve(pending_.size() + count);
  for (size_t i = 0; i < count; ++i) {
    pending_.push_back(
        {static_cast<Pli::RowId>(first_row + i), /*is_insert=*/true, Tuple()});
  }
  if (options_.cow_reads) FlushPendingLocked();
}

void PliCache::OnUpdate(Pli::RowId row, Tuple old_row) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back({row, /*is_insert=*/false, std::move(old_row)});
  if (options_.cow_reads) {
    FlushPendingLocked();
  } else if (pending_.size() >= pending_compact_at_) {
    CompactPendingLocked();
  }
}

void PliCache::OnUpdateBatch(
    std::vector<std::pair<Pli::RowId, Tuple>> old_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.reserve(pending_.size() + old_rows.size());
  for (auto& [row, old_row] : old_rows) {
    pending_.push_back({row, /*is_insert=*/false, std::move(old_row)});
  }
  if (options_.cow_reads) {
    FlushPendingLocked();
  } else if (pending_.size() >= pending_compact_at_) {
    CompactPendingLocked();
  }
}

void PliCache::CompactPendingLocked() {
  // Keep the first delta per row — an insert stays an insert, the oldest
  // recorded old state survives — which is exactly the coalescing the
  // flush applies anyway.
  std::unordered_set<Pli::RowId> seen;
  seen.reserve(pending_.size());
  std::vector<PendingDelta> compact;
  compact.reserve(pending_.size() / 2);
  for (PendingDelta& d : pending_) {
    if (seen.insert(d.row).second) compact.push_back(std::move(d));
  }
  pending_ = std::move(compact);
  // Doubling schedule: when the buffer is dominated by distinct rows,
  // compaction cannot shrink it — re-trying on every hook would go
  // quadratic against a read-free mutation storm.
  pending_compact_at_ =
      std::max(kPendingCompactThreshold, pending_.size() * 2);
}

// ---------------------------------------------------------------------------
// The flush: coalesce the buffer to net per-row deltas, then patch per row,
// group-apply, or drop everything by the net burst size.
// ---------------------------------------------------------------------------

void PliCache::FlushPendingLocked() {
  if (pending_.empty()) return;
  telemetry::ScopedSpan flush_span("pli_cache.flush");
  FLEXREL_TELEMETRY_LATENCY(flush_timer, "engine.pli_cache.flush_ns");
  // Coalesce to one net delta per row: the first recorded old state wins,
  // the final state is read straight from the (fully mutated) rows. The
  // single-delta case — the per-mutation cadence the PR 3 path served —
  // skips the dedup machinery entirely.
  std::vector<NetDelta> net;
  net.reserve(pending_.size());
  if (pending_.size() == 1) {
    const PendingDelta& d = pending_.front();
    net.push_back(
        {d.row, d.is_insert, d.is_insert ? nullptr : &d.old_row, AttrSet()});
  } else {
    std::unordered_set<Pli::RowId> seen;
    seen.reserve(pending_.size());
    for (const PendingDelta& d : pending_) {
      if (seen.insert(d.row).second) {
        net.push_back({d.row, d.is_insert,
                       d.is_insert ? nullptr : &d.old_row, AttrSet()});
      }
    }
  }
  // Diff each net delta exactly once; every later stage reads the result.
  // Updates that net out (old state == final state) diff to ∅ and vanish —
  // e.g. a row moved away and back between two queries, or re-valued to
  // what it already held.
  size_t insert_count = 0;
  AttrSet changed;  // attributes whose partitions/columns may shift
  for (NetDelta& d : net) {
    const Tuple& now = (*rows_)[d.row];
    if (d.is_insert) {
      ++insert_count;
      d.changed_attrs = now.attrs();
    } else {
      for (const auto& [attr, value] : d.old_row->fields()) {
        const Value* nv = now.Get(attr);
        if (nv == nullptr || *nv != value) d.changed_attrs.Insert(attr);
      }
      for (const auto& [attr, value] : now.fields()) {
        (void)value;
        if (!d.old_row->Has(attr)) d.changed_attrs.Insert(attr);
      }
    }
    for (AttrId a : d.changed_attrs) changed.Insert(a);
  }
  std::erase_if(net, [](const NetDelta& d) {
    return !d.is_insert && d.changed_attrs.empty();
  });
  if (net.empty()) {
    if (flush_span.active()) flush_span.SetDetail("arm=noop b=0");
    pending_.clear();
    pending_compact_at_ = kPendingCompactThreshold;
    return;
  }
  // One flush == one arm taken, so per_row + batched + dropped == flushes.
  // The span detail carries the net burst size and the estimate the arm
  // decision compared it against.
  const size_t b = net.size();
  ++flushes_;
  FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flushes", 1);
  FLEXREL_TELEMETRY_HIST("engine.pli_cache.flush.burst", b);
  const size_t drop_at = std::max(options_.drop_threshold, rows_->size() / 2);
  if (b >= drop_at) {
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush.dropped", 1);
    if (flush_span.active()) {
      flush_span.SetDetail("arm=drop b=" + std::to_string(b) +
                           " est=drop_at:" + std::to_string(drop_at));
    }
    DropAllLocked();
    pending_.clear();
    pending_compact_at_ = kPendingCompactThreshold;
    if (options_.memory_budget_bytes != 0) AccountMemoryLocked();
    // Dropping mutates no structure, so nothing needs cloning — but the
    // published table must stop resolving the dropped keys.
    if (options_.cow_reads) PublishLocked(/*flush_publish=*/true);
    return;
  }
  // Failure atomicity: everything from the clone to the last patch arm
  // allocates (successor copies, splices, interned values), and a
  // throw mid-patch would otherwise leave live structures half-patched.
  // The recovery is the strong guarantee at cache granularity: drop every
  // cached structure (the row vector is the source of truth; reads rebuild
  // lazily) and publish the dropped state, so no reader — locked or COW —
  // can ever observe a partially applied flush. The fault sites sit
  // *outside* PublishLocked on purpose: the recovery path must traverse no
  // injection point.
  try {
    FLEXREL_FAULT_INJECT("pli_cache.flush.clone");
    // COW: everything the patch arms below will touch is replaced by a
    // same-content successor first, so the live epoch's structures stay
    // frozen for their readers and the swap at the end is the only point
    // new state becomes visible.
    if (options_.cow_reads) CloneForCowLocked(changed, insert_count > 0);
    FLEXREL_FAULT_INJECT("pli_cache.flush.patch");
    if (b < options_.batch_threshold) {
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush.per_row", 1);
      if (flush_span.active()) {
        flush_span.SetDetail(
            "arm=per_row b=" + std::to_string(b) +
            " est=batch_at:" + std::to_string(options_.batch_threshold));
      }
      for (const NetDelta& d : net) {
        if (d.is_insert) {
          ReplayInsertLocked(d.row);
        } else {
          ReplayUpdateLocked(d.row, *d.old_row, d.changed_attrs);
        }
      }
    } else {
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush.batched", 1);
      if (flush_span.active()) {
        flush_span.SetDetail(
            "arm=batched b=" + std::to_string(b) +
            " est=batch_at:" + std::to_string(options_.batch_threshold) +
            " drop_at:" + std::to_string(drop_at));
      }
      BatchApplyLocked(net, changed, insert_count);
    }
    // Re-interning recodes a column, so it waits until both arms are done
    // reading partners off the codes; only the columns this flush patched
    // (and, in COW mode, cloned) are checked.
    for (auto& [attr, column] : code_columns_) {
      if (insert_count > 0 || changed.Contains(attr)) column->MaybeReintern();
    }
    FLEXREL_FAULT_INJECT("pli_cache.flush.publish");
  } catch (...) {
    ++flush_aborts_;
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush_aborts", 1);
    if (flush_span.active()) {
      flush_span.SetDetail("arm=aborted b=" + std::to_string(b));
    }
    DropAllLocked();
    pending_.clear();
    pending_compact_at_ = kPendingCompactThreshold;
    if (options_.memory_budget_bytes != 0) AccountMemoryLocked();
    if (options_.cow_reads) PublishLocked(/*flush_publish=*/true);
    // Swallowed: the flush recovered to a consistent (empty) cache, and
    // the mutation itself already succeeded against the row vector.
    return;
  }
  pending_.clear();
  pending_compact_at_ = kPendingCompactThreshold;
  if (options_.memory_budget_bytes != 0) {
    AccountMemoryLocked();
    EvictLocked();  // the flush may have grown structures past the budget
  }
  if (options_.cow_reads) PublishLocked(/*flush_publish=*/true);
}

void PliCache::CloneForCowLocked(const AttrSet& changed, bool has_inserts) {
  using namespace std::chrono_literals;
  for (auto& [attrs, entry] : entries_) {
    // Updates leave entries outside `changed` untouched; inserts patch the
    // row-count bookkeeping of every entry. Unready slots are skipped —
    // the flush arms drop them anyway, never patch them.
    if (!has_inserts && !attrs.Intersects(changed)) continue;
    if (entry.future.wait_for(0s) != std::future_status::ready) continue;
    entry.future = ReadyFuture(std::make_shared<Pli>(*entry.future.get()));
  }
  for (auto& [attr, column] : code_columns_) {
    // Inserts grow every column's code vector, not just changed attrs.
    if (!has_inserts && !changed.Contains(attr)) continue;
    column = std::make_shared<CodeColumn>(*column);
  }
}

void PliCache::PublishLocked(bool flush_publish) {
  using namespace std::chrono_literals;
  auto snap = std::make_shared<Snapshot>();
  snap->plis.reserve(entries_.size());
  for (const auto& [attrs, entry] : entries_) {
    // In-flight builds join the table on their own post-build refresh.
    if (entry.future.wait_for(0s) != std::future_status::ready) continue;
    snap->plis.emplace(attrs, entry.future.get());
  }
  snap->columns.reserve(code_columns_.size());
  for (const auto& [attr, column] : code_columns_) {
    snap->columns.emplace(attr, column);
  }
  snap->epoch = ++epoch_;
  if (flush_publish) {
    ++publishes_;
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.publishes", 1);
  } else {
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.snapshot_refreshes", 1);
  }
  FLEXREL_TELEMETRY_GAUGE_SET("engine.pli_cache.epoch", epoch_);
  // Writer side of the two-slot protocol (see snapshot_slots_ in the
  // header): rebuild the spare slot once its reader pins drain, then flip
  // the index. mu_ serializes publishers, so the relaxed self-load of
  // snapshot_cur_ is exact.
  const uint32_t spare = snapshot_cur_.load(std::memory_order_relaxed) ^ 1u;
  SnapshotSlot& slot = snapshot_slots_[spare];
  while (!slot.Drained()) {
    // Pins cover a shared_ptr copy only — this drain is a few cycles.
    std::this_thread::yield();
  }
  slot.snap = std::move(snap);
  snapshot_cur_.store(spare);
}

void PliCache::DropAllLocked() {
  entries_.clear();
  lru_.clear();
  // Columns drop with everything else: past the drop threshold, bucket
  // surgery on every pinned column costs more than the one intern scan a
  // lazy rebuild pays.
  code_columns_.clear();
  ++full_drops_;
}

void PliCache::ReplayInsertLocked(Pli::RowId row) {
  const Tuple& t = (*rows_)[row];
  PatchEntriesLocked(
      [&](const AttrSet& attrs, Pli* pli) -> PatchResult {
        pli->SetNumRows(rows_->size());  // row-count bookkeeping
        bool ok;
        if (attrs.empty()) {
          // The ∅-partition holds every row in one cluster; the fast path
          // skips materializing the all-previous-rows partner list.
          ok = pli->ApplyInsertAllRows(row);
        } else if (!t.DefinedOn(attrs)) {
          return PatchResult::kPatched;  // the row stays out of scope, but
                                         // the row count above was patched
        } else if (attrs.size() == 1) {
          auto column = code_columns_.find(attrs.ids().front());
          if (column == code_columns_.end()) return PatchResult::kRebuild;
          // The column still describes the pre-insert instance (it takes
          // the row only further down), so the bucket is pure partners.
          ok = pli->ApplyInsert(
              row, column->second->RowsOf(*t.Get(attrs.ids().front())),
              /*includes_row=*/false);
        } else {
          // An oversized partner scan means re-intersecting the patched
          // sub-partitions is cheaper: fail the patch to drop the entry.
          Pli::Cluster partners;
          if (!AgreeingRowsLocked(attrs, t, row, &partners, nullptr)) {
            return PatchResult::kRebuild;
          }
          ok = pli->ApplyInsert(row, partners, /*includes_row=*/false);
        }
        return ok ? PatchResult::kPatched : PatchResult::kRebuild;
      },
      &patches_);
  // Patch the columns last — they are the partner source above and must
  // describe the pre-insert instance while partitions are patched. Every
  // column grows by the row, carried or not.
  for (auto& [attr, column] : code_columns_) {
    const Value* v = t.Get(attr);
    column->ApplyUpdate(row, v);
    if (v != nullptr) ++patches_;
  }
}

void PliCache::ReplayUpdateLocked(Pli::RowId row, const Tuple& old_row,
                                  const AttrSet& changed) {
  // `changed` — the attributes whose presence or value the net move flips,
  // diffed once by the flush; footnote-3 type changes surface as several
  // attributes at once.
  const Tuple& new_row = (*rows_)[row];
  if (changed.empty()) return;

  // Detach the row from its old codes first, so the buckets list exactly
  // the row's potential partners.
  for (AttrId a : changed) {
    auto it = code_columns_.find(a);
    if (it != code_columns_.end()) it->second->ApplyUpdate(row, nullptr);
  }
  PatchEntriesLocked(
      [&](const AttrSet& attrs, Pli* pli) -> PatchResult {
        if (!attrs.Intersects(changed)) {
          return PatchResult::kUntouched;  // incl. the ∅-partition
        }
        bool ok = true;
        if (attrs.size() == 1) {
          AttrId a = attrs.ids().front();
          auto it = code_columns_.find(a);
          if (it == code_columns_.end()) return PatchResult::kRebuild;
          const CodeColumn& column = *it->second;
          if (const Value* old_v = old_row.Get(a)) {
            ok = pli->ApplyErase(row, column.RowsOf(*old_v),
                                 /*includes_row=*/false);
          }
          if (ok) {
            if (const Value* new_v = new_row.Get(a)) {
              ok = pli->ApplyInsert(row, column.RowsOf(*new_v),
                                    /*includes_row=*/false);
            }
          }
        } else {
          Pli::Cluster partners;
          if (old_row.DefinedOn(attrs)) {
            if (!AgreeingRowsLocked(attrs, old_row, row, &partners,
                                    nullptr)) {
              return PatchResult::kRebuild;
            }
            ok = pli->ApplyErase(row, partners, /*includes_row=*/false);
          }
          if (ok && new_row.DefinedOn(attrs)) {
            if (!AgreeingRowsLocked(attrs, new_row, row, &partners,
                                    nullptr)) {
              return PatchResult::kRebuild;
            }
            ok = pli->ApplyInsert(row, partners, /*includes_row=*/false);
          }
        }
        return ok ? PatchResult::kPatched : PatchResult::kRebuild;
      },
      &patches_);
  // Attach the row under its new codes last.
  for (AttrId a : changed) {
    auto it = code_columns_.find(a);
    if (it == code_columns_.end()) continue;
    if (const Value* new_v = new_row.Get(a)) {
      it->second->ApplyUpdate(row, new_v);
      ++patches_;
    }
  }
}

size_t PliCache::EstimateMultiPatchScanLocked(
    const AttrSet& attrs, const std::vector<NetDelta>& net) {
  // Σ of the seed-bucket sizes both phases would scan (post-state seeds
  // approximated by the pre-splice buckets — a burst barely moves them).
  // Comparing this against the instance size is the entry's patch-vs-drop
  // call: the re-intersection a drop defers costs one O(rows) pass.
  auto seed_size = [&](const Tuple& proj) -> size_t {
    size_t seed = SIZE_MAX;
    for (AttrId a : attrs) {
      auto column = code_columns_.find(a);
      if (column == code_columns_.end()) return 0;
      seed = std::min(seed, column->second->RowsOf(*proj.Get(a)).size());
    }
    return seed;
  };
  size_t total = 0;
  for (const NetDelta& d : net) {
    if (!d.changed_attrs.Intersects(attrs)) continue;  // projection sits still
    const Tuple& now = (*rows_)[d.row];
    if (!d.is_insert && d.old_row->DefinedOn(attrs)) {
      total += seed_size(*d.old_row);
    }
    if (now.DefinedOn(attrs)) total += seed_size(now);
  }
  return total;
}

bool PliCache::MultiAttrGroupPatchLocked(const AttrSet& attrs, Pli* pli,
                                         const std::vector<NetDelta>& net,
                                         bool erase, size_t* scan_budget) {
  // The rows this phase moves: leaving rows were defined on `attrs` before
  // the burst, joining rows are after; rows whose projection did not
  // change sit still (they are partners, not movers).
  std::vector<std::pair<Pli::RowId, const Tuple*>> moving;
  std::unordered_set<Pli::RowId> moving_set;
  for (const NetDelta& d : net) {
    if (!d.changed_attrs.Intersects(attrs)) continue;  // projection sits still
    const Tuple& now = (*rows_)[d.row];
    const Tuple* proj;
    if (erase) {
      if (d.is_insert || !d.old_row->DefinedOn(attrs)) continue;
      proj = d.old_row;
    } else {
      if (!now.DefinedOn(attrs)) continue;
      proj = &now;
    }
    moving.push_back({d.row, proj});
    moving_set.insert(d.row);
  }
  if (moving.empty()) return true;
  // One ClusterPatch per affected cluster. All movers sharing a cluster
  // compute the same full membership (partner scans are consistent within
  // one phase), so the patch is keyed by the full cluster's front row.
  std::unordered_map<Pli::RowId, Pli::ClusterPatch> by_front;
  Pli::Cluster partners;
  for (const auto& [row, proj] : moving) {
    if (!AgreeingRowsLocked(attrs, *proj, row, &partners, scan_budget)) {
      return false;
    }
    Pli::Cluster full = partners;  // ∪ {row}, ascending
    full.insert(std::lower_bound(full.begin(), full.end(), row), row);
    if (full.size() < 2) continue;  // stripped on this side: no cluster
    auto [it, first_visit] = by_front.try_emplace(full.front());
    Pli::ClusterPatch& patch = it->second;
    if (first_visit) {
      if (erase) {
        // The partition currently holds the full pre-burst cluster; the
        // replacement starts as that and sheds each mover below.
        patch.old_front = full.front();
        patch.old_size = full.size();
        patch.new_rows = std::move(full);
      } else {
        // The partition (post-erase-phase) holds only the stayers; the
        // replacement is the full post-burst cluster.
        Pli::Cluster stayers;
        for (Pli::RowId r : full) {
          if (moving_set.count(r) == 0) stayers.push_back(r);
        }
        patch.old_size = stayers.size();
        patch.old_front = stayers.empty() ? 0 : stayers.front();
        patch.new_rows = std::move(full);
      }
    } else if (erase ? patch.old_size != full.size()
                     : patch.new_rows.size() != full.size()) {
      return false;  // two movers disagree about their shared cluster
    }
    if (erase) {
      auto pos = std::lower_bound(patch.new_rows.begin(),
                                  patch.new_rows.end(), row);
      if (pos == patch.new_rows.end() || *pos != row) return false;
      patch.new_rows.erase(pos);
    }
  }
  std::vector<Pli::ClusterPatch> patches;
  patches.reserve(by_front.size());
  for (auto& [front, patch] : by_front) {
    (void)front;
    patches.push_back(std::move(patch));
  }
  // Cache-built multi-attribute partitions are intersection products, so
  // defined_rows tracks grouped_rows and the delta argument is moot.
  return pli->ApplyBatch(std::move(patches), /*defined_delta=*/0);
}

void PliCache::BatchApplyLocked(const std::vector<NetDelta>& net,
                                const AttrSet& changed, size_t insert_count) {
  using namespace std::chrono_literals;
  const size_t b = net.size();
  // Per-attribute moves: each row's final value on every attribute an
  // insert carries or an update changed (null when removed). The Value
  // pointers reach into rows_, stable for the flush; the old side is read
  // off the columns themselves.
  std::unordered_map<AttrId, std::vector<CodeColumn::Move>> per_attr;
  std::vector<Pli::RowId> inserted_rows;
  inserted_rows.reserve(insert_count);
  for (const NetDelta& d : net) {
    const Tuple& now = (*rows_)[d.row];
    if (d.is_insert) {
      inserted_rows.push_back(d.row);
      for (const auto& [attr, value] : now.fields()) {
        per_attr[attr].push_back({d.row, &value});
      }
    } else {
      for (AttrId a : d.changed_attrs) {
        per_attr[a].push_back({d.row, now.Get(a)});
      }
    }
  }
  std::sort(inserted_rows.begin(), inserted_rows.end());

  // Classify the cached partitions. Multi-attribute entries whose cluster
  // count the burst saturates are dropped for lazy re-intersection from
  // the patched bases (one intersection pass beats 2b seed scans then);
  // sparser bursts keep the entry and group-patch it in two phases around
  // the column splice. This is the burst-size-vs-cluster-count arm of the
  // adaptive policy.
  struct Work {
    AttrSet attrs;
    Pli* pli;
    bool alive = true;
    // Partner-scan allowance across both phases: one re-intersection's
    // worth of row touches. Overdrawing it means rebuilding is cheaper.
    size_t scan_budget = 0;
  };
  std::vector<Work> multi;
  std::unordered_map<AttrId, Pli*> single;
  Pli* empty_pli = nullptr;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.future.wait_for(0s) != std::future_status::ready) {
      ++patch_rebuilds_;
      it = DropEntryLocked(it);
      continue;
    }
    Pli* pli = it->second.future.get().get();
    if (insert_count > 0) pli->SetNumRows(rows_->size());
    const AttrSet& attrs = it->first;
    if (attrs.empty()) {
      empty_pli = pli;
    } else if (attrs.Intersects(changed)) {
      if (attrs.size() == 1) {
        single.emplace(attrs.ids().front(), pli);
      } else if (2 * b >= pli->NumDistinct() ||
                 EstimateMultiPatchScanLocked(attrs, net) >=
                     rows_->size() / 2) {
        // The burst saturates the entry's clusters, or the partner scans
        // alone would cost as much as the re-intersection a drop defers.
        ++patch_rebuilds_;
        it = DropEntryLocked(it);
        continue;
      } else {
        multi.push_back({attrs, pli, true, rows_->size()});
      }
    }
    ++it;
  }

  std::vector<AttrSet> failed;
  // Phase A: detach the leaving rows from the kept multi-attribute
  // entries, partner sets scanned off the still pre-batch columns.
  for (Work& w : multi) {
    if (!MultiAttrGroupPatchLocked(w.attrs, w.pli, net, /*erase=*/true,
                                   &w.scan_budget)) {
      w.alive = false;
      failed.push_back(w.attrs);
    }
  }
  // Splice the columns — every affected bucket rebuilt in one sorted
  // merge; inserts grow every column, carried or not — and group-apply each
  // cached single-attribute partition from its column's cluster
  // replacements: views into the spliced buckets, so ApplyBatch copies
  // each replacement straight into the arena.
  const std::vector<CodeColumn::Move> no_moves;
  for (auto& [attr, column] : code_columns_) {
    auto moves = per_attr.find(attr);
    if (moves == per_attr.end() && insert_count == 0) continue;
    const size_t defined_before = column->defined();
    std::vector<Pli::ClusterPatchView> views = column->ApplyBatch(
        rows_->size(), moves == per_attr.end() ? no_moves : moves->second);
    ++batch_applies_;
    auto it = single.find(attr);
    if (it == single.end()) continue;
    const ptrdiff_t defined_delta =
        static_cast<ptrdiff_t>(column->defined()) -
        static_cast<ptrdiff_t>(defined_before);
    if (it->second->ApplyBatch(views, defined_delta)) {
      ++batch_applies_;
    } else {
      failed.push_back(AttrSet::Of(attr));
    }
    single.erase(it);
  }
  // Defensive: a single-attribute entry always has its column pinned.
  for (const auto& [attr, pli] : single) failed.push_back(AttrSet::Of(attr));
  // Phase B: attach the joining rows. The scans run after the splice, so
  // they see every row's final bucket — the stayers anchor the cluster
  // lookups.
  for (Work& w : multi) {
    if (!w.alive) continue;
    if (!MultiAttrGroupPatchLocked(w.attrs, w.pli, net, /*erase=*/false,
                                   &w.scan_budget)) {
      failed.push_back(w.attrs);
    } else {
      ++batch_applies_;
    }
  }
  // The ∅-partition: appends only (an update never moves a row out of it).
  if (empty_pli != nullptr && !inserted_rows.empty()) {
    bool ok = true;
    for (Pli::RowId row : inserted_rows) {
      if (!empty_pli->ApplyInsertAllRows(row)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ++batch_applies_;
    } else {
      failed.push_back(AttrSet());
    }
  }
  for (const AttrSet& attrs : failed) {
    auto it = entries_.find(attrs);
    if (it != entries_.end()) {
      ++patch_rebuilds_;
      DropEntryLocked(it);
    }
  }
}

void PliCache::EvictLocked() {
  using namespace std::chrono_literals;
  while (lru_.size() > options_.max_entries) {
    bool erased = false;
    // Oldest-first; entries still being built (future not ready) survive.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto entry = entries_.find(*it);
      if (entry == entries_.end()) continue;  // defensive; should not happen
      if (entry->second.future.wait_for(0s) != std::future_status::ready) {
        continue;
      }
      entries_.erase(entry);
      lru_.erase(std::next(it).base());
      ++evictions_;
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.evictions", 1);
      erased = true;
      break;
    }
    if (!erased) break;  // everything over budget is still building
  }
  if (options_.memory_budget_bytes == 0) return;
  // Byte-budget pass: keep shedding the least recently used completed
  // entries until the accounted footprint fits. Cost-aware in the LRU
  // sense — the entries least likely to be re-asked-for pay first — and
  // bounded: once only pinned bases (or in-flight builds) remain, Get's
  // miss path degrades to uncached serves instead.
  while (AccountedBytesLocked() > options_.memory_budget_bytes &&
         !lru_.empty()) {
    bool erased = false;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto entry = entries_.find(*it);
      if (entry == entries_.end()) continue;
      if (entry->second.future.wait_for(0s) != std::future_status::ready) {
        continue;
      }
      const size_t bytes =
          entry->second.future.get()->MemoryBytes() + kPerEntryOverhead;
      bytes_plis_ -= std::min(bytes_plis_, bytes);
      entries_.erase(entry);
      lru_.erase(std::next(it).base());
      ++evictions_;
      ++budget_evictions_;
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.evictions", 1);
      FLEXREL_TELEMETRY_COUNT("engine.cache.budget_evictions", 1);
      erased = true;
      break;
    }
    if (!erased) break;  // only unready entries left
  }
}

void PliCache::AccountMemoryLocked() {
  using namespace std::chrono_literals;
  size_t plis = 0;
  for (const auto& [attrs, entry] : entries_) {
    (void)attrs;
    // In-flight builds are charged on their completion sweep.
    if (entry.future.wait_for(0s) != std::future_status::ready) continue;
    plis += entry.future.get()->MemoryBytes() + kPerEntryOverhead;
  }
  size_t columns = 0;
  for (const auto& [attr, column] : code_columns_) {
    (void)attr;
    columns += column->MemoryBytes() + kPerEntryOverhead;
  }
  bytes_plis_ = plis;
  bytes_columns_ = columns;
  FLEXREL_TELEMETRY_GAUGE_SET("engine.cache.bytes_plis", plis);
  FLEXREL_TELEMETRY_GAUGE_SET("engine.cache.bytes_columns", columns);
}

PliCache::StatsSnapshot PliCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_;
  s.evictions = evictions_;
  s.cached_entries = entries_.size();
  s.patches = patches_;
  s.patch_rebuilds = patch_rebuilds_;
  s.batch_applies = batch_applies_;
  s.full_drops = full_drops_;
  s.pending_deltas = pending_.size();
  s.flushes = flushes_;
  s.publishes = publishes_;
  s.epoch = epoch_;
  s.bytes_plis = bytes_plis_;
  s.bytes_columns = bytes_columns_;
  s.budget_evictions = budget_evictions_;
  s.uncached_serves = uncached_serves_;
  s.flush_aborts = flush_aborts_;
  return s;
}

}  // namespace flexrel
