#include "engine/pli_cache.h"

#include <algorithm>
#include <chrono>
#include <string>
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
// sweep: hash slot, future/control block, LRU node. The budget is advisory
// — this keeps the estimate honest without sizeof-walking every node type.
constexpr size_t kPerEntryOverhead = 160;

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
    if (options_.memory_budget_bytes != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      AccountMemoryLocked();
      EvictLocked();
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
  return code_columns_.emplace(attr, std::move(column)).first->second;
}

PliCache::EntryMap::iterator PliCache::DropEntryLocked(
    EntryMap::iterator it) {
  if (it->second.evictable) lru_.erase(it->second.lru_pos);
  return entries_.erase(it);
}

// ---------------------------------------------------------------------------
// Mutation hooks: append to the pending buffer, O(1) per row. All splicing
// is deferred to the next read's flush.
// ---------------------------------------------------------------------------

void PliCache::OnInsertBatch(Pli::RowId first_row, size_t count) {
  // No reserve here or below: one-row calls from Insert/Update would
  // reserve exactly one more slot each time, defeating the vector's
  // geometric growth and turning a read-free row-at-a-time storm
  // quadratic.
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < count; ++i) {
    pending_.push_back(
        {static_cast<Pli::RowId>(first_row + i), /*is_insert=*/true, Tuple()});
  }
}

void PliCache::OnUpdateBatch(
    std::vector<std::pair<Pli::RowId, Tuple>> old_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [row, old_row] : old_rows) {
    pending_.push_back({row, /*is_insert=*/false, std::move(old_row)});
  }
  if (pending_.size() >= pending_compact_at_) CompactPendingLocked();
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
// The flush: coalesce the buffer to net per-row deltas, then splice or drop
// everything by the net burst size.
// ---------------------------------------------------------------------------

void PliCache::FlushPendingLocked() {
  if (pending_.empty()) return;
  telemetry::ScopedSpan flush_span("pli_cache.flush");
  FLEXREL_TELEMETRY_LATENCY(flush_timer, "engine.pli_cache.flush_ns");
  // Coalesce to one net delta per row: the first recorded old state wins,
  // the final state is read straight from the (fully mutated) rows. The
  // single-delta case — a read after every mutation — skips the dedup
  // machinery entirely.
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
  // One flush == one arm taken, so batched + dropped == flushes. The span
  // detail carries the net burst size and the estimate the arm decision
  // compared it against.
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
    return;
  }
  // Failure atomicity: the splice allocates (bucket growth, interned
  // values), and a throw mid-splice would otherwise leave live columns
  // half-spliced. The recovery is the strong guarantee at cache
  // granularity: drop every cached structure (the row vector is the source
  // of truth; reads rebuild lazily), so no reader can ever observe a
  // partially applied flush. The recovery path traverses no injection
  // point.
  try {
    FLEXREL_FAULT_INJECT("pli_cache.flush.patch");
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush.batched", 1);
    if (flush_span.active()) {
      flush_span.SetDetail("arm=batched b=" + std::to_string(b) +
                           " est=drop_at:" + std::to_string(drop_at));
    }
    SpliceLocked(net, changed, insert_count);
    FLEXREL_FAULT_INJECT("pli_cache.flush.commit");
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

void PliCache::SpliceLocked(const std::vector<NetDelta>& net,
                            const AttrSet& changed, size_t insert_count) {
  using namespace std::chrono_literals;
  // Drop every partition the burst touches: all of them when it appends
  // rows (every partition's row count moves), else those over a changed
  // attribute. A build racing the mutation (a documented data race) is
  // shed too. The next Get rebuilds a dropped partition from the spliced
  // columns; every other partition stays exactly as built.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (insert_count > 0 || it->first.Intersects(changed) ||
        it->second.future.wait_for(0s) != std::future_status::ready) {
      ++patch_rebuilds_;
      it = DropEntryLocked(it);
    } else {
      ++it;
    }
  }
  // Splice the columns — every affected bucket in place from its lowest
  // touched row; inserts grow every column, carried or not — and give each
  // spliced column its staleness check.
  static thread_local std::vector<CodeColumn::Move> moves;
  for (auto& [attr, column] : code_columns_) {
    if (insert_count == 0 && !changed.Contains(attr)) continue;
    // Each row's final value on the attribute, null when removed (an
    // insert's changed set is exactly the attributes it carries). The
    // Value pointers reach into rows_, stable for the flush; the old side
    // is read off the column itself.
    moves.clear();
    for (const NetDelta& d : net) {
      if (d.changed_attrs.Contains(attr)) {
        moves.push_back({d.row, (*rows_)[d.row].Get(attr)});
      }
    }
    column->ApplyBatch(rows_->size(), moves);
    column->MaybeReintern();
    ++batch_applies_;
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
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.cached_entries = entries_.size();
  s.patch_rebuilds = patch_rebuilds_;
  s.batch_applies = batch_applies_;
  s.full_drops = full_drops_;
  s.pending_deltas = pending_.size();
  s.flushes = flushes_;
  s.bytes_plis = bytes_plis_;
  s.bytes_columns = bytes_columns_;
  s.budget_evictions = budget_evictions_;
  s.uncached_serves = uncached_serves_;
  s.flush_aborts = flush_aborts_;
  return s;
}

}  // namespace flexrel
