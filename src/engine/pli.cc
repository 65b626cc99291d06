#include "engine/pli.h"

#include <algorithm>
#include <ostream>
#include <unordered_map>

#include "relational/value.h"
#include "telemetry/telemetry.h"
#include "util/string_util.h"

namespace flexrel {

namespace {

// Clusters ascend by first row id so that structurally equal partitions are
// representationally equal regardless of hash-map iteration order.
void SortByFirstRow(std::vector<Pli::Cluster>* clusters) {
  std::sort(clusters->begin(), clusters->end(),
            [](const Pli::Cluster& a, const Pli::Cluster& b) {
              return a.front() < b.front();
            });
}

constexpr size_t kNoIndex = static_cast<size_t>(-1);

// First element of `agreeing` other than `row` — the front of the cluster
// the partners currently form. Requires at least one such element.
Pli::RowId PartnerFront(const Pli::Cluster& agreeing, Pli::RowId row,
                        bool includes_row) {
  if (includes_row && agreeing.front() == row) return agreeing[1];
  return agreeing.front();
}

}  // namespace

std::ostream& operator<<(std::ostream& os, Pli::ClusterView view) {
  os << "{";
  for (size_t i = 0; i < view.size(); ++i) {
    if (i != 0) os << ", ";
    os << view[i];
  }
  return os << "}";
}

// ---------------------------------------------------------------------------
// Arena primitives: binary search over cluster fronts and canonical-order
// repositioning by rotation.
// ---------------------------------------------------------------------------

size_t Pli::ArenaLowerBoundByFront(RowId front) const {
  size_t lo = 0, hi = num_clusters();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (arena_[offsets_[mid]] < front) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t Pli::ArenaFindClusterByFront(RowId front) const {
  size_t idx = ArenaLowerBoundByFront(front);
  if (idx == num_clusters() || arena_[offsets_[idx]] != front) return kNoIndex;
  return idx;
}

void Pli::ArenaRepositionCluster(size_t index, size_t target) {
  // Rotates the whole storage slot — live rows plus trailing slack — so the
  // cluster keeps its headroom across the move, and rotates the matching
  // sizes_ entry alongside. m is the slot capacity, not the live size.
  const uint32_t m = offsets_[index + 1] - offsets_[index];
  if (target < index) {
    // Rotate the moved slot in front of slots target..index-1, then shift
    // their boundaries right by its capacity (descending, so each read of
    // offsets_[j-1] precedes its overwrite).
    std::rotate(arena_.begin() + offsets_[target],
                arena_.begin() + offsets_[index],
                arena_.begin() + offsets_[index + 1]);
    for (size_t j = index; j > target; --j) offsets_[j] = offsets_[j - 1] + m;
    std::rotate(sizes_.begin() + static_cast<ptrdiff_t>(target),
                sizes_.begin() + static_cast<ptrdiff_t>(index),
                sizes_.begin() + static_cast<ptrdiff_t>(index + 1));
  } else if (target > index) {
    std::rotate(arena_.begin() + offsets_[index],
                arena_.begin() + offsets_[index + 1],
                arena_.begin() + offsets_[target + 1]);
    for (size_t j = index; j <= target; ++j) offsets_[j] = offsets_[j + 1] - m;
    std::rotate(sizes_.begin() + static_cast<ptrdiff_t>(index),
                sizes_.begin() + static_cast<ptrdiff_t>(index + 1),
                sizes_.begin() + static_cast<ptrdiff_t>(target + 1));
  }
}

void Pli::ArenaMaybeReposition(size_t index) {
  const RowId front = arena_[offsets_[index]];
  if (index > 0 && arena_[offsets_[index - 1]] > front) {
    ArenaRepositionCluster(index, ArenaLowerBoundByFront(front));
  } else if (index + 1 < num_clusters() &&
             arena_[offsets_[index + 1]] < front) {
    // First cluster after `index` whose front exceeds ours; we slot in just
    // before it.
    size_t lo = index + 1, hi = num_clusters();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (arena_[offsets_[mid]] < front) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    ArenaRepositionCluster(index, lo - 1);
  }
}

void Pli::AdoptClusters(std::vector<Cluster> clusters) {
  SortByFirstRow(&clusters);
  grouped_rows_ = 0;
  for (const Cluster& c : clusters) grouped_rows_ += c.size();
  offsets_.clear();
  offsets_.reserve(clusters.size() + 1);
  offsets_.push_back(0);
  sizes_.clear();
  sizes_.reserve(clusters.size());
  arena_.clear();
  arena_.reserve(grouped_rows_);
  for (const Cluster& c : clusters) {
    arena_.insert(arena_.end(), c.begin(), c.end());
    offsets_.push_back(static_cast<uint32_t>(arena_.size()));
    sizes_.push_back(static_cast<uint32_t>(c.size()));
  }
}

Pli Pli::Build(const std::vector<Tuple>& rows, AttrId attr) {
  Pli out;
  out.num_rows_ = rows.size();
  std::unordered_map<Value, Cluster, ValueHash> groups;
  groups.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (const Value* v = rows[i].Get(attr)) {
      groups[*v].push_back(static_cast<RowId>(i));
      ++out.defined_rows_;
    }
  }
  std::vector<Cluster> clusters;
  for (auto& [value, cluster] : groups) {
    (void)value;
    if (cluster.size() >= 2) clusters.push_back(std::move(cluster));
  }
  out.AdoptClusters(std::move(clusters));
  return out;
}

Pli Pli::Build(const std::vector<Tuple>& rows, const AttrSet& attrs) {
  Pli out;
  out.num_rows_ = rows.size();
  std::unordered_map<Tuple, Cluster, TupleHash> groups;
  groups.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].DefinedOn(attrs)) continue;
    groups[rows[i].Project(attrs)].push_back(static_cast<RowId>(i));
    ++out.defined_rows_;
  }
  std::vector<Cluster> clusters;
  for (auto& [key, cluster] : groups) {
    (void)key;
    if (cluster.size() >= 2) clusters.push_back(std::move(cluster));
  }
  out.AdoptClusters(std::move(clusters));
  return out;
}

Pli Pli::BuildFromCodes(const std::vector<uint32_t>& codes,
                        uint32_t code_bound) {
  Pli out;
  out.num_rows_ = codes.size();
  // Counting sort. Pass 1 counts carriers per code; pass 2 assigns cluster
  // slots to kept codes (count >= 2) in order of first appearance — rows
  // ascend, so the canonical by-front-row cluster order falls out for
  // free; pass 3 fills rows ascending into each slot.
  std::vector<uint32_t> count(code_bound, 0);
  for (uint32_t c : codes) {
    if (c < code_bound) {
      ++count[c];
      ++out.defined_rows_;
    }
  }
  constexpr uint32_t kUnassigned = UINT32_MAX;
  std::vector<uint32_t> cluster_of(code_bound, kUnassigned);
  std::vector<uint32_t> sizes;
  for (uint32_t c : codes) {
    if (c >= code_bound || count[c] < 2 || cluster_of[c] != kUnassigned) {
      continue;
    }
    cluster_of[c] = static_cast<uint32_t>(sizes.size());
    sizes.push_back(count[c]);
    out.grouped_rows_ += count[c];
  }
  out.offsets_.resize(sizes.size() + 1);
  out.offsets_[0] = 0;
  for (size_t k = 0; k < sizes.size(); ++k) {
    out.offsets_[k + 1] = out.offsets_[k] + sizes[k];
  }
  out.sizes_ = sizes;
  out.arena_.resize(out.grouped_rows_);
  std::vector<uint32_t> fill(out.offsets_.begin(), out.offsets_.end() - 1);
  for (size_t i = 0; i < codes.size(); ++i) {
    const uint32_t c = codes[i];
    if (c < code_bound && cluster_of[c] != kUnassigned) {
      out.arena_[fill[cluster_of[c]]++] = static_cast<RowId>(i);
    }
  }
  return out;
}

PliProbe Pli::BuildProbe() const {
  PliProbe probe;
  probe.labels.assign(num_rows_, kNoCluster);
  const size_t n = num_clusters();
  probe.label_bound = static_cast<uint32_t>(n);
  for (size_t c = 0; c < n; ++c) {
    for (RowId row : cluster(c)) probe.labels[row] = static_cast<uint32_t>(c);
  }
  return probe;
}

Pli Pli::Intersect(const Pli& other) const {
  const PliProbe probe = other.BuildProbe();
  return IntersectWithProbe(probe.labels, probe.label_bound);
}

Pli Pli::IntersectWithProbe(std::span<const uint32_t> labels,
                            uint32_t label_bound,
                            IntersectScratch* scratch) const {
  FLEXREL_TELEMETRY_COUNT("engine.pli.intersections", 1);
  FLEXREL_TELEMETRY_LATENCY(intersect_timer, "engine.pli.intersect_ns");
  if (scratch == nullptr) {
    // Per-thread fallback: every discovery worker and evaluator thread gets
    // steady-state zero-allocation intersections without plumbing a scratch
    // through the call chain.
    static thread_local IntersectScratch tls_scratch;
    scratch = &tls_scratch;
  }
  Pli out = IntersectArena(labels, label_bound, scratch);
  // High-watermark of the per-thread scratch footprint — the steady-state
  // memory an intersection-heavy worker pins.
  FLEXREL_TELEMETRY_GAUGE_MAX(
      "engine.pli.intersect_scratch_bytes",
      scratch->count.capacity() * sizeof(uint32_t) +
          scratch->offset.capacity() * sizeof(uint32_t) +
          scratch->touched.capacity() * sizeof(uint32_t) +
          scratch->emitted.capacity() * sizeof(RowId) +
          scratch->descs.capacity() * sizeof(IntersectScratch::Desc));
  return out;
}

Pli Pli::IntersectArena(std::span<const uint32_t> labels,
                        uint32_t label_bound, IntersectScratch* s) const {
  Pli out;
  out.num_rows_ = num_rows_;
  out.exact_defined_ = false;
  // Refine each of our clusters by the other operand's labels. Rows outside
  // the label range (undefined there) are dropped, and a label carried by a
  // single row of the cluster — a stripped singleton, or a code held by one
  // row only — forms a one-row sub-cluster that is dropped too. The scratch
  // arrays are sized by the label bound (a code column's whole dictionary,
  // singletons included) but only ever touched at the cluster rows' labels,
  // so the per-cluster work stays O(cluster). Refinement is
  // three streaming passes per cluster over the scratch's flat count /
  // offset arrays indexed by label — count, prefix-offset, fill — emitting
  // surviving sub-clusters into the scratch arena with a (front, begin,
  // size) descriptor each. Sub-cluster fronts interleave across parent
  // clusters, so canonical order is restored by sorting the descriptors
  // and gathering once into the exact-size output arena — the only
  // allocations of the whole product.
  const size_t bound = label_bound;
  if (s->count.size() < bound) s->count.resize(bound, 0);  // stays all-zero
  if (s->offset.size() < bound) s->offset.resize(bound);
  s->touched.clear();
  s->emitted.clear();
  s->descs.clear();
  for (size_t c = 0; c < num_clusters(); ++c) {
    const ClusterView cluster = this->cluster(c);
    s->touched.clear();
    for (RowId row : cluster) {
      const uint32_t oc = labels[row];
      if (oc >= label_bound) continue;
      if (s->count[oc]++ == 0) s->touched.push_back(oc);
    }
    const uint32_t base = static_cast<uint32_t>(s->emitted.size());
    uint32_t total = 0;
    for (uint32_t oc : s->touched) {
      s->offset[oc] = total;
      total += s->count[oc];
    }
    if (total == s->touched.size()) {
      // Every label is carried once: no sub-cluster survives. The common
      // case against a high-cardinality operand, skipped without emitting.
      for (uint32_t oc : s->touched) s->count[oc] = 0;
      continue;
    }
    s->emitted.resize(base + total);  // capacity persists across calls
    for (RowId row : cluster) {
      const uint32_t oc = labels[row];
      if (oc >= label_bound) continue;
      s->emitted[base + s->offset[oc]++] = row;
    }
    for (uint32_t oc : s->touched) {
      const uint32_t n = s->count[oc];
      const uint32_t end = base + s->offset[oc];
      if (n >= 2) {
        s->descs.push_back({s->emitted[end - n], end - n, n});
      }
      s->count[oc] = 0;
    }
  }
  std::sort(s->descs.begin(), s->descs.end(),
            [](const IntersectScratch::Desc& a,
               const IntersectScratch::Desc& b) { return a.front < b.front; });
  uint32_t total = 0;
  for (const IntersectScratch::Desc& d : s->descs) total += d.size;
  out.arena_.resize(total);
  out.offsets_.reserve(s->descs.size() + 1);
  out.offsets_.push_back(0);
  out.sizes_.reserve(s->descs.size());
  RowId* dst = out.arena_.data();
  for (const IntersectScratch::Desc& d : s->descs) {
    std::copy(s->emitted.begin() + d.begin,
              s->emitted.begin() + d.begin + d.size, dst);
    dst += d.size;
    out.offsets_.push_back(static_cast<uint32_t>(dst - out.arena_.data()));
    out.sizes_.push_back(d.size);
  }
  out.grouped_rows_ = total;
  // Stripped singletons of the operands are unrecoverable here, so the
  // defined-row count degrades to the grouped-row lower bound.
  out.defined_rows_ = out.grouped_rows_;
  return out;
}

// ---------------------------------------------------------------------------
// Per-row patch primitives. Validation precedes every mutation, so a false
// return is a true no-op and a caller may keep using the partition (though
// PliCache drops refused entries anyway).
// ---------------------------------------------------------------------------

bool Pli::ApplyInsert(RowId row, const Cluster& agreeing, bool includes_row) {
  const size_t others = agreeing.size() - (includes_row ? 1 : 0);
  return ApplyInsertCore(
      row, others, others == 0 ? 0 : PartnerFront(agreeing, row, includes_row));
}

bool Pli::ApplyInsertAllRows(RowId row) {
  // Every existing row (0..row-1) agrees, so the partners' cluster — when
  // there is one — is fronted by row 0. Nothing to materialize.
  return ApplyInsertCore(row, /*others=*/row, /*partner_front=*/0);
}

bool Pli::ApplyInsertCore(RowId row, size_t others, RowId partner_front) {
  if (others == 1) {
    // Un-strip the lone partner: a fresh two-row cluster appears.
    const RowId lo = std::min(partner_front, row);
    const RowId hi = std::max(partner_front, row);
    if (offsets_.empty()) offsets_.push_back(0);
    size_t idx = ArenaLowerBoundByFront(lo);
    if (idx < num_clusters() && arena_[offsets_[idx]] == lo) return false;
    const uint32_t pos = offsets_[idx];
    arena_.insert(arena_.begin() + pos, {lo, hi});
    offsets_.insert(offsets_.begin() + static_cast<ptrdiff_t>(idx), pos);
    for (size_t j = idx + 1; j < offsets_.size(); ++j) offsets_[j] += 2;
    sizes_.insert(sizes_.begin() + static_cast<ptrdiff_t>(idx), 2);
    grouped_rows_ += 2;
  } else if (others >= 2) {
    // The partners already form a cluster; `row` joins it.
    size_t idx = ArenaFindClusterByFront(partner_front);
    if (idx == kNoIndex) return false;
    if (sizes_[idx] != others) return false;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(arena_.begin() + offsets_[idx],
                         arena_.begin() + offsets_[idx] + sizes_[idx], row) -
        (arena_.begin() + offsets_[idx]));
    if (rank < sizes_[idx] && arena_[offsets_[idx] + rank] == row) {
      return false;
    }
    if (sizes_[idx] == offsets_[idx + 1] - offsets_[idx]) {
      // Slot full: grow it by its own capacity (amortized doubling), so the
      // O(arena-suffix) memmove happens O(log growth) times per cluster
      // instead of once per appended row. The new headroom is dead slack
      // until rows land in it; batched splices compact it away.
      const uint32_t grow = offsets_[idx + 1] - offsets_[idx];
      arena_.insert(arena_.begin() + offsets_[idx + 1], grow, RowId{0});
      for (size_t j = idx + 1; j < offsets_.size(); ++j) offsets_[j] += grow;
    }
    // Shift only this cluster's suffix into the slot's slack — O(cluster).
    auto pos = arena_.begin() + offsets_[idx] + rank;
    std::move_backward(pos, arena_.begin() + offsets_[idx] + sizes_[idx],
                       arena_.begin() + offsets_[idx] + sizes_[idx] + 1);
    *pos = row;
    ++sizes_[idx];
    ++grouped_rows_;
    if (row < partner_front) ArenaMaybeReposition(idx);
  }
  // others == 0: partnerless — the stripped partition records nothing, and
  // intersection products do not even count the row as defined.
  if (exact_defined_) {
    ++defined_rows_;
  } else {
    defined_rows_ = grouped_rows_;
  }
  return true;
}

bool Pli::ApplyErase(RowId row, const Cluster& agreeing, bool includes_row) {
  const size_t others = agreeing.size() - (includes_row ? 1 : 0);
  if (others > 0) {
    RowId partner_front = PartnerFront(agreeing, row, includes_row);
    RowId front = std::min(partner_front, row);
    size_t idx = ArenaFindClusterByFront(front);
    if (idx == kNoIndex) return false;
    auto first = arena_.begin() + offsets_[idx];
    auto last = first + sizes_[idx];
    if (static_cast<size_t>(sizes_[idx]) != others + 1) return false;
    if (others == 1) {
      // The partner drops back to a stripped singleton; the cluster
      // dissolves. The dead slot is absorbed as the neighbor's trailing
      // slack instead of memmoving the arena suffix closed; batched splices
      // compact it away.
      if (*(last - 1) != std::max(partner_front, row)) return false;
      if (num_clusters() == 1) {
        arena_.clear();
        offsets_.clear();
        sizes_.clear();
      } else if (idx > 0) {
        // Merge the dead slot into the previous cluster's slack by dropping
        // its start boundary.
        offsets_.erase(offsets_.begin() + static_cast<ptrdiff_t>(idx));
        sizes_.erase(sizes_.begin() + static_cast<ptrdiff_t>(idx));
      } else {
        // First cluster: slide the next cluster's live rows down to the
        // arena start (a slot's rows must sit at its boundary), then drop
        // the boundary between them — O(next cluster), not O(arena).
        std::move(arena_.begin() + offsets_[1],
                  arena_.begin() + offsets_[1] + sizes_[1], arena_.begin());
        offsets_.erase(offsets_.begin() + 1);
        sizes_.erase(sizes_.begin());
      }
      grouped_rows_ -= 2;
    } else {
      auto pos = std::lower_bound(first, last, row);
      if (pos == last || *pos != row) return false;
      // Close the gap within the slot only; the freed cell becomes trailing
      // slack.
      std::move(pos + 1, last, pos);
      --sizes_[idx];
      --grouped_rows_;
      if (row == front) ArenaMaybeReposition(idx);
    }
  }
  // others == 0: the row was a stripped singleton.
  if (exact_defined_) {
    --defined_rows_;
  } else {
    defined_rows_ = grouped_rows_;
  }
  return true;
}

bool Pli::ApplyBatch(const std::vector<ClusterPatch>& patches,
                     ptrdiff_t defined_delta) {
  // The arena lands replacement rows by copy either way, so the owning
  // overload is the borrowing one over views of its own patches.
  std::vector<ClusterPatchView> views;
  views.reserve(patches.size());
  for (const ClusterPatch& p : patches) {
    views.push_back({p.old_front, p.old_size,
                     p.new_rows.empty() ? nullptr : p.new_rows.data(),
                     static_cast<uint32_t>(p.new_rows.size())});
  }
  return ApplyBatch(views, defined_delta);
}

bool Pli::ApplyBatch(const std::vector<ClusterPatchView>& patches,
                     ptrdiff_t defined_delta) {
  // Pass 1 validates and locates every removal against the current
  // structure before mutating anything, so a refusal leaves the partition
  // untouched. Pass 2 copies size-preserving front-keeping replacements in
  // place (the common case for fat clusters, whose lowest row id rarely
  // moves); everything structural — dissolved, appeared, resized or
  // re-fronted clusters — lands in one sorted compaction pass, which is
  // what makes a 64-mutation flush one splice instead of 64 surgeries.
  std::vector<size_t> located(patches.size(), kNoIndex);
  ptrdiff_t grouped_delta = 0;
  for (size_t p = 0; p < patches.size(); ++p) {
    const ClusterPatchView& patch = patches[p];
    if (patch.old_size >= 2) {
      size_t index = ArenaFindClusterByFront(patch.old_front);
      if (index == kNoIndex || cluster(index).size() != patch.old_size) {
        return false;
      }
      located[p] = index;
      grouped_delta -= static_cast<ptrdiff_t>(patch.old_size);
    }
    if (patch.new_size >= 2) {
      grouped_delta += static_cast<ptrdiff_t>(patch.new_size);
    }
  }
  std::vector<size_t> removed;
  std::vector<ClusterPatchView> additions;
  for (size_t p = 0; p < patches.size(); ++p) {
    const ClusterPatchView& patch = patches[p];
    const bool has_new = patch.new_size >= 2;
    const bool keeps_front = located[p] != kNoIndex && has_new &&
                             patch.new_rows[0] == patch.old_front;
    if (keeps_front && patch.new_size == patch.old_size) {
      std::copy(patch.new_rows, patch.new_rows + patch.new_size,
                arena_.data() + offsets_[located[p]]);
    } else {
      if (located[p] != kNoIndex) removed.push_back(located[p]);
      if (has_new) additions.push_back(patch);
    }
  }
  if (!removed.empty() || !additions.empty()) {
    std::sort(removed.begin(), removed.end());
    std::sort(additions.begin(), additions.end(),
              [](const ClusterPatchView& a, const ClusterPatchView& b) {
                return a.new_rows[0] < b.new_rows[0];
              });
    size_t add_rows = 0;
    for (const ClusterPatchView& a : additions) add_rows += a.new_size;
    size_t removed_rows = 0;
    for (size_t r : removed) removed_rows += cluster(r).size();
    // The merge rebuilds the arena tight (slot capacity == live size for
    // every cluster), so a batched flush doubles as the compaction point
    // for the slack the per-row patch primitives accumulate.
    std::vector<RowId> merged_arena;
    std::vector<uint32_t> merged_offsets;
    std::vector<uint32_t> merged_sizes;
    merged_arena.reserve(grouped_rows_ + add_rows - removed_rows);
    merged_offsets.reserve(offsets_.size() + additions.size() -
                           removed.size());
    merged_sizes.reserve(sizes_.size() + additions.size() - removed.size());
    merged_offsets.push_back(0);
    auto append = [&](const RowId* begin, const RowId* end) {
      merged_arena.insert(merged_arena.end(), begin, end);
      merged_offsets.push_back(static_cast<uint32_t>(merged_arena.size()));
      merged_sizes.push_back(static_cast<uint32_t>(end - begin));
    };
    size_t next_removed = 0;
    size_t next_add = 0;
    for (size_t c = 0; c < num_clusters(); ++c) {
      if (next_removed < removed.size() && removed[next_removed] == c) {
        ++next_removed;
        continue;
      }
      const ClusterView view = cluster(c);
      while (next_add < additions.size() &&
             additions[next_add].new_rows[0] < view.front()) {
        const ClusterPatchView& a = additions[next_add++];
        append(a.new_rows, a.new_rows + a.new_size);
      }
      append(view.begin(), view.end());
    }
    while (next_add < additions.size()) {
      const ClusterPatchView& a = additions[next_add++];
      append(a.new_rows, a.new_rows + a.new_size);
    }
    arena_ = std::move(merged_arena);
    offsets_ = std::move(merged_offsets);
    sizes_ = std::move(merged_sizes);
  }
  grouped_rows_ = static_cast<size_t>(
      static_cast<ptrdiff_t>(grouped_rows_) + grouped_delta);
  if (exact_defined_) {
    defined_rows_ = static_cast<size_t>(
        static_cast<ptrdiff_t>(defined_rows_) + defined_delta);
  } else {
    defined_rows_ = grouped_rows_;
  }
  return true;
}

bool Pli::operator==(const Pli& other) const {
  // Cluster-wise comparison: equality is over the partition's live rows,
  // never the arena layout, so two arenas with different slack compare by
  // content.
  if (num_rows_ != other.num_rows_) return false;
  const size_t n = num_clusters();
  if (n != other.num_clusters()) return false;
  for (size_t c = 0; c < n; ++c) {
    if (!(cluster(c) == other.cluster(c))) return false;
  }
  return true;
}

size_t Pli::MemoryBytes() const {
  return sizeof(Pli) + arena_.capacity() * sizeof(RowId) +
         offsets_.capacity() * sizeof(uint32_t) +
         sizes_.capacity() * sizeof(uint32_t);
}

bool Pli::CheckInvariants(std::string* error) const {
  auto fail = [&](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  const size_t n = num_clusters();
  if (!offsets_.empty() && offsets_.front() != 0) {
    return fail("arena offsets must start at 0");
  }
  if (sizes_.size() != n) {
    return fail(StrCat("arena sizes count ", sizes_.size(),
                       " != num_clusters ", n));
  }
  for (size_t c = 0; c < n; ++c) {
    if (offsets_[c + 1] < offsets_[c] + 2) {
      return fail(StrCat("slot boundaries not monotone with >=2-capacity "
                         "slots at ",
                         c, ": ", offsets_[c], " -> ", offsets_[c + 1]));
    }
    if (sizes_[c] > offsets_[c + 1] - offsets_[c]) {
      return fail(StrCat("cluster ", c, " live size ", sizes_[c],
                         " exceeds slot capacity ",
                         offsets_[c + 1] - offsets_[c]));
    }
  }
  if (!offsets_.empty() && offsets_.back() != arena_.size()) {
    return fail(StrCat("arena size ", arena_.size(),
                       " != last slot boundary ", offsets_.back()));
  }
  size_t grouped = 0;
  RowId prev_front = 0;
  for (size_t c = 0; c < n; ++c) {
    const ClusterView view = cluster(c);
    if (view.size() < 2) return fail(StrCat("stripped cluster at ", c));
    if (c > 0 && view.front() <= prev_front) {
      return fail(StrCat("cluster fronts not ascending at ", c));
    }
    prev_front = view.front();
    for (size_t i = 0; i < view.size(); ++i) {
      if (view[i] >= num_rows_) {
        return fail(StrCat("row ", view[i], " out of range"));
      }
      if (i > 0 && view[i] <= view[i - 1]) {
        return fail(StrCat("rows not ascending in cluster ", c));
      }
    }
    grouped += view.size();
  }
  if (grouped != grouped_rows_) {
    return fail(StrCat("grouped_rows ", grouped_rows_, " != actual ",
                       grouped));
  }
  if (exact_defined_) {
    if (defined_rows_ < grouped_rows_ || defined_rows_ > num_rows_) {
      return fail(StrCat("defined_rows ", defined_rows_,
                         " inconsistent with grouped ", grouped_rows_,
                         " / num_rows ", num_rows_));
    }
  } else if (defined_rows_ != grouped_rows_) {
    return fail(StrCat("product defined_rows ", defined_rows_,
                       " != grouped_rows ", grouped_rows_));
  }
  return true;
}

}  // namespace flexrel
