#include "engine/pli.h"

#include <algorithm>
#include <cstring>
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

// Replaces v[begin, end) with `with`, moving the elements after it once.
template <typename T>
void ReplaceRange(std::vector<T>* v, size_t begin, size_t end,
                  const std::vector<T>& with) {
  const size_t length = end - begin;
  if (with.size() < length) {
    v->erase(v->begin() + static_cast<ptrdiff_t>(begin + with.size()),
             v->begin() + static_cast<ptrdiff_t>(end));
  } else {
    v->insert(v->begin() + static_cast<ptrdiff_t>(end), with.size() - length,
              T{});
  }
  std::copy(with.begin(), with.end(),
            v->begin() + static_cast<ptrdiff_t>(begin));
}

// Per-thread working set of Pli::ApplyBatch. Capacity persists across
// calls, so a steady stream of small flushes allocates nothing here.
struct SpliceScratch {
  enum class Kind : uint8_t {
    kInPlace,  // front kept, fits the slot: rewrite the changed suffix
    kGrow,     // front kept, slot full: doubles, shifting what follows
    kRemove,   // dissolved or re-fronted: the slot's cells become slack
  };
  struct Edit {
    size_t index;  // located slot
    Kind kind;
    uint32_t keep;
    uint32_t new_size;
    std::span<const Pli::RowId> tail;
  };
  // A cluster entering the canonical order (appeared or re-fronted) in
  // front of slot `index`; its rows are all borrowed.
  struct Addition {
    size_t index;
    std::span<const Pli::RowId> rows;
  };
  struct Move {
    uint32_t src;
    uint32_t dst;
    uint32_t len;
  };
  struct Write {
    uint32_t dst;
    std::span<const Pli::RowId> rows;
  };
  std::vector<Edit> edits;
  std::vector<Addition> additions;
  std::vector<uint32_t> starts;  // laid-out slot boundaries and sizes
  std::vector<uint32_t> sizes;
  std::vector<Move> moves;
  std::vector<Write> writes;
};
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
// Binary search over cluster fronts.
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
// The batched splice. Validation precedes every mutation, so a false return
// is a true no-op.
// ---------------------------------------------------------------------------

bool Pli::ApplyBatch(const std::vector<ClusterPatchView>& patches,
                     ptrdiff_t defined_delta) {
  auto count_defined = [&] {
    if (exact_defined_) {
      defined_rows_ = static_cast<size_t>(
          static_cast<ptrdiff_t>(defined_rows_) + defined_delta);
    } else {
      defined_rows_ = grouped_rows_;
    }
  };
  if (patches.empty()) {
    count_defined();
    return true;
  }
  using Kind = SpliceScratch::Kind;
  static thread_local SpliceScratch s;
  s.edits.clear();
  s.additions.clear();
  // Pass 1 validates and classifies every patch against the current
  // structure before mutating anything.
  const size_t n = num_clusters();
  size_t first = n;  // first slot that must move or make way
  ptrdiff_t grouped_delta = 0;
  for (const ClusterPatchView& patch : patches) {
    const size_t new_size = patch.keep + patch.tail.size();
    const bool has_new = new_size >= 2;
    if (patch.old_size < 2) {
      if (patch.keep != 0) return false;
    } else {
      const size_t index = ArenaFindClusterByFront(patch.old_front);
      if (index == kNoIndex || sizes_[index] != patch.old_size ||
          patch.keep > patch.old_size) {
        return false;
      }
      grouped_delta -= static_cast<ptrdiff_t>(patch.old_size);
      const bool keeps_front = has_new && patch.keep > 0;
      Kind kind = Kind::kRemove;
      if (keeps_front) {
        kind = new_size <= offsets_[index + 1] - offsets_[index]
                   ? Kind::kInPlace
                   : Kind::kGrow;
      }
      if (kind != Kind::kInPlace) first = std::min(first, index);
      s.edits.push_back({index, kind, patch.keep,
                         static_cast<uint32_t>(new_size), patch.tail});
      if (keeps_front) {
        grouped_delta += static_cast<ptrdiff_t>(new_size);
        continue;
      }
    }
    if (has_new) {
      // keep == 0 here: the whole new cluster is the tail.
      const size_t index = ArenaLowerBoundByFront(patch.tail[0]);
      s.additions.push_back({index, patch.tail});
      first = std::min(first, index);
      grouped_delta += static_cast<ptrdiff_t>(new_size);
    }
  }
  const size_t grouped = static_cast<size_t>(
      static_cast<ptrdiff_t>(grouped_rows_) + grouped_delta);

  // Lays out slots first..n-1 plus the additions in canonical order,
  // recording the arena moves and tail writes that realize the layout.
  // Surviving slots keep their capacity (a grown one doubles), a removed
  // slot's cells extend the slot before it, and additions land tight. In
  // `tight` mode every slot is laid out at its live size instead. The
  // untouched run of slots tail_from..n-1 after the last change keeps its
  // bookkeeping entries, shifted by `shift`; the slots before it are
  // collected in s.starts / s.sizes.
  size_t tail_from = n;
  uint32_t shift = 0;
  auto layout = [&](size_t from, bool tight) {
    s.starts.clear();
    s.sizes.clear();
    s.moves.clear();
    s.writes.clear();
    tail_from = n;
    uint32_t cursor = from < n ? offsets_[from] : static_cast<uint32_t>(
                                                      arena_.size());
    bool has_prev = from > 0;
    auto move = [&](uint32_t src, uint32_t len) {
      if (len == 0) return;
      if (!s.moves.empty()) {
        SpliceScratch::Move& last = s.moves.back();
        if (last.src + last.len == src && last.dst + last.len == cursor) {
          last.len += len;
          return;
        }
      }
      s.moves.push_back({src, cursor, len});
    };
    auto emit = [&](uint32_t size, uint32_t capacity) {
      s.starts.push_back(cursor);
      s.sizes.push_back(size);
      cursor += capacity;
      has_prev = true;
    };
    size_t e = static_cast<size_t>(
        std::lower_bound(s.edits.begin(), s.edits.end(), from,
                         [](const SpliceScratch::Edit& edit, size_t i) {
                           return edit.index < i;
                         }) -
        s.edits.begin());
    size_t a = 0;
    for (size_t i = from;;) {
      // Slots i..next-1 are untouched: outside `tight` they keep their
      // capacity and shift as one block.
      const size_t next =
          std::min(e < s.edits.size() ? s.edits[e].index : n,
                   a < s.additions.size() ? s.additions[a].index : n);
      if (tight) {
        for (size_t j = i; j < next; ++j) {
          move(offsets_[j], sizes_[j]);
          emit(sizes_[j], sizes_[j]);
        }
      } else if (next > i) {
        const uint32_t length = offsets_[next] - offsets_[i];
        move(offsets_[i], length);
        if (next == n && a == s.additions.size()) {
          tail_from = i;
          shift = cursor - offsets_[i];  // modular: may shift left
        } else {
          const size_t at = s.starts.size();
          s.starts.resize(at + (next - i));
          for (size_t j = i; j < next; ++j) {
            s.starts[at + (j - i)] = offsets_[j] - offsets_[i] + cursor;
          }
          s.sizes.insert(s.sizes.end(), sizes_.begin() + i,
                         sizes_.begin() + next);
        }
        cursor += length;
        has_prev = true;
      }
      i = next;
      for (; a < s.additions.size() && s.additions[a].index == i; ++a) {
        const std::span<const RowId> rows = s.additions[a].rows;
        s.writes.push_back({cursor, rows});
        emit(static_cast<uint32_t>(rows.size()),
             static_cast<uint32_t>(rows.size()));
      }
      if (i == n) break;
      if (e == s.edits.size() || s.edits[e].index != i) continue;
      const SpliceScratch::Edit& edit = s.edits[e++];
      const uint32_t capacity = offsets_[i + 1] - offsets_[i];
      if (edit.kind == Kind::kRemove) {
        if (!tight && has_prev) cursor += capacity;
      } else {
        uint32_t new_capacity = capacity;
        if (tight) {
          new_capacity = edit.new_size;
        } else if (edit.kind == Kind::kGrow) {
          new_capacity = std::max(2 * capacity, edit.new_size);
        }
        move(offsets_[i], tight ? edit.keep : capacity);
        s.writes.push_back({cursor + edit.keep, edit.tail});
        emit(edit.new_size, new_capacity);
      }
      ++i;
    }
    return static_cast<size_t>(cursor);
  };

  std::sort(s.edits.begin(), s.edits.end(),
            [](const SpliceScratch::Edit& x, const SpliceScratch::Edit& y) {
              return x.index < y.index;
            });
  std::sort(s.additions.begin(), s.additions.end(),
            [](const SpliceScratch::Addition& x,
               const SpliceScratch::Addition& y) {
              return x.rows[0] < y.rows[0];
            });
  bool tight = false;
  size_t total = first < n || !s.additions.empty() ? layout(first, false)
                                                   : arena_.size();
  if (total - grouped > grouped) {
    // Dead slack would outweigh the live rows: compact the whole arena.
    tight = true;
    first = 0;
    total = layout(0, true);
  }
  if (!tight) {
    // Front-keeping patches before the laid-out suffix stay where they
    // are and rewrite only their changed rows.
    for (const SpliceScratch::Edit& edit : s.edits) {
      if (edit.index >= first) break;
      std::copy(edit.tail.begin(), edit.tail.end(),
                arena_.begin() + offsets_[edit.index] + edit.keep);
      sizes_[edit.index] = edit.new_size;
    }
  }
  if (first < n || !s.additions.empty() || tight) {
    if (total > arena_.size()) arena_.resize(total);
    // Slots keep their relative order, so moving the left-shifting blocks
    // front to back and then the right-shifting ones back to front never
    // overwrites a block before it has moved. Tails land last.
    RowId* data = arena_.data();
    for (const SpliceScratch::Move& m : s.moves) {
      if (m.dst < m.src) std::memmove(data + m.dst, data + m.src,
                                      m.len * sizeof(RowId));
    }
    for (auto m = s.moves.rbegin(); m != s.moves.rend(); ++m) {
      if (m->dst > m->src) std::memmove(data + m->dst, data + m->src,
                                        m->len * sizeof(RowId));
    }
    for (const SpliceScratch::Write& w : s.writes) {
      std::copy(w.rows.begin(), w.rows.end(), data + w.dst);
    }
    arena_.resize(total);
    if (offsets_.empty()) offsets_.push_back(0);
    ReplaceRange(&sizes_, first, tail_from, s.sizes);
    ReplaceRange(&offsets_, first, tail_from, s.starts);
    for (size_t j = first + s.starts.size(); j + 1 < offsets_.size(); ++j) {
      offsets_[j] += shift;
    }
    offsets_.back() = static_cast<uint32_t>(total);
  }
  grouped_rows_ = grouped;
  count_defined();
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
