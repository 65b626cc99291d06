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

}  // namespace

std::ostream& operator<<(std::ostream& os, Pli::ClusterView view) {
  os << "{";
  for (size_t i = 0; i < view.size(); ++i) {
    if (i != 0) os << ", ";
    os << view[i];
  }
  return os << "}";
}

void Pli::AdoptClusters(std::vector<Cluster> clusters) {
  SortByFirstRow(&clusters);
  grouped_rows_ = 0;
  for (const Cluster& c : clusters) grouped_rows_ += c.size();
  offsets_.clear();
  offsets_.reserve(clusters.size() + 1);
  offsets_.push_back(0);
  arena_.clear();
  arena_.reserve(grouped_rows_);
  for (const Cluster& c : clusters) {
    arena_.insert(arena_.end(), c.begin(), c.end());
    offsets_.push_back(static_cast<uint32_t>(arena_.size()));
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
  RowId* dst = out.arena_.data();
  for (const IntersectScratch::Desc& d : s->descs) {
    std::copy(s->emitted.begin() + d.begin,
              s->emitted.begin() + d.begin + d.size, dst);
    dst += d.size;
    out.offsets_.push_back(static_cast<uint32_t>(dst - out.arena_.data()));
  }
  out.grouped_rows_ = total;
  // Stripped singletons of the operands are unrecoverable here, so the
  // defined-row count degrades to the grouped-row lower bound.
  out.defined_rows_ = out.grouped_rows_;
  return out;
}

bool Pli::operator==(const Pli& other) const {
  // Cluster-wise comparison over the partition's rows.
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
         offsets_.capacity() * sizeof(uint32_t);
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
  for (size_t c = 0; c < n; ++c) {
    if (offsets_[c + 1] < offsets_[c] + 2) {
      return fail(StrCat("cluster boundaries not monotone with >=2-row "
                         "clusters at ",
                         c, ": ", offsets_[c], " -> ", offsets_[c + 1]));
    }
  }
  if (!offsets_.empty() && offsets_.back() != arena_.size()) {
    return fail(StrCat("arena size ", arena_.size(),
                       " != last cluster boundary ", offsets_.back()));
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
