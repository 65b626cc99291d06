// Position-list indexes (stripped partitions) over flexible-relation rows.
//
// A partition of an instance by an attribute set X clusters the rows that
// are (a) defined on all of X and (b) agree on X — i.e. exactly the tuple
// pairs quantified over by Definitions 4.1 and 4.2. Following the
// TANE/Desbordante representation we keep the partition *stripped*:
// singleton clusters are dropped, because a lone tuple can neither witness
// nor violate an AD (existence-pattern reading) or an FD (distinct-pair
// reading). Rows not defined on some attribute of X never enter the
// partition at all; an explicit Value::Null, by contrast, is an ordinary
// value that equals itself (matching Tuple's hashing and comparison), so
// null-valued rows cluster together. This is the absence-vs-null split the
// paper's flexible model is built on.
//
// The payoff is the product construction: the partition by X ∪ Y is the
// cluster-wise refinement of the partition by X with the partition by Y.
// Intersecting two cached partitions costs O(rows in clusters) integer
// work — no value hashing, no tuple projection — which is what makes
// level-wise dependency discovery scale (see pli_cache.h).
//
// Storage: clusters live in a CSR-style arena — one contiguous rows array
// plus a monotone offsets array — so intersections, validator scans, and
// batched splices stream over one allocation instead of chasing one heap
// vector per cluster (the layout mature PLI engines converge on). The
// arena is *slack-aware*: offsets_ marks per-cluster storage slots
// (capacities), sizes_ the live row count inside each slot, so a per-row
// insert shifts rows only within its own cluster's slot instead of
// memmoving the whole arena suffix; a full slot grows by amortized
// doubling, and batched splices rebuild the arena tight (compaction).

#ifndef FLEXREL_ENGINE_PLI_H_
#define FLEXREL_ENGINE_PLI_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "relational/attribute.h"
#include "relational/tuple.h"

namespace flexrel {

/// Inverse view of a partition: row index -> cluster *label*, any label
/// >= label_bound (Pli::kNoCluster from BuildProbe) for rows outside every
/// cluster. Intersection needs only that rows agree iff their labels are
/// equal and below the bound: labels of a fresh BuildProbe are the
/// canonical cluster indices, and a dictionary code column
/// (engine/dictionary.h) is a probe as it stands — label = code, bound =
/// code_bound(), absent rows = kMissingCode. Singleton codes need no
/// stripping: their sub-clusters have size 1 and drop out of any product.
struct PliProbe {
  std::vector<uint32_t> labels;
  uint32_t label_bound = 0;  ///< labels below it name clusters
};

/// A stripped partition: clusters of row indices, each cluster the rows
/// agreeing on the partition's attribute set, singleton clusters removed.
/// Canonical form — rows ascending within a cluster, clusters ordered by
/// their first row — so equal partitions compare equal.
class Pli {
 public:
  using RowId = uint32_t;
  using Cluster = std::vector<RowId>;

  /// Marker for rows outside every cluster in PliProbe::labels.
  static constexpr uint32_t kNoCluster = UINT32_MAX;

  /// A borrowed, read-only span over one cluster's ascending row ids.
  /// Valid until the owning Pli is mutated or destroyed.
  class ClusterView {
   public:
    using value_type = RowId;
    using const_iterator = const RowId*;

    ClusterView() = default;
    ClusterView(const RowId* data, size_t size) : data_(data), size_(size) {}

    const RowId* begin() const { return data_; }
    const RowId* end() const { return data_ + size_; }
    RowId front() const { return data_[0]; }
    RowId back() const { return data_[size_ - 1]; }
    RowId operator[](size_t i) const { return data_[i]; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    friend bool operator==(ClusterView a, ClusterView b) {
      return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
    }
    friend bool operator==(ClusterView a, const Cluster& b) {
      return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }
    friend bool operator==(const Cluster& a, ClusterView b) { return b == a; }

   private:
    const RowId* data_ = nullptr;
    size_t size_ = 0;
  };

  /// Random-access range of ClusterViews in canonical order — what
  /// `for (Pli::ClusterView c : pli.clusters())` iterates.
  class ClusterRange {
   public:
    class iterator {
     public:
      using value_type = ClusterView;
      using difference_type = ptrdiff_t;
      iterator(const Pli* pli, size_t i) : pli_(pli), i_(i) {}
      ClusterView operator*() const { return pli_->cluster(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }
      bool operator==(const iterator& o) const { return i_ == o.i_; }

     private:
      const Pli* pli_;
      size_t i_;
    };

    explicit ClusterRange(const Pli* pli) : pli_(pli) {}
    iterator begin() const { return iterator(pli_, 0); }
    iterator end() const { return iterator(pli_, pli_->num_clusters()); }
    ClusterView operator[](size_t i) const { return pli_->cluster(i); }
    size_t size() const { return pli_->num_clusters(); }
    bool empty() const { return pli_->num_clusters() == 0; }

   private:
    const Pli* pli_;
  };

  /// Reusable scratch for IntersectWithProbe: the flat count/offset/touched
  /// arrays plus the emission buffer. Capacity persists across calls, so a
  /// caller that intersects in a loop (the cache's level sweeps, discovery)
  /// does zero heap allocations in steady state beyond the exact-size
  /// output. Passing nullptr falls back to a thread-local instance, which
  /// gives every worker thread the same reuse for free.
  struct IntersectScratch {
    std::vector<uint32_t> count;
    std::vector<uint32_t> offset;
    std::vector<uint32_t> touched;
    std::vector<RowId> emitted;
    struct Desc {
      RowId front;
      uint32_t begin;
      uint32_t size;
    };
    std::vector<Desc> descs;
  };

  Pli() = default;

  /// Partition by a single attribute: clusters rows carrying `attr` by its
  /// value, by hashing. The from-scratch oracle for BuildFromCodes.
  static Pli Build(const std::vector<Tuple>& rows, AttrId attr);

  /// Partition by an arbitrary attribute set, built directly by hashing
  /// X-projections. Reference implementation for tests and one-off callers;
  /// the cache assembles the same partition out of single-attribute PLIs.
  static Pli Build(const std::vector<Tuple>& rows, const AttrSet& attrs);

  /// Single-attribute partition from a dictionary code column
  /// (engine/dictionary.h) via counting sort — no Value hashing at all.
  /// `codes[row]` is the row's dense code; any code >= `code_bound`
  /// (CodeColumn::kMissingCode) marks the attribute absent. Structurally
  /// identical to Build(rows, attr) over the decoded values: canonical
  /// cluster order, singletons stripped, defined_rows exact.
  static Pli BuildFromCodes(const std::vector<uint32_t>& codes,
                            uint32_t code_bound);

  /// The product partition: clusters of `this` refined by the clusters of
  /// `other`. Equals Build(rows, X ∪ Y) when the operands are the
  /// partitions by X and Y over the same instance.
  Pli Intersect(const Pli& other) const;

  /// Intersect against a precomputed label array (see PliProbe: a
  /// BuildProbe() result, or a code column's codes with its code_bound())
  /// — lets a caller that intersects many partitions against the same
  /// operand skip the O(num_rows) probe build per call. Refines through
  /// `scratch` (thread-local default, arrays sized by `label_bound`) and
  /// allocates only the exact-size output.
  Pli IntersectWithProbe(std::span<const uint32_t> labels,
                         uint32_t label_bound,
                         IntersectScratch* scratch = nullptr) const;

  // ------------------------------------------------------------------
  // Incremental maintenance primitives (driven by PliCache's
  // OnInsert/OnUpdate hooks — see pli_cache.h). A stripped partition alone
  // cannot patch itself: when a second row arrives for a value that so far
  // had one (stripped) carrier, the partition does not know *which* row to
  // un-strip. The cache therefore computes the `agreeing` list — the rows
  // currently agreeing with `row` on the partition attributes — from its
  // code columns' unstripped buckets and hands it down here.
  // ------------------------------------------------------------------

  /// Patches the partition for a row that is (newly) defined on the
  /// partition attributes and agrees with `agreeing` (ascending row ids;
  /// `includes_row` says whether `row` itself appears in the list, which
  /// lets the cache pass code-column buckets without copying them).
  /// Canonical form and the defined_rows semantics (exact for Build
  /// output, grouped-rows lower bound for intersection products) are
  /// preserved. Returns false — leaving the partition untouched — when the
  /// cluster structure contradicts the arguments; the cache then drops the
  /// partition and rebuilds it lazily.
  bool ApplyInsert(RowId row, const Cluster& agreeing, bool includes_row);

  /// ∅-partition fast path for appends: the new row agrees with *every*
  /// existing row (all rows project to the empty tuple), so the partner
  /// list — rows 0..row-1 — never needs materializing.
  bool ApplyInsertAllRows(RowId row);

  /// The reverse patch: detaches `row`, which previously agreed with
  /// `agreeing` (same conventions), from the partition.
  bool ApplyErase(RowId row, const Cluster& agreeing, bool includes_row);

  /// One replacement in a batched group-apply: the cluster that held
  /// `old_size` rows and was fronted by `old_front` (ignored when
  /// old_size < 2 — a stripped value has no cluster) becomes `new_rows`
  /// (ascending; dropped when it would be stripped). Multi-attribute group
  /// patches in the cache build these, one per affected cluster.
  struct ClusterPatch {
    RowId old_front = 0;
    size_t old_size = 0;
    Cluster new_rows;
  };

  /// Zero-copy variant: the replacement rows are borrowed (a span into an
  /// already-spliced code-column bucket, CodeColumn::ApplyBatch) instead of
  /// copied. The pointed-to rows must stay valid until ApplyBatch returns —
  /// the cache consumes a splice's views before the next splice can touch
  /// them, so each replacement lands with one copy, bucket -> arena.
  struct ClusterPatchView {
    RowId old_front = 0;
    size_t old_size = 0;
    const RowId* new_rows = nullptr;  ///< null iff new_size == 0
    uint32_t new_size = 0;
  };

  /// Batched counterpart of ApplyInsert/ApplyErase: applies every patch in
  /// one pass — removals are validated first (front + size must match, so a
  /// contradicted partition refuses before any mutation), then
  /// size-preserving front-keeping replacements are swapped in place and
  /// everything structural (dissolved, appeared, resized, or re-fronted
  /// clusters) lands in a single sorted compaction pass over the arena.
  /// `defined_delta` is the net change in rows defined on the partition
  /// attributes (exact mode only; intersection products keep the
  /// grouped-rows lower bound). Returns false — a true no-op — when any
  /// removal contradicts the current cluster structure; the cache then
  /// drops the partition for a lazy rebuild.
  bool ApplyBatch(const std::vector<ClusterPatchView>& patches,
                  ptrdiff_t defined_delta);

  /// The owning-rows counterpart (same semantics, same refusal contract).
  bool ApplyBatch(const std::vector<ClusterPatch>& patches,
                  ptrdiff_t defined_delta);

  /// Row-count bookkeeping for appends: BuildProbe sizing and operator==
  /// depend on num_rows; the cache bumps every cached partition when the
  /// instance grows, whether or not the new row enters its clusters.
  void SetNumRows(size_t num_rows) { num_rows_ = num_rows; }

  /// True when defined_rows() is exact (Build output); false when it is the
  /// grouped-rows lower bound (intersection products). The patch primitives
  /// preserve the mode.
  bool exact_defined() const { return exact_defined_; }

  /// The i-th cluster in canonical order, as a borrowed span. Live rows
  /// sit at the front of the cluster's arena slot; trailing slack (if any)
  /// is never exposed.
  ClusterView cluster(size_t i) const {
    return ClusterView(arena_.data() + offsets_[i], sizes_[i]);
  }

  ClusterRange clusters() const { return ClusterRange(this); }
  size_t num_clusters() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of rows of the underlying instance (cluster ids index into it).
  size_t num_rows() const { return num_rows_; }

  /// Rows appearing in some cluster (i.e. rows with at least one partner
  /// agreeing with them on the partition attributes).
  size_t grouped_rows() const { return grouped_rows_; }

  /// Rows defined on the partition's attribute set. Exact for partitions
  /// coming out of Build; a lower bound (= grouped_rows) for intersection
  /// products, whose stripped singletons are unrecoverable.
  size_t defined_rows() const { return defined_rows_; }

  /// Number of distinct projections over the partition attributes among the
  /// defined rows: the stripped clusters plus one singleton cluster per
  /// partnerless defined row. This is the cluster-count statistic the
  /// evaluator's join-order estimates consume (exact after Build, a lower
  /// bound after Intersect — see defined_rows()).
  size_t NumDistinct() const {
    return num_clusters() + (defined_rows_ - grouped_rows_);
  }

  bool empty() const { return num_clusters() == 0; }

  /// Arena slots not currently holding a live row (dead headroom from
  /// per-cluster slack growth and dissolved clusters). Always 0 right
  /// after a build or a batched splice — ApplyBatch rebuilds tight — and
  /// bounded between them by the amortized-doubling growth policy.
  /// Exposed for tests and the memory accounting bench.
  size_t ArenaSlackRows() const { return arena_.size() - grouped_rows_; }

  /// Inverse mapping with canonical labels (label == cluster index,
  /// label_bound == num_clusters). O(num_rows).
  PliProbe BuildProbe() const;

  /// Approximate heap footprint — reported by bench_pli and charged by the
  /// cache's byte-budget accounting (PliCacheOptions::memory_budget_bytes).
  size_t MemoryBytes() const;

  /// Structural self-check for tests and debugging: monotone arena slot
  /// boundaries with every slot's live size in [2, capacity], arena size
  /// == last boundary, rows strictly ascending within clusters and
  /// < num_rows, canonical cluster order, and defined_rows consistent with
  /// grouped_rows for the partition's defined mode. On failure fills `error`
  /// (when non-null) and returns false.
  bool CheckInvariants(std::string* error = nullptr) const;

  bool operator==(const Pli& other) const;
  bool operator!=(const Pli& other) const { return !(*this == other); }

 private:
  /// Takes freshly built clusters (any order, each >= 2 rows, rows
  /// ascending), canonicalizes, and lays them out in the arena.
  void AdoptClusters(std::vector<Cluster> clusters);

  /// Shared patch body: `others` partners, their cluster fronted by
  /// `partner_front` (ignored when others == 0).
  bool ApplyInsertCore(RowId row, size_t others, RowId partner_front);

  /// The refinement body behind IntersectWithProbe.
  Pli IntersectArena(std::span<const uint32_t> labels, uint32_t label_bound,
                     IntersectScratch* scratch) const;

  // Arena primitives (see pli.cc).
  size_t ArenaLowerBoundByFront(RowId front) const;
  size_t ArenaFindClusterByFront(RowId front) const;
  void ArenaRepositionCluster(size_t index, size_t target);
  void ArenaMaybeReposition(size_t index);

  std::vector<RowId> arena_;       // cluster slots (rows + slack)
  std::vector<uint32_t> offsets_;  // num_clusters + 1 monotone slot
                                   // boundaries; slot i capacity is
                                   // offsets_[i+1] - offsets_[i]
  std::vector<uint32_t> sizes_;    // live rows in slot i (<= capacity)
  size_t num_rows_ = 0;
  size_t grouped_rows_ = 0;
  size_t defined_rows_ = 0;
  bool exact_defined_ = true;  // false for intersection products
};

/// gtest-friendly printer for cluster views.
std::ostream& operator<<(std::ostream& os, Pli::ClusterView view);

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PLI_H_
