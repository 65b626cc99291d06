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
// The payoff is the product construction: the partition by X ∪ {a} is the
// cluster-wise refinement of the partition by X by a's dictionary code
// column (engine/dictionary.h). Refining a cached partition costs O(rows in
// clusters) integer work — no value hashing, no tuple projection — which is
// what makes level-wise dependency discovery scale (see pli_cache.h). The
// validator (validator.h) reads the same columns over the clusters.
//
// Storage: clusters live in a CSR-style arena — one contiguous rows array
// plus a monotone offsets array — so intersections and validator scans
// stream over one allocation instead of chasing one heap vector per cluster
// (the layout mature PLI engines converge on). A partition is immutable once
// built: the cache drops the partitions a mutation touches and rebuilds them
// from its spliced code columns (pli_cache.h).

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

/// A stripped partition: clusters of row indices, each cluster the rows
/// agreeing on the partition's attribute set, singleton clusters removed.
/// Canonical form — rows ascending within a cluster, clusters ordered by
/// their first row — so equal partitions compare equal.
class Pli {
 public:
  using RowId = uint32_t;
  using Cluster = std::vector<RowId>;

  /// A borrowed, read-only span over one cluster's ascending row ids.
  /// Valid until the owning Pli is destroyed.
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

  /// The product partition: clusters of `this` refined by a label array.
  /// Rows agree iff their labels are equal and below `label_bound`; a
  /// dictionary code column (engine/dictionary.h) is such an array as it
  /// stands — label = code, bound = code_bound(), absent rows =
  /// kMissingCode — and singleton codes need no stripping: their
  /// sub-clusters have size 1 and drop out of the product. Refining the
  /// partition by X with the column of a equals Build(rows, X ∪ {a}).
  /// Refines through `scratch` (thread-local default, arrays sized by
  /// `label_bound`) and allocates only the exact-size output.
  Pli IntersectWithProbe(std::span<const uint32_t> labels,
                         uint32_t label_bound,
                         IntersectScratch* scratch = nullptr) const;

  /// The i-th cluster in canonical order, as a borrowed span.
  ClusterView cluster(size_t i) const {
    return ClusterView(arena_.data() + offsets_[i],
                       offsets_[i + 1] - offsets_[i]);
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

  /// Approximate heap footprint — bench_pli reports it as partition_bytes.
  size_t MemoryBytes() const;

  /// Structural self-check for tests and debugging: monotone cluster
  /// boundaries with every cluster of >= 2 rows, arena size == last
  /// boundary, rows strictly ascending within clusters and
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

  /// The refinement body behind IntersectWithProbe.
  Pli IntersectArena(std::span<const uint32_t> labels, uint32_t label_bound,
                     IntersectScratch* scratch) const;

  std::vector<RowId> arena_;       // every cluster's rows, in order
  std::vector<uint32_t> offsets_;  // num_clusters + 1 monotone boundaries
  size_t num_rows_ = 0;
  size_t grouped_rows_ = 0;
  size_t defined_rows_ = 0;
  bool exact_defined_ = true;  // false for intersection products
};

/// gtest-friendly printer for cluster views.
std::ostream& operator<<(std::ostream& os, Pli::ClusterView view);

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PLI_H_
