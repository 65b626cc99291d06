// Flexible relations: FR = < FS, inst > (Section 2.1).
//
// A flexible relation couples a flexible scheme with an instance — a finite
// *set* of tuples drawn from dom(FS) = ∪_{X ∈ dnf(FS)} Tup(X) — plus the
// EADs declared over it. Inserts and updates are type-checked; updates that
// change determinant values trigger the type-change handling of footnote 3.
//
// Algebra operators produce derived relations whose shape is no longer
// governed by a declared scheme (the paper's closure discussion in
// Section 4.3); such relations carry scheme() == nullopt but still propagate
// abbreviated dependencies.

#ifndef FLEXREL_CORE_FLEXIBLE_RELATION_H_
#define FLEXREL_CORE_FLEXIBLE_RELATION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dependency_set.h"
#include "core/type_check.h"
#include "engine/pli_cache_options.h"

namespace flexrel {

class PliCache;

/// A heterogeneous, strongly typed set of tuples.
class FlexibleRelation {
 public:
  FlexibleRelation() = default;
  FlexibleRelation(const FlexibleRelation& other);
  FlexibleRelation(FlexibleRelation&& other) noexcept;
  FlexibleRelation& operator=(const FlexibleRelation& other);
  FlexibleRelation& operator=(FlexibleRelation&& other) noexcept;
  ~FlexibleRelation();
  /// A base relation with declared scheme, EADs, and domains.
  static FlexibleRelation Base(std::string name, const AttrCatalog* catalog,
                               FlexibleScheme scheme,
                               std::vector<ExplicitAD> eads,
                               std::vector<std::pair<AttrId, Domain>> domains);

  /// A derived relation (algebra output): no scheme, only the propagated
  /// abbreviated dependencies.
  static FlexibleRelation Derived(std::string name, DependencySet deps);

  const std::string& name() const { return name_; }
  bool has_checker() const { return checker_ != nullptr; }
  const TypeChecker* checker() const { return checker_.get(); }

  /// The abbreviated dependency view ads(FR) / fds(FR) used by the algebra's
  /// propagation rules (Theorem 4.3).
  const DependencySet& deps() const { return deps_; }
  DependencySet* mutable_deps() { return &deps_; }

  /// Type-checked insert (set semantics: duplicate tuples are rejected, as
  /// instances are sets of tuples).
  Status Insert(const Tuple& t);

  /// Insert without type checks (used by algebra operators, whose outputs
  /// are well-typed by construction, and by the decomposition baselines).
  void InsertUnchecked(Tuple t);

  /// Updates attribute `attr` of row `index` to `value`.
  ///
  /// When the new value flips an EAD variant, the tuple's *type* changes
  /// (footnote 3): attributes demanded by the new variant are missing and
  /// attributes of the old variant are now illegal. `fill` supplies values
  /// for attributes that must be added; the update fails if `fill` lacks one
  /// of them. Returns the applied delta.
  Result<TypeChecker::TypeDelta> Update(size_t index, AttrId attr, Value value,
                                        const Tuple& fill = Tuple());

  /// One attribute update of one row, as staged by the batch entry points
  /// below; `fill` plays the same footnote-3 role as in Update().
  struct UpdateSpec {
    size_t index = 0;
    AttrId attr = 0;
    Value value;
    Tuple fill;
  };

  /// One operation of a transactional mutation batch. Ops apply in order
  /// against the *staged* instance: an update may target a row inserted
  /// earlier in the same batch (indexes are into the post-batch row
  /// vector) and observes earlier staged states, so a batch validates
  /// exactly like the equivalent op-by-op sequence would.
  struct Mutation {
    static Mutation Insert(Tuple row) {
      Mutation m;
      m.is_insert = true;
      m.row = std::move(row);
      return m;
    }
    static Mutation Update(UpdateSpec spec) {
      Mutation m;
      m.update = std::move(spec);
      return m;
    }
    static Mutation Update(size_t index, AttrId attr, Value value,
                           Tuple fill = Tuple()) {
      return Update(UpdateSpec{index, attr, std::move(value),
                               std::move(fill)});
    }

    bool is_insert = false;
    Tuple row;          // insert payload
    UpdateSpec update;  // update payload
  };

  /// Transactional batch mutation: validates the WHOLE delta — type
  /// checks, set semantics for inserts, footnote-3 fill requirements —
  /// against a staged view before touching the instance or the attached
  /// partition cache. On any failure the relation and cache are byte-
  /// identical to before the call and the error names the offending op;
  /// on success the rows mutate and the cache receives the delta as one
  /// buffered batch (flushed adaptively on the next read, see
  /// engine/pli_cache.h) instead of per-row patch work.
  Status ApplyBatch(std::vector<Mutation> batch);

  /// Type-checked bulk insert: ApplyBatch over pure inserts. All-or-
  /// nothing; duplicate rows (against the instance or within the batch)
  /// are rejected by set semantics like Insert().
  Status InsertRows(std::vector<Tuple> rows);

  /// Bulk counterpart of InsertUnchecked: appends without checks and
  /// notifies the cache once.
  void InsertRowsUnchecked(std::vector<Tuple> rows);

  /// Transactional bulk update: ApplyBatch over pure updates, returning
  /// one applied TypeDelta per spec (in order) like Update() does.
  Result<std::vector<TypeChecker::TypeDelta>> UpdateRows(
      std::vector<UpdateSpec> updates);

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::vector<Tuple>& rows() const { return rows_; }
  const Tuple& row(size_t i) const { return rows_[i]; }

  /// All attributes appearing in any row.
  AttrSet ActiveAttrs() const;

  /// True iff every declared dependency holds across the instance
  /// (instance-level audit; per-tuple EAD checks happen on insert).
  bool SatisfiesDeclaredDeps() const { return deps_.SatisfiedBy(rows_); }

  /// Engine-backed counterpart of SatisfiesDeclaredDeps: validates Σ
  /// through the attached partition cache (engine/validator.h) instead of
  /// re-hashing the instance once per dependency — the audit the
  /// storage/serialization load path runs over declared dependencies.
  bool AuditDeclaredDeps() const;

  /// The relation's partition cache over the current instance, built lazily
  /// on first use. The engine-backed evaluator (algebra/evaluate.h) reads it
  /// to resolve equality selections and to estimate join orders.
  ///
  /// Maintenance contract: all mutation entry points (single-row and
  /// batch) keep the attached cache alive and report their deltas to it —
  /// PliCache buffers them and the next read (Get/CodeColumnFor, i.e. any
  /// evaluator or validator access) flushes the buffer adaptively: small
  /// bursts patch clusters row by row, larger ones are group-applied in
  /// one sorted splice per affected structure, and burst sizes past
  /// max(drop_threshold, rows/2) drop everything for one lazy rebuild
  /// (engine/pli_cache.h). The per-attribute code columns — the cache's
  /// only maintained per-attribute structure — are patched by the same
  /// flush. Partition/column pointers obtained before a mutation must be
  /// treated as invalidated by it: until some reader flushes they observe
  /// the pre-mutation instance, in locked mode the flush patches them in
  /// place, and a partition the flush drops as cheaper-to-rebuild leaves a
  /// held pointer on the unmaintained object. Re-Get after mutations; copy
  /// a partition to freeze it. With pli_cache_options().incremental ==
  /// false the historical behavior is restored: every mutation drops the
  /// cache wholesale and the next call rebuilds it from scratch (the
  /// oracle the incremental path is soak-tested against —
  /// tests/engine_incremental_test.cc).
  ///
  /// Concurrency (engine/README.md "Concurrency" for the full rules): in
  /// the default COW mode (pli_cache_options().cow_reads) cache reads the
  /// published snapshot can answer are lock-free and safe concurrently
  /// with mutations — mutation hooks clone, patch, and publish before
  /// returning, and a held structure stays frozen at its epoch (re-Get to
  /// see newer epochs; stale is the worst case, torn never). What remains
  /// a data race is touching the row storage while a mutator runs: a cold
  /// cache miss rebuilds from rows() on the locked population path, and
  /// iterating rows() directly races exactly as before. In locked mode
  /// (cow_reads = false) there is no snapshot, so any concurrent
  /// evaluation must serialize with mutators externally. Copies and moves
  /// of the relation start cache-less.
  ///
  /// Telemetry contract: the batch mutation paths carry telemetry
  /// instrumentation (core.relation.* counters and the
  /// "relation.apply_batch" span, src/telemetry/telemetry.h), and it is
  /// mutation-hook-safe — the counters are relaxed atomics and the span
  /// ring takes only the registry's own mutex, while the cache fan-out
  /// (NotifyBatch) only appends to the pending-delta buffer under the
  /// cache's pli_mu_. The two lock domains never nest the other way, so
  /// instrumented mutations introduce no lock inversion, and enabling or
  /// disabling telemetry mid-run cannot change which hooks fire or the
  /// relation/cache state they produce.
  std::shared_ptr<PliCache> pli_cache() const;

  /// Replaces the options the lazily built cache is created with (and the
  /// mutation-maintenance mode above). Drops any existing cache; the next
  /// pli_cache() call rebuilds under the new options.
  void SetPliCacheOptions(const PliCacheOptions& options);
  const PliCacheOptions& pli_cache_options() const { return pli_options_; }

  std::string ToString(const AttrCatalog& catalog) const;

 private:
  void InvalidateCache();
  /// Mutation fan-out to the attached cache: buffer the delta (incremental
  /// mode) or drop the cache (fallback mode). Called after rows_ has been
  /// mutated; NotifyUpdate takes ownership of the displaced old row.
  void NotifyInsert();
  void NotifyUpdate(size_t index, Tuple old_row);
  /// Batch fan-out: `insert_count` rows appended starting at
  /// `first_inserted`, plus (index, displaced old row) pairs for in-place
  /// updates — one lock round-trip for the whole delta.
  void NotifyBatch(size_t first_inserted, size_t insert_count,
                   std::vector<std::pair<size_t, Tuple>> old_rows);

  /// The shared validation half of Update/ApplyBatch: computes the updated
  /// state of `current` (footnote-3 delta applied, `fill` consulted,
  /// checker consulted) into `out` without touching the instance.
  Result<TypeChecker::TypeDelta> PrepareUpdate(const Tuple& current,
                                               AttrId attr, Value value,
                                               const Tuple& fill,
                                               Tuple* out) const;

  /// ApplyBatch body; when `deltas` is non-null it receives one TypeDelta
  /// per update op, in op order.
  Status ApplyBatchImpl(std::vector<Mutation> batch,
                        std::vector<TypeChecker::TypeDelta>* deltas);

  std::string name_;
  std::shared_ptr<const TypeChecker> checker_;  // null for derived relations
  DependencySet deps_;
  std::vector<Tuple> rows_;
  PliCacheOptions pli_options_;
  mutable std::mutex pli_mu_;  // guards lazy creation of pli_cache_
  mutable std::shared_ptr<PliCache> pli_cache_;
  // Fast-path flag so the per-tuple InsertUnchecked loop skips the mutex
  // while no cache exists (the overwhelmingly common case for the derived
  // relations algebra operators materialize).
  mutable std::atomic<bool> has_pli_cache_{false};
};

}  // namespace flexrel

#endif  // FLEXREL_CORE_FLEXIBLE_RELATION_H_
