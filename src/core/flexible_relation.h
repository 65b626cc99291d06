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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dependency_set.h"
#include "core/type_check.h"

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
  /// buffered batch, which the next read splices in (or drops the cache
  /// for, past the burst-size bound; see engine/pli_cache.h).
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
  /// evaluator or validator access) flushes the buffer: bursts are spliced
  /// into the per-attribute code columns, the only structure a flush
  /// maintains, and every cached partition the burst touches is dropped
  /// for a lazy rebuild from them; burst sizes past max(2048, rows/2) drop
  /// everything for one lazy rebuild (engine/pli_cache.h).
  /// Partition/column pointers obtained before a mutation must be
  /// treated as invalidated by it: until some reader flushes they observe
  /// the pre-mutation instance, the flush then splices columns in place,
  /// and a dropped partition leaves a held pointer on the unmaintained
  /// object. Re-Get after mutations. The oracle the incremental path is
  /// soak-tested against is a fresh PliCache over rows()
  /// (tests/engine_incremental_test.cc).
  ///
  /// Concurrency (engine/README.md "Concurrency" for the full rules): many
  /// threads may read the cache of a quiescent relation at once (parallel
  /// discovery's workers do). Mutations must be serialized against every
  /// reader by the caller — exactly as for rows() — because the next read
  /// flushes them into the live structures in place. Copies and moves of
  /// the relation start cache-less.
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

  std::string ToString(const AttrCatalog& catalog) const;

 private:
  void InvalidateCache();
  /// Mutation fan-out to the attached cache, called after rows_ has been
  /// mutated by any entry point (single-row or batch): `insert_count` rows
  /// appended starting at `first_inserted`, plus (index, displaced old
  /// row) pairs for in-place updates, whose rows it moves out. Buffers the
  /// delta in one lock round-trip.
  void NotifyBatch(size_t first_inserted, size_t insert_count,
                   std::span<std::pair<size_t, Tuple>> old_rows);

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
  mutable std::mutex pli_mu_;  // guards lazy creation of pli_cache_
  mutable std::shared_ptr<PliCache> pli_cache_;
  // Fast-path flag so the per-tuple InsertUnchecked loop skips the mutex
  // while no cache exists (the overwhelmingly common case for the derived
  // relations algebra operators materialize).
  mutable std::atomic<bool> has_pli_cache_{false};
};

}  // namespace flexrel

#endif  // FLEXREL_CORE_FLEXIBLE_RELATION_H_
