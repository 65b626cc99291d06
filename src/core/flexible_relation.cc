#include "core/flexible_relation.h"

#include <algorithm>
#include <memory_resource>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "engine/pli_cache.h"
#include "engine/validator.h"
#include "telemetry/telemetry.h"
#include "util/string_util.h"

namespace flexrel {

// The special members exist to pin down one fact: the partition cache never
// travels with the relation. It holds a pointer to this object's row vector,
// so a copy's or move-target's rows live elsewhere; both start cache-less
// and rebuild lazily.
FlexibleRelation::FlexibleRelation(const FlexibleRelation& other)
    : name_(other.name_),
      checker_(other.checker_),
      deps_(other.deps_),
      rows_(other.rows_) {}

FlexibleRelation::FlexibleRelation(FlexibleRelation&& other) noexcept
    : name_(std::move(other.name_)),
      checker_(std::move(other.checker_)),
      deps_(std::move(other.deps_)),
      rows_(std::move(other.rows_)) {
  other.InvalidateCache();
}

FlexibleRelation& FlexibleRelation::operator=(const FlexibleRelation& other) {
  if (this != &other) {
    name_ = other.name_;
    checker_ = other.checker_;
    deps_ = other.deps_;
    rows_ = other.rows_;
    InvalidateCache();
  }
  return *this;
}

FlexibleRelation& FlexibleRelation::operator=(
    FlexibleRelation&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    checker_ = std::move(other.checker_);
    deps_ = std::move(other.deps_);
    rows_ = std::move(other.rows_);
    InvalidateCache();
    other.InvalidateCache();
  }
  return *this;
}

FlexibleRelation::~FlexibleRelation() = default;

std::shared_ptr<PliCache> FlexibleRelation::pli_cache() const {
  std::lock_guard<std::mutex> lock(pli_mu_);
  if (pli_cache_ == nullptr) {
    pli_cache_ = std::make_shared<PliCache>(&rows_);
    has_pli_cache_.store(true, std::memory_order_release);
  }
  return pli_cache_;
}

void FlexibleRelation::InvalidateCache() {
  // Cache-less is the common case (every derived relation an operator
  // materializes tuple by tuple); skip the lock entirely then. Mutating
  // concurrently with readers is a documented data race regardless, so the
  // relaxed pre-check gives up nothing.
  if (!has_pli_cache_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(pli_mu_);
  pli_cache_.reset();
  has_pli_cache_.store(false, std::memory_order_release);
}

void FlexibleRelation::NotifyBatch(
    size_t first_inserted, size_t insert_count,
    std::span<std::pair<size_t, Tuple>> old_rows) {
  // No cache, no work: one atomic load, no allocation — the path of every
  // derived relation an operator materializes row by row. The row vector's
  // *address* is stable across push_back (the cache points at the
  // member), so an attached cache survives and buffers the delta.
  if (insert_count == 0 && old_rows.empty()) return;
  if (!has_pli_cache_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(pli_mu_);
  if (pli_cache_ == nullptr) return;
  if (insert_count > 0) {
    pli_cache_->OnInsertBatch(static_cast<Pli::RowId>(first_inserted),
                              insert_count);
  }
  if (!old_rows.empty()) {
    std::vector<std::pair<Pli::RowId, Tuple>> updates;
    updates.reserve(old_rows.size());
    for (auto& [index, old_row] : old_rows) {
      updates.emplace_back(static_cast<Pli::RowId>(index),
                           std::move(old_row));
    }
    pli_cache_->OnUpdateBatch(std::move(updates));
  }
}

FlexibleRelation FlexibleRelation::Base(
    std::string name, const AttrCatalog* catalog, FlexibleScheme scheme,
    std::vector<ExplicitAD> eads,
    std::vector<std::pair<AttrId, Domain>> domains) {
  FlexibleRelation fr;
  fr.name_ = std::move(name);
  // Derive the abbreviated dependency set from the EADs up front: the
  // algebra consumes ads(FR) in this form.
  for (const ExplicitAD& ead : eads) {
    auto abbrev = ead.Abbreviate();
    fr.deps_.AddAd(AttrDep{abbrev.lhs, abbrev.rhs});
  }
  fr.checker_ = std::make_shared<TypeChecker>(
      catalog, std::move(scheme), std::move(eads), std::move(domains));
  return fr;
}

FlexibleRelation FlexibleRelation::Derived(std::string name,
                                           DependencySet deps) {
  FlexibleRelation fr;
  fr.name_ = std::move(name);
  fr.deps_ = std::move(deps);
  return fr;
}

Status FlexibleRelation::Insert(const Tuple& t) {
  if (checker_ != nullptr) {
    FLEXREL_RETURN_IF_ERROR(
        checker_->Check(t).WithContext(StrCat("insert into ", name_)));
  }
  if (std::find(rows_.begin(), rows_.end(), t) != rows_.end()) {
    return Status::AlreadyExists(
        StrCat("duplicate tuple rejected by set semantics of ", name_));
  }
  rows_.push_back(t);
  NotifyBatch(rows_.size() - 1, 1, {});
  return Status::OK();
}

void FlexibleRelation::InsertUnchecked(Tuple t) {
  rows_.push_back(std::move(t));
  NotifyBatch(rows_.size() - 1, 1, {});
}

Result<TypeChecker::TypeDelta> FlexibleRelation::PrepareUpdate(
    const Tuple& current, AttrId attr, Value value, const Tuple& fill,
    Tuple* out) const {
  Tuple updated = current;
  updated.Set(attr, std::move(value));

  TypeChecker::TypeDelta delta;
  if (checker_ != nullptr) {
    // Footnote 3: a determinant change entails a type change. Compute the
    // delta the EADs demand, apply it (removals drop attributes, additions
    // pull values from `fill`), then re-check the full tuple.
    delta = checker_->DeltaFor(updated);
    for (AttrId a : delta.to_remove) updated.Erase(a);
    for (AttrId a : delta.to_add) {
      const Value* v = fill.Get(a);
      if (v == nullptr) {
        return Status::FailedPrecondition(
            StrCat("type change requires a value for added attribute id ", a,
                   " (supply it via `fill`)"));
      }
      updated.Set(a, *v);
    }
    FLEXREL_RETURN_IF_ERROR(
        checker_->Check(updated).WithContext(StrCat("update of ", name_)));
  }
  *out = std::move(updated);
  return delta;
}

Result<TypeChecker::TypeDelta> FlexibleRelation::Update(size_t index,
                                                        AttrId attr,
                                                        Value value,
                                                        const Tuple& fill) {
  if (index >= rows_.size()) {
    return Status::OutOfRange(StrCat("row index ", index, " out of range"));
  }
  Tuple updated;
  FLEXREL_ASSIGN_OR_RETURN(
      TypeChecker::TypeDelta delta,
      PrepareUpdate(rows_[index], attr, std::move(value), fill, &updated));
  std::pair<size_t, Tuple> displaced(index, std::move(rows_[index]));
  rows_[index] = std::move(updated);
  NotifyBatch(rows_.size(), 0, {&displaced, 1});
  return delta;
}

Status FlexibleRelation::ApplyBatchImpl(
    std::vector<Mutation> batch, std::vector<TypeChecker::TypeDelta>* deltas) {
  telemetry::ScopedSpan batch_span("relation.apply_batch");
  FLEXREL_TELEMETRY_LATENCY(batch_timer, "core.relation.batch_ns");
  FLEXREL_TELEMETRY_COUNT("core.relation.batches", 1);
  FLEXREL_TELEMETRY_COUNT("core.relation.batch_ops", batch.size());
  if (batch_span.active()) {
    batch_span.SetDetail("ops=" + std::to_string(batch.size()));
  }
  const size_t base = rows_.size();
  // Stage 1: validate every op against a staged view of the instance.
  // Nothing here touches rows_ or the attached cache, so any failure
  // leaves both exactly as they were.
  std::vector<Tuple> staged_inserts;
  // Reserving for every possible insert keeps the staged tuples' addresses
  // stable, which the pointer-keyed membership set below relies on.
  const size_t max_inserts = static_cast<size_t>(
      std::count_if(batch.begin(), batch.end(),
                    [](const Mutation& m) { return m.is_insert; }));
  staged_inserts.reserve(max_inserts);
  // Existing-row overlays. Their nodes come from a pool freed with the
  // batch: one node per updated row would otherwise cost an allocation and
  // a free each, a visible share of staging a small update batch.
  std::pmr::monotonic_buffer_resource overlay_pool;
  std::pmr::unordered_map<size_t, Tuple> staged_updates(&overlay_pool);
  staged_updates.reserve(batch.size() - max_inserts);
  auto effective = [&](size_t index) -> const Tuple& {
    if (index >= base) return staged_inserts[index - base];
    auto it = staged_updates.find(index);
    return it != staged_updates.end() ? it->second : rows_[index];
  };
  // Set-semantics membership of the staged instance, built lazily on the
  // first insert op (updates never duplicate-check, matching Update()).
  // Hashed pointers into rows_ and the staged containers — all
  // address-stable for the staging phase — so bulk loads are O(rows)
  // without deep-copying a second instance, unlike the per-op linear scan
  // Insert() pays.
  struct TuplePtrHash {
    size_t operator()(const Tuple* t) const { return t->Hash(); }
  };
  struct TuplePtrEq {
    bool operator()(const Tuple* a, const Tuple* b) const { return *a == *b; }
  };
  std::optional<std::unordered_multiset<const Tuple*, TuplePtrHash, TuplePtrEq>>
      instance;
  auto ensure_instance = [&] {
    if (instance.has_value()) return;
    instance.emplace();
    instance->reserve(base + staged_inserts.size());
    for (size_t i = 0; i < base + staged_inserts.size(); ++i) {
      instance->insert(&effective(i));
    }
  };
  for (size_t i = 0; i < batch.size(); ++i) {
    Mutation& m = batch[i];
    if (m.is_insert) {
      if (checker_ != nullptr) {
        FLEXREL_RETURN_IF_ERROR(checker_->Check(m.row).WithContext(
            StrCat("batch op#", i, ": insert into ", name_)));
      }
      ensure_instance();
      if (instance->count(&m.row) > 0) {
        return Status::AlreadyExists(
            StrCat("batch op#", i, ": duplicate tuple rejected by set ",
                   "semantics of ", name_));
      }
      staged_inserts.push_back(std::move(m.row));
      instance->insert(&staged_inserts.back());
    } else {
      UpdateSpec& u = m.update;
      if (u.index >= base + staged_inserts.size()) {
        return Status::OutOfRange(
            StrCat("batch op#", i, ": row index ", u.index, " out of range"));
      }
      // The op's staged slot and the state it updates: a row inserted
      // earlier in the batch, an overlay staged by an earlier update of the
      // same row, or — on the row's first update — the committed row. One
      // map lookup serves both.
      Tuple* slot;
      const Tuple* before;
      if (u.index >= base) {
        slot = &staged_inserts[u.index - base];
        before = slot;
      } else {
        auto [it, first_update] = staged_updates.try_emplace(u.index);
        slot = &it->second;
        before = first_update ? &rows_[u.index] : slot;
      }
      // `before` is consumed by the calls below, all of which complete
      // before the slot is overwritten.
      Tuple after;
      auto delta =
          PrepareUpdate(*before, u.attr, std::move(u.value), u.fill, &after);
      if (!delta.ok()) {
        return delta.status().WithContext(StrCat("batch op#", i));
      }
      if (deltas != nullptr) deltas->push_back(std::move(delta).value());
      if (instance.has_value()) {
        // Retire the pre-update state by pointer identity. Value-equal
        // duplicates are legal mid-batch (updates skip the dup check), so
        // find() could pick a twin and leave `before`'s own pointer in the
        // set while its slot is overwritten below — a live hash key
        // mutating under the container.
        auto [lo, hi] = instance->equal_range(before);
        for (auto it = lo; it != hi; ++it) {
          if (*it == before) {
            instance->erase(it);
            break;
          }
        }
      }
      *slot = std::move(after);
      if (instance.has_value()) instance->insert(slot);
    }
  }
  // Stage 2: commit — nothing below can fail. Append the staged inserts,
  // swap the staged updates in, then hand the cache the whole delta as one
  // buffered batch.
  const size_t insert_count = staged_inserts.size();
  rows_.reserve(base + insert_count);
  for (Tuple& t : staged_inserts) rows_.push_back(std::move(t));
  std::vector<std::pair<size_t, Tuple>> old_rows;
  old_rows.reserve(staged_updates.size());
  for (auto& [index, staged] : staged_updates) {
    old_rows.emplace_back(index, std::move(rows_[index]));
    rows_[index] = std::move(staged);
  }
  NotifyBatch(base, insert_count, old_rows);
  return Status::OK();
}

Status FlexibleRelation::ApplyBatch(std::vector<Mutation> batch) {
  return ApplyBatchImpl(std::move(batch), nullptr);
}

Status FlexibleRelation::InsertRows(std::vector<Tuple> rows) {
  std::vector<Mutation> batch;
  batch.reserve(rows.size());
  for (Tuple& t : rows) batch.push_back(Mutation::Insert(std::move(t)));
  return ApplyBatchImpl(std::move(batch), nullptr);
}

void FlexibleRelation::InsertRowsUnchecked(std::vector<Tuple> rows) {
  FLEXREL_TELEMETRY_LATENCY(batch_timer, "core.relation.batch_ns");
  FLEXREL_TELEMETRY_COUNT("core.relation.batches", 1);
  FLEXREL_TELEMETRY_COUNT("core.relation.batch_ops", rows.size());
  const size_t base = rows_.size();
  rows_.reserve(base + rows.size());
  for (Tuple& t : rows) rows_.push_back(std::move(t));
  NotifyBatch(base, rows_.size() - base, {});
}

Result<std::vector<TypeChecker::TypeDelta>> FlexibleRelation::UpdateRows(
    std::vector<UpdateSpec> updates) {
  std::vector<Mutation> batch;
  batch.reserve(updates.size());
  for (UpdateSpec& u : updates) {
    batch.push_back(Mutation::Update(std::move(u)));
  }
  std::vector<TypeChecker::TypeDelta> deltas;
  deltas.reserve(batch.size());
  FLEXREL_RETURN_IF_ERROR(ApplyBatchImpl(std::move(batch), &deltas));
  return deltas;
}

bool FlexibleRelation::AuditDeclaredDeps() const {
  if (deps_.empty()) return true;
  return ValidatesAll(pli_cache().get(), deps_);
}

AttrSet FlexibleRelation::ActiveAttrs() const {
  // Allocation-free per row once the union has saturated: a row only costs
  // lookups of attributes already collected.
  AttrSet all;
  for (const Tuple& t : rows_) {
    for (const auto& field : t.fields()) {
      if (!all.Contains(field.first)) all.Insert(field.first);
    }
  }
  return all;
}

std::string FlexibleRelation::ToString(const AttrCatalog& catalog) const {
  std::ostringstream os;
  os << name_;
  if (checker_ != nullptr) {
    os << " :: " << checker_->scheme().ToString(catalog);
  }
  os << " (" << rows_.size() << " tuples)\n";
  for (const Tuple& t : rows_) os << "  " << t.ToString(catalog) << "\n";
  return os.str();
}

}  // namespace flexrel
