// Per-attribute dictionary codec: the columnar value plane.
//
// Every hot structure in the engine — stripped partitions, intersection
// probes, selections, hash-join signatures — only ever needs value
// *identity* per attribute, never the value itself. A CodeColumn
// interns one attribute's values into dense uint32_t codes and holds both
// directions of the mapping: row -> code (the column) and code -> ascending
// rows (the buckets). That one structure serves every per-attribute need of
// the engine: partition construction is a counting sort over the column
// (Pli::BuildFromCodes); the column itself is the probe every intersection
// refines by (label = code); equality selections are one small-dictionary
// lookup plus a bucket read. The PliCache owns one CodeColumn per attribute
// any cached partition (or reader) touches (CodeColumnFor) and splices it
// in the flush that drops the partitions a mutation touches, so the column
// is always fresh and those partitions rebuild from it.
//
// Code space. Code 0 is reserved for the explicit Value::Null (null equals
// null under the paper's Kleene semantics, so nulls cluster — they need a
// code like any other value); kMissingCode marks a row that does not carry
// the attribute at all (flexible relations: absent is not null). Codes are
// append-only within a dictionary *generation*: an update introducing a
// fresh value (including a footnote-3 type change re-typing the attribute,
// which arrives through the cache's multi-attribute delta path) interns it
// at the next free code and never disturbs existing assignments, so
// structures built earlier in the generation stay comparable. Value churn
// leaves dead codes behind (interned values no row carries any more); once
// the dictionary outgrows its live codes 2:1 (past a slack floor) the
// column re-interns — live values are recoded densely, the generation
// bumps, and every consumer that fetches the column afresh sees the
// compact space. Consumers must never mix codes across column fetches:
// each fetched column is self-consistent, the generation tag exists so
// tests (and debuggers) can tell two code spaces apart.
//
// Telemetry (all under engine.codec.*): `interned_codes` counts fresh
// interns (builds included), `generation_bumps` counts generation
// increments (initial builds and re-interns alike), `reintern_flushes`
// counts staleness-triggered re-intern passes.
//
// Thread-safety: none of its own — the owning PliCache hands columns out
// like partitions and splices them in place under its lock, so a column
// held across a mutation is invalid.

#ifndef FLEXREL_ENGINE_DICTIONARY_H_
#define FLEXREL_ENGINE_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"

namespace flexrel {

class CodeColumn {
 public:
  using Code = uint32_t;
  using RowId = uint32_t;

  /// The reserved code of the explicit Value::Null — always interned, even
  /// in a column that has never seen a null.
  static constexpr Code kNullCode = 0;

  /// The "row does not carry this attribute" marker. Never a valid code:
  /// every real code is < code_bound() and code_bound() can never reach
  /// UINT32_MAX (the relation would not fit in memory first).
  static constexpr Code kMissingCode = UINT32_MAX;

  /// One pass over the instance: intern each present value, record each
  /// row's code (kMissingCode when absent), bucket rows per code.
  static CodeColumn Build(const std::vector<Tuple>& rows, AttrId attr);

  AttrId attr() const { return attr_; }
  size_t num_rows() const { return codes_.size(); }
  /// Rows carrying the attribute (== Σ bucket sizes).
  size_t defined() const { return defined_; }
  /// Codes some row currently carries (nonempty buckets). Dead codes —
  /// interned values no row holds any more — are code_bound() minus this.
  size_t live_codes() const { return live_codes_; }
  /// Bumps on every re-intern; 1 for a fresh build. Codes from different
  /// generations are not comparable.
  uint64_t generation() const { return generation_; }
  /// Exclusive upper bound of the code space: every real code is below it,
  /// kMissingCode above it. Sizes the counting-sort scratch.
  Code code_bound() const { return static_cast<Code>(values_.size()); }

  /// Row -> code, kMissingCode for rows lacking the attribute. The dense
  /// column every coded hot path iterates.
  const std::vector<Code>& codes() const { return codes_; }

  /// The interned value behind a code. `code` must be < code_bound().
  const Value& ValueOf(Code code) const { return values_[code]; }

  /// The code of `value`, or kMissingCode when it was never interned — the
  /// selection fast path: one lookup in the (small) dictionary replaces a
  /// hash of every candidate row's value.
  Code CodeOf(const Value& value) const {
    auto it = interned_.find(value);
    return it == interned_.end() ? kMissingCode : it->second;
  }

  /// Ascending rows currently coded `code` — the unstripped cluster of the
  /// code's value. `code` < code_bound(); empty for dead codes.
  const std::vector<RowId>& Bucket(Code code) const { return buckets_[code]; }

  /// The bucket of `value`'s code, or an empty list when it was never
  /// interned — the value -> rows lookup selections use.
  const std::vector<RowId>& RowsOf(const Value& value) const;

  // ------------------------------------------------------------------
  // Incremental maintenance, driven by the PliCache flush.
  // ------------------------------------------------------------------

  /// One row's final state in a batched splice: the value it now carries on
  /// this attribute, or null when it lacks it.
  struct Move {
    RowId row;
    const Value* value;
  };

  /// Grows the column to `num_rows` (appended rows start absent), re-codes
  /// every moved row (fresh values intern append-only), and splices each
  /// affected bucket in place from its lowest touched row — a pure append
  /// is a push_back. Afterwards the column equals a fresh Build over the
  /// mutated rows up to code numbering. One Move per row at most.
  void ApplyBatch(size_t num_rows, const std::vector<Move>& moves);

  /// Re-interns when value churn has left the dictionary 2x (plus slack)
  /// larger than its live codes: live values are recoded densely in old-
  /// code order, the generation bumps. Called by the cache once per flush;
  /// cheap no-op while the space is healthy. Returns true when it fired.
  bool MaybeReintern();

  /// Structural self-check for tests: bucket/column/dictionary coherence,
  /// ascending buckets, exact defined/live counts, the reserved null code.
  bool CheckInvariants(std::string* error = nullptr) const;

 private:
  Code Intern(const Value& value);

  AttrId attr_ = 0;
  std::unordered_map<Value, Code, ValueHash> interned_;
  std::vector<Value> values_;                 // code -> value
  std::vector<std::vector<RowId>> buckets_;   // code -> ascending rows
  std::vector<Code> codes_;                   // row -> code / kMissingCode
  size_t defined_ = 0;
  size_t live_codes_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_DICTIONARY_H_
