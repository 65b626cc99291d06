// Plan evaluation over flexible relations.
//
// Evaluation is strict and materializing: each node produces a derived
// FlexibleRelation whose dependency set is propagated per Theorem 4.3
// (ad_propagation.h). Instances follow set semantics (the paper defines an
// instance as a finite set of tuples), so operators deduplicate.
//
// Two evaluation paths exist, selected by EvalOptions::use_engine:
//
//  - The *naive* path evaluates every selection formula per tuple and every
//    natural join by an O(n·m) nested loop. It is the reference oracle: the
//    direct transcription of the operator definitions, kept bit-for-bit
//    stable so the accelerated path can be cross-validated against it
//    (tests/engine_eval_test.cc).
//  - The *engine* path reads the partition engine (src/engine/). Equality
//    selections over base scans resolve via the scanned relation's attached
//    PliCache code column instead of evaluating the predicate per tuple;
//    natural joins bucket the build side by shared-attribute signature and
//    probe only cluster-compatible pairs; multiway joins order their legs by
//    PLI-derived cluster-count estimates, smallest expected intermediate
//    first. Results — rows and propagated dependencies — are identical to
//    the naive path; only the EvalStats work counters shrink.

#ifndef FLEXREL_ALGEBRA_EVALUATE_H_
#define FLEXREL_ALGEBRA_EVALUATE_H_

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "engine/pli_cache.h"
#include "util/result.h"

namespace flexrel {

/// True when `formula` is a selection a code column can answer outright: a
/// plain equality or IN over a single attribute. Everything else
/// (inequalities, guards, boolean structure) needs per-tuple Kleene
/// evaluation.
bool IsIndexableSelect(const Expr& formula);

/// Row ids (ascending) that the indexable `formula` matches in `column`:
/// literals translate through the column's dictionary (CodeOf) and the
/// matching code buckets merge back into scan order. The single point
/// implementing the Kleene null rule for these lookups (comparing a null,
/// or against one, never yields True, so null literals are skipped),
/// shared by the engine's select path and the optimizer's cardinality
/// estimates so the two cannot drift. Requires IsIndexableSelect(formula).
std::vector<Pli::RowId> CodedMatches(const CodeColumn& column,
                                     const Expr& formula);

/// Work counters, reported for the optimizer experiments (E4/E5): comparing
/// an optimized against an unoptimized plan is a statement about these
/// numbers, not only wall-clock time.
struct EvalStats {
  size_t tuples_scanned = 0;      ///< tuples read from scans
  size_t tuples_emitted = 0;      ///< tuples produced by plan operators
  size_t intermediate_tuples = 0; ///< tuples of multiway-join intermediates
  size_t predicate_evals = 0;     ///< selection formula evaluations
  size_t join_probes = 0;         ///< tuple-pair compatibility checks

  EvalStats& operator+=(const EvalStats& other);
};

/// Evaluation knobs: the engine path is the default, the naive path stays
/// available as the reference oracle (bench/e2e's answer check selects it).
struct EvalOptions {
  /// Evaluate through the partition engine (PLI-backed selections, hash/PLI
  /// joins, estimate-ordered multiway joins). False selects the naive
  /// reference path.
  bool use_engine = true;
};

/// Evaluates `plan` with default options; on success the result's deps()
/// hold the dependencies propagated by Theorem 4.3. `stats` (optional)
/// accumulates work counters.
Result<FlexibleRelation> Evaluate(const PlanPtr& plan,
                                  EvalStats* stats = nullptr);

/// Evaluates `plan` on the path chosen by `options`.
Result<FlexibleRelation> Evaluate(const PlanPtr& plan,
                                  const EvalOptions& options,
                                  EvalStats* stats = nullptr);

// ---------------------------------------------------------------------------
// EXPLAIN: the same evaluation, with per-operator attribution folded into a
// report — chosen join order, index hits, estimated vs. actual rows.
// ---------------------------------------------------------------------------

/// One fold step of an estimate-ordered multiway join: which leg the greedy
/// order picked, the cost estimate that picked it, and the rows the fold
/// actually produced. The first step is the seed leg (its estimate is its
/// own size); the last step's output is the join's final result.
struct ExplainJoinStep {
  size_t leg = 0;         ///< index of the chosen leg among the plan inputs
  std::string leg_name;   ///< the leg relation's name at choice time
  double est_rows = 0;    ///< estimated rows when the order chose this leg
  size_t actual_rows = 0; ///< rows the accumulator held after this step
};

/// One evaluated operator. `actual_rows` is the operator's materialized
/// output; `elapsed_ms` covers the operator including its children (the tree
/// is strict, so a parent's time is a superset of its children's).
struct ExplainNode {
  std::string op;          ///< operator label, e.g. "select[index]", "scan(R)"
  size_t actual_rows = 0;
  double elapsed_ms = 0;
  bool index_hit = false;  ///< answered via a code-column lookup
  std::vector<ExplainJoinStep> join_steps;  ///< multiway joins only
  std::vector<ExplainNode> children;        ///< one per plan input, in order
};

/// The full report: the operator tree plus the run's work counters. The
/// intermediate rows of every multiway join's non-final steps sum to
/// `stats.intermediate_tuples` — the drift-proofing identity
/// engine_eval_test asserts.
struct ExplainReport {
  ExplainNode root;
  EvalStats stats;

  /// Indented human-readable rendering (one line per operator; multiway
  /// joins list their fold order with est/actual per leg).
  std::string ToString() const;
};

/// Evaluates `plan` and returns the attributed operator tree instead of the
/// relation. Runs the real evaluator — the report describes exactly the
/// work Evaluate() with the same options would do.
Result<ExplainReport> Explain(const PlanPtr& plan,
                              const EvalOptions& options = {});

}  // namespace flexrel

#endif  // FLEXREL_ALGEBRA_EVALUATE_H_
