#include "algebra/evaluate.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "algebra/ad_propagation.h"
#include "engine/pli.h"
#include "engine/pli_cache.h"
#include "telemetry/telemetry.h"
#include "util/string_util.h"

namespace flexrel {

EvalStats& EvalStats::operator+=(const EvalStats& other) {
  tuples_scanned += other.tuples_scanned;
  tuples_emitted += other.tuples_emitted;
  intermediate_tuples += other.intermediate_tuples;
  predicate_evals += other.predicate_evals;
  join_probes += other.join_probes;
  return *this;
}

bool IsIndexableSelect(const Expr& formula) {
  return (formula.kind() == ExprKind::kCompare && formula.op() == CmpOp::kEq) ||
         formula.kind() == ExprKind::kIn;
}

std::vector<Pli::RowId> CodedMatches(const CodeColumn& column,
                                     const Expr& formula) {
  // A literal resolves to a dense code (one dictionary probe) and its rows
  // come from the column's bucket array. Distinct codes own pairwise
  // disjoint ascending row lists, so the equality case is a plain copy and
  // IN lists fold in pairwise with exact-size allocations (no
  // concat-then-sort).
  std::vector<const std::vector<Pli::RowId>*> lists;
  auto add_value = [&](const Value& v) {
    if (v.is_null()) return;  // Kleene: null literals never match.
    const std::vector<Pli::RowId>& rows = column.RowsOf(v);
    if (!rows.empty()) lists.push_back(&rows);
  };
  if (formula.kind() == ExprKind::kCompare) {
    add_value(formula.literal());
  } else {
    for (const Value& v : formula.values()) add_value(v);
  }
  if (lists.empty()) return {};
  std::vector<Pli::RowId> matched(lists.front()->begin(),
                                  lists.front()->end());
  if (lists.size() > 1) {
    size_t total = 0;
    for (const auto* list : lists) total += list->size();
    matched.reserve(total);
    std::vector<Pli::RowId> merged;
    merged.reserve(total);
    for (size_t l = 1; l < lists.size(); ++l) {
      merged.clear();
      std::merge(matched.begin(), matched.end(), lists[l]->begin(),
                 lists[l]->end(), std::back_inserter(merged));
      matched.swap(merged);
    }
  }
  return matched;
}

namespace {

void Dedup(std::vector<Tuple>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

// Joins two tuples when they agree on every shared attribute; the merged
// tuple carries the union of the fields.
bool TryJoin(const Tuple& a, const Tuple& b, Tuple* out) {
  Tuple merged = a;
  for (const auto& [attr, value] : b.fields()) {
    const Value* existing = a.Get(attr);
    if (existing != nullptr) {
      if (*existing != value) return false;
    } else {
      merged.Set(attr, value);
    }
  }
  *out = std::move(merged);
  return true;
}

class Evaluator {
 public:
  Evaluator(const EvalOptions& options, EvalStats* stats)
      : options_(options), stats_(stats) {}

  /// `node`, when non-null, receives the EXPLAIN attribution for this
  /// subtree (op label, timing, row counts, join order).
  Result<FlexibleRelation> Eval(const PlanPtr& plan,
                                ExplainNode* node = nullptr);

 private:
  Result<FlexibleRelation> EvalNode(const PlanPtr& plan, ExplainNode* node);

  // Joins a tuple pair stream; `final_output` routes the result-size counter
  // to tuples_emitted (the operator's real output) vs intermediate_tuples
  // (a multiway join's internal accumulations).
  FlexibleRelation JoinPair(const FlexibleRelation& left,
                            const FlexibleRelation& right, bool final_output);
  FlexibleRelation JoinNested(const FlexibleRelation& left,
                              const FlexibleRelation& right,
                              bool final_output);
  FlexibleRelation JoinHashedCoded(const FlexibleRelation& left,
                                   const FlexibleRelation& right,
                                   bool final_output);

  Result<FlexibleRelation> SelectViaIndex(const Plan& plan,
                                          ExplainNode* node);
  Result<FlexibleRelation> EvalMultiwayOrdered(const Plan& plan,
                                               ExplainNode* node);

  // PLI-derived count of distinct `attrs`-projections in `rel` (clusters
  // plus partnerless defined rows). Feeds the join-order estimates only, so
  // the multi-attribute lower bound from intersection products is fine.
  size_t DistinctOn(const FlexibleRelation& rel, const AttrSet& attrs);

  // One child slot per plan input, appended in evaluation order. Each
  // returned pointer is only used for the duration of that child's Eval, so
  // later appends may reallocate freely.
  static ExplainNode* Child(ExplainNode* node) {
    if (node == nullptr) return nullptr;
    return &node->children.emplace_back();
  }

  // Every EvalStats field is bumped through exactly one of these helpers,
  // which mirror each increment into the telemetry registry — the registry
  // aggregates cannot drift from the per-operator sums because they are the
  // same additions (engine_eval_test asserts the equality).
  void CountScanned(size_t n) {
    if (stats_ != nullptr) stats_->tuples_scanned += n;
    FLEXREL_TELEMETRY_COUNT("eval.tuples_scanned", n);
  }
  void CountEmitted(size_t n) {
    if (stats_ != nullptr) stats_->tuples_emitted += n;
    FLEXREL_TELEMETRY_COUNT("eval.tuples_emitted", n);
  }
  void CountIntermediate(size_t n) {
    if (stats_ != nullptr) stats_->intermediate_tuples += n;
    FLEXREL_TELEMETRY_COUNT("eval.intermediate_tuples", n);
  }
  void CountPredicateEvals(size_t n) {
    if (stats_ != nullptr) stats_->predicate_evals += n;
    FLEXREL_TELEMETRY_COUNT("eval.predicate_evals", n);
  }
  // The naive and engine join paths run inside the same binaries, so their
  // probe counts stay separate in the registry: the perf_smoke invariant
  // compares the hashed join's probes against its own naive pair count
  // (hash_pair_candidates), not against a different benchmark's counter.
  void CountNestedProbes(size_t n) {
    if (stats_ != nullptr) stats_->join_probes += n;
    FLEXREL_TELEMETRY_COUNT("eval.join.nested_probes", n);
  }
  void CountHashProbes(size_t n, size_t pair_candidates) {
    if (stats_ != nullptr) stats_->join_probes += n;
    FLEXREL_TELEMETRY_COUNT("eval.join.hash_probes", n);
    FLEXREL_TELEMETRY_COUNT("eval.join.hash_pair_candidates",
                            pair_candidates);
  }
  void CountJoinOutput(size_t rows, bool final_output) {
    if (final_output) {
      CountEmitted(rows);
    } else {
      CountIntermediate(rows);
    }
  }

  EvalOptions options_;
  EvalStats* stats_;
};

FlexibleRelation Evaluator::JoinPair(const FlexibleRelation& left,
                                     const FlexibleRelation& right,
                                     bool final_output) {
  if (!options_.use_engine) return JoinNested(left, right, final_output);
  return JoinHashedCoded(left, right, final_output);
}

FlexibleRelation Evaluator::JoinNested(const FlexibleRelation& left,
                                       const FlexibleRelation& right,
                                       bool final_output) {
  FlexibleRelation out = FlexibleRelation::Derived("join", DependencySet());
  std::vector<Tuple> rows;
  size_t probes = 0;  // flushed once per join, not per pair
  for (const Tuple& a : left.rows()) {
    for (const Tuple& b : right.rows()) {
      ++probes;
      Tuple merged;
      if (TryJoin(a, b, &merged)) {
        rows.push_back(std::move(merged));
      }
    }
  }
  CountNestedProbes(probes);
  Dedup(&rows);
  CountJoinOutput(rows.size(), final_output);
  for (Tuple& t : rows) out.InsertUnchecked(std::move(t));
  return out;
}

namespace {

// Transparent hash/equality over flat code keys: the sub-index stores
// vector<uint32_t> keys but probes with a span view into a reusable
// scratch buffer, so the probe side never allocates per lookup (C++20
// heterogeneous unordered_map lookup).
struct CodeKeyHash {
  using is_transparent = void;
  size_t operator()(std::span<const uint32_t> key) const {
    size_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the code words
    for (uint32_t c : key) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};
struct CodeKeyEq {
  using is_transparent = void;
  bool operator()(std::span<const uint32_t> a,
                  std::span<const uint32_t> b) const {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
};

}  // namespace

// The signature-grouped hash join. Because schemes are heterogeneous, the
// shared attributes vary per tuple *pair*; a single-key hash join would be
// wrong. But grouping the build side by T = attrs(b) ∩ active(probe side)
// fixes the pair-shared set per (probe tuple, group): for every b in group
// T, shared(a, b) = attrs(a) ∩ T. One lazily built sub-index per (T, K)
// then turns compatibility into a hash lookup whose hits are exactly the
// cluster-compatible pairs — join_probes counts those, not all n·m pairs.
//
// Projections are compared as flat uint32_t code rows instead of Value
// tuples. An ephemeral per-join dictionary interns each distinct Value once
// per shared attribute slot — after that single pass, building and probing
// the per-(T, K) sub-indexes hashes small code spans and never touches a
// Value again. Nulls intern as
// ordinary values, matching TryJoin's Value-equality semantics (natural
// join has no Kleene rule: null meets null joins).
FlexibleRelation Evaluator::JoinHashedCoded(const FlexibleRelation& left,
                                            const FlexibleRelation& right,
                                            bool final_output) {
  const bool build_right = right.size() <= left.size();
  const FlexibleRelation& build = build_right ? right : left;
  const FlexibleRelation& probe = build_right ? left : right;
  const AttrSet probe_active = probe.ActiveAttrs();

  // Only attributes on both sides can ever land in a signature T (and thus
  // in a key K ⊆ T), so the slot universe is the active intersection.
  const AttrSet shared_universe =
      build.ActiveAttrs().Intersect(probe_active);
  const std::vector<AttrId>& slot_attrs = shared_universe.ids();
  const size_t slot_count = slot_attrs.size();
  auto slot_of = [&](AttrId attr) {
    return static_cast<size_t>(
        std::lower_bound(slot_attrs.begin(), slot_attrs.end(), attr) -
        slot_attrs.begin());
  };
  constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  // Per-slot interning: codes are dense per attribute, so code equality ⇔
  // Value equality per slot. Only the build side interns; the probe side
  // looks up find-only — a probe value never interned on its slot cannot
  // equal any build value there, and the sentinel it maps to misses every
  // sub-index key, which is both correct and the cheapest outcome. The
  // dictionaries stay sized by the (smaller) build side and the probe pass
  // never allocates into them.
  std::vector<std::unordered_map<Value, uint32_t, ValueHash>> interners(
      slot_count);
  auto intern_row = [&](const Tuple& t, uint32_t* out) {
    for (size_t s = 0; s < slot_count; ++s) {
      const Value* v = t.Get(slot_attrs[s]);
      if (v == nullptr) {
        out[s] = kAbsent;
        continue;
      }
      auto& interner = interners[s];
      out[s] = interner
                   .try_emplace(*v, static_cast<uint32_t>(interner.size()))
                   .first->second;
    }
  };
  auto probe_row = [&](const Tuple& t, std::vector<uint32_t>* out) {
    out->assign(slot_count, kAbsent);
    for (size_t s = 0; s < slot_count; ++s) {
      const Value* v = t.Get(slot_attrs[s]);
      if (v == nullptr) continue;
      auto it = interners[s].find(*v);
      if (it != interners[s].end()) (*out)[s] = it->second;
    }
  };

  using Bucket = std::vector<const Tuple*>;
  // One lazily-built sub-index per key set K: K's slot positions (computed
  // once, shared by index build and every probe so the code order in every
  // key is identical) plus the coded projection on K -> build rows.
  struct SubIndex {
    std::vector<size_t> key_slots;
    std::unordered_map<std::vector<uint32_t>, Bucket, CodeKeyHash, CodeKeyEq>
        index;
  };
  struct Group {
    std::vector<size_t> rows;  // build row indexes in this group
    // K = attrs(a) ∩ T  ->  sub-index over this group's rows.
    std::unordered_map<AttrSet, SubIndex, AttrSetHash> by_key;
  };
  std::unordered_map<AttrSet, Group, AttrSetHash> groups;
  // Flat build-side code matrix, one slot_count-wide row per build tuple,
  // filled in the same pass that forms the signature groups.
  std::vector<uint32_t> build_codes(build.size() * slot_count);
  for (size_t i = 0; i < build.size(); ++i) {
    const Tuple& b = build.row(i);
    intern_row(b, build_codes.data() + i * slot_count);
    groups[b.attrs().Intersect(probe_active)].rows.push_back(i);
  }

  std::vector<Tuple> rows;
  std::vector<uint32_t> probe_codes;
  std::vector<uint32_t> key_scratch;
  size_t probes = 0;
  // K depends only on (attrs(a), T), and probe rows overwhelmingly share
  // one attribute set (homogeneous variants) — so the per-group K
  // intersection, sub-index lookup, and lazy build run once per distinct
  // consecutive attrs(a), and the resolved SubIndex pointers are reused
  // for the whole run. unordered_map mapped values are node-stable, so the
  // cached pointers survive later by_key insertions for other runs.
  AttrSet memo_attrs;
  std::vector<SubIndex*> memo_subs;
  bool memo_valid = false;
  // attrs(a) == memo without materializing an AttrSet per row: the tuple's
  // field vector is sorted by AttrId, so it zips against the memo's ids.
  auto attrs_match_memo = [&](const Tuple& t) {
    const std::vector<AttrId>& ids = memo_attrs.ids();
    const auto& fields = t.fields();
    if (fields.size() != ids.size()) return false;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (fields[i].first != ids[i]) return false;
    }
    return true;
  };
  for (const Tuple& a : probe.rows()) {
    if (!memo_valid || !attrs_match_memo(a)) {
      const AttrSet a_attrs = a.attrs();
      memo_subs.clear();
      for (auto& [signature, group] : groups) {
        AttrSet key_attrs = a_attrs.Intersect(signature);
        auto [index_it, missing] = group.by_key.try_emplace(key_attrs);
        SubIndex& sub = index_it->second;
        if (missing) {
          for (AttrId attr : key_attrs.ids()) {
            sub.key_slots.push_back(slot_of(attr));
          }
          for (size_t bi : group.rows) {
            const uint32_t* codes = build_codes.data() + bi * slot_count;
            key_scratch.clear();
            // K ⊆ T ⊆ attrs(b): every key slot is defined on the build row.
            for (size_t s : sub.key_slots) key_scratch.push_back(codes[s]);
            sub.index[key_scratch].push_back(&build.row(bi));
          }
        }
        memo_subs.push_back(&sub);
      }
      memo_attrs = a_attrs;
      memo_valid = true;
    }
    probe_row(a, &probe_codes);
    for (SubIndex* sub : memo_subs) {
      key_scratch.clear();
      // K ⊆ attrs(a): probe codes at key slots are all present (an
      // un-interned probe value carries the sentinel and misses below).
      for (size_t s : sub->key_slots) key_scratch.push_back(probe_codes[s]);
      auto bucket = sub->index.find(std::span<const uint32_t>(key_scratch));
      if (bucket == sub->index.end()) continue;
      for (const Tuple* b : bucket->second) {
        ++probes;
        Tuple merged;
        // Bucket equality was proven on codes; TryJoin remains the cheap
        // Value-level invariant.
        if (TryJoin(a, *b, &merged)) rows.push_back(std::move(merged));
      }
    }
  }
  CountHashProbes(probes, build.size() * probe.size());
  Dedup(&rows);
  CountJoinOutput(rows.size(), final_output);
  FlexibleRelation out = FlexibleRelation::Derived("join", DependencySet());
  for (Tuple& t : rows) out.InsertUnchecked(std::move(t));
  return out;
}

// Equality/IN selection directly over a base scan: the answer is a code
// column lookup on the scanned relation's attached cache — zero predicate
// evaluations, and only the matching rows are ever read. Freshness is the
// cache's contract (engine/README.md "Concurrency"): this CodeColumnFor
// flushes any deltas buffered since the last query, so the first
// evaluation after a burst pays the column splice.
Result<FlexibleRelation> Evaluator::SelectViaIndex(const Plan& plan,
                                                   ExplainNode* node) {
  const FlexibleRelation* src = plan.inputs()[0]->relation();
  const Expr& formula = *plan.formula();
  // Matches come back in scan order, so the output is row-for-row identical
  // to the naive path's: one dictionary probe per literal against dense
  // code buckets, no Value hashing per row.
  const std::vector<Pli::RowId> matched =
      CodedMatches(*src->pli_cache()->CodeColumnFor(formula.attr()), formula);
  FLEXREL_TELEMETRY_COUNT("eval.index_hits", 1);
  if (node != nullptr) node->index_hit = true;

  FlexibleRelation out = FlexibleRelation::Derived(
      StrCat("sel(", src->name(), ")"), PropagateSelect(src->deps()));
  for (Pli::RowId row : matched) out.InsertUnchecked(src->row(row));
  CountScanned(matched.size());
  CountEmitted(matched.size());
  return out;
}

size_t Evaluator::DistinctOn(const FlexibleRelation& rel,
                             const AttrSet& attrs) {
  if (attrs.empty() || rel.empty()) return 1;
  // The legs are freshly materialized join inputs, so their caches are
  // built here and never see a mutation.
  if (attrs.size() == 1) {
    // Nonempty buckets are exactly the distinct values (the null cluster
    // counts, absence does not).
    return rel.pli_cache()->CodeColumnFor(attrs.ids().front())->live_codes();
  }
  return rel.pli_cache()->Get(attrs)->NumDistinct();
}

// Multiway join with engine ordering: evaluate every leg, then fold
// greedily, always joining the accumulator with the leg of smallest
// estimated intermediate — |acc|·|leg| / max(distinct projections on the
// shared attributes), the classic PLI-backed textbook estimate. Natural
// join over heterogeneous tuples is commutative and associative (a
// combination of one tuple per leg survives iff all its pairwise overlaps
// agree, independent of fold order), so any order is result-preserving.
Result<FlexibleRelation> Evaluator::EvalMultiwayOrdered(const Plan& plan,
                                                        ExplainNode* node) {
  std::vector<FlexibleRelation> legs;
  legs.reserve(plan.inputs().size());
  for (const PlanPtr& in : plan.inputs()) {
    FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation leg, Eval(in, Child(node)));
    legs.push_back(std::move(leg));
  }

  std::vector<bool> used(legs.size(), false);
  size_t first = 0;
  for (size_t i = 1; i < legs.size(); ++i) {
    if (legs[i].size() < legs[first].size()) first = i;
  }
  used[first] = true;
  if (node != nullptr) {
    // The seed leg: its "estimate" is the size that made it the smallest.
    node->join_steps.push_back({first, legs[first].name(),
                                static_cast<double>(legs[first].size()),
                                legs[first].size()});
  }
  FlexibleRelation acc = std::move(legs[first]);

  for (size_t step = 1; step < legs.size(); ++step) {
    const AttrSet acc_active = acc.ActiveAttrs();
    size_t best = legs.size();
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < legs.size(); ++j) {
      if (used[j]) continue;
      AttrSet shared = acc_active.Intersect(legs[j].ActiveAttrs());
      double cost = static_cast<double>(acc.size()) *
                    static_cast<double>(legs[j].size());
      if (!shared.empty()) {
        double distinct = static_cast<double>(std::max(
            DistinctOn(acc, shared), DistinctOn(legs[j], shared)));
        cost /= std::max(distinct, 1.0);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = j;
      }
    }
    used[best] = true;
    std::string best_name = node != nullptr ? legs[best].name() : "";
    acc = JoinPair(acc, legs[best],
                   /*final_output=*/step + 1 == legs.size());
    if (node != nullptr) {
      // est is the cost that picked this leg; actual is what the fold
      // really produced — the estimated-vs-actual pair per leg.
      node->join_steps.push_back(
          {best, std::move(best_name), best_cost, acc.size()});
    }
  }
  return acc;
}

Result<FlexibleRelation> Evaluator::Eval(const PlanPtr& plan,
                                         ExplainNode* node) {
  // The timed wrapper around the operator dispatch: EXPLAIN nodes always
  // get timing and actual rows; with telemetry on, every operator's
  // duration also lands in the shared histogram.
  if (node == nullptr && !telemetry::Enabled()) {
    return EvalNode(plan, nullptr);
  }
  const uint64_t t0 = telemetry::NowNs();
  Result<FlexibleRelation> result = EvalNode(plan, node);
  const uint64_t dur_ns = telemetry::NowNs() - t0;
  FLEXREL_TELEMETRY_HIST("eval.operator_ns", dur_ns);
  if (node != nullptr) {
    node->elapsed_ms = static_cast<double>(dur_ns) / 1e6;
    if (result.ok()) node->actual_rows = result.value().size();
  }
  return result;
}

Result<FlexibleRelation> Evaluator::EvalNode(const PlanPtr& plan,
                                             ExplainNode* node) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const FlexibleRelation* src = plan->relation();
      if (src == nullptr) {
        return Status::FailedPrecondition("scan over null relation");
      }
      if (node != nullptr) node->op = StrCat("scan(", src->name(), ")");
      FlexibleRelation out = FlexibleRelation::Derived(src->name(), src->deps());
      for (const Tuple& t : src->rows()) out.InsertUnchecked(t);
      CountScanned(src->size());
      CountEmitted(src->size());
      return out;
    }
    case PlanKind::kSelect: {
      if (options_.use_engine &&
          plan->inputs()[0]->kind() == PlanKind::kScan &&
          plan->inputs()[0]->relation() != nullptr &&
          IsIndexableSelect(*plan->formula())) {
        if (node != nullptr) node->op = "select[index]";
        return SelectViaIndex(*plan, node);
      }
      if (node != nullptr) node->op = "select";
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation in,
                               Eval(plan->inputs()[0], Child(node)));
      FlexibleRelation out = FlexibleRelation::Derived(
          StrCat("sel(", in.name(), ")"), PropagateSelect(in.deps()));
      size_t emitted = 0;
      for (const Tuple& t : in.rows()) {
        if (plan->formula()->Accepts(t)) {
          out.InsertUnchecked(t);
          ++emitted;
        }
      }
      CountPredicateEvals(in.size());
      CountEmitted(emitted);
      return out;
    }
    case PlanKind::kProject: {
      if (node != nullptr) node->op = "project";
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation in,
                               Eval(plan->inputs()[0], Child(node)));
      FlexibleRelation out = FlexibleRelation::Derived(
          StrCat("proj(", in.name(), ")"),
          PropagateProject(in.deps(), plan->attrs()));
      std::vector<Tuple> rows;
      rows.reserve(in.size());
      for (const Tuple& t : in.rows()) rows.push_back(t.Project(plan->attrs()));
      Dedup(&rows);
      CountEmitted(rows.size());
      for (Tuple& t : rows) out.InsertUnchecked(std::move(t));
      return out;
    }
    case PlanKind::kProduct: {
      if (node != nullptr) node->op = "product";
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation l,
                               Eval(plan->inputs()[0], Child(node)));
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation r,
                               Eval(plan->inputs()[1], Child(node)));
      if (l.ActiveAttrs().Intersects(r.ActiveAttrs())) {
        return Status::InvalidArgument(
            "cartesian product requires attribute-disjoint inputs");
      }
      FlexibleRelation out = FlexibleRelation::Derived(
          StrCat("prod(", l.name(), ",", r.name(), ")"),
          PropagateProduct(l.deps(), r.deps()));
      size_t emitted = 0;
      for (const Tuple& a : l.rows()) {
        for (const Tuple& b : r.rows()) {
          Tuple merged = a;
          for (const auto& [attr, value] : b.fields()) {
            merged.Set(attr, value);
          }
          out.InsertUnchecked(std::move(merged));
          ++emitted;
        }
      }
      CountEmitted(emitted);
      return out;
    }
    case PlanKind::kUnion:
    case PlanKind::kOuterUnion: {
      if (node != nullptr) {
        node->op =
            plan->kind() == PlanKind::kUnion ? "union" : "outer_union";
      }
      // Rule (6) pattern: every input is an extension by one common tag
      // attribute with pairwise distinct values. Then dependencies survive
      // with the tag folded into their LHS; otherwise rule (4) applies and
      // nothing survives ("one cannot decide from which input relation the
      // tuples do come from").
      bool tagged = plan->inputs().size() >= 1;
      AttrId tag = 0;
      std::vector<Value> tag_values;
      for (size_t i = 0; i < plan->inputs().size(); ++i) {
        const PlanPtr& in_plan = plan->inputs()[i];
        if (in_plan->kind() != PlanKind::kExtend) {
          tagged = false;
          break;
        }
        if (i == 0) {
          tag = in_plan->extend_attr();
        } else if (in_plan->extend_attr() != tag) {
          tagged = false;
          break;
        }
        tag_values.push_back(in_plan->extend_value());
      }
      if (tagged) {
        std::sort(tag_values.begin(), tag_values.end());
        tagged = std::adjacent_find(tag_values.begin(), tag_values.end()) ==
                 tag_values.end();
      }
      std::vector<DependencySet> input_deps;
      std::vector<Tuple> rows;
      for (const PlanPtr& in_plan : plan->inputs()) {
        FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation in,
                                 Eval(in_plan, Child(node)));
        input_deps.push_back(in.deps());
        for (const Tuple& t : in.rows()) rows.push_back(t);
      }
      DependencySet deps =
          tagged ? PropagateTaggedUnion(input_deps, tag) : PropagateUnion();
      FlexibleRelation out = FlexibleRelation::Derived("union", deps);
      Dedup(&rows);
      CountEmitted(rows.size());
      for (Tuple& t : rows) out.InsertUnchecked(std::move(t));
      return out;
    }
    case PlanKind::kDifference: {
      if (node != nullptr) node->op = "difference";
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation l,
                               Eval(plan->inputs()[0], Child(node)));
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation r,
                               Eval(plan->inputs()[1], Child(node)));
      FlexibleRelation out = FlexibleRelation::Derived(
          StrCat("diff(", l.name(), ")"), PropagateDifference(l.deps()));
      std::unordered_set<Tuple, TupleHash> right_rows(r.rows().begin(),
                                                      r.rows().end());
      size_t emitted = 0;
      for (const Tuple& t : l.rows()) {
        if (right_rows.find(t) == right_rows.end()) {
          out.InsertUnchecked(t);
          ++emitted;
        }
      }
      CountEmitted(emitted);
      return out;
    }
    case PlanKind::kExtend: {
      if (node != nullptr) node->op = "extend";
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation in,
                               Eval(plan->inputs()[0], Child(node)));
      AttrId tag = plan->extend_attr();
      if (in.ActiveAttrs().Contains(tag)) {
        return Status::InvalidArgument(
            "extension attribute already present in the input");
      }
      FlexibleRelation out = FlexibleRelation::Derived(
          StrCat("ext(", in.name(), ")"), PropagateExtend(in.deps(), tag));
      for (const Tuple& t : in.rows()) {
        Tuple extended = t;
        extended.Set(tag, plan->extend_value());
        out.InsertUnchecked(std::move(extended));
      }
      CountEmitted(in.size());
      return out;
    }
    case PlanKind::kNaturalJoin: {
      if (node != nullptr) {
        node->op = options_.use_engine ? "natural_join[hash]"
                                       : "natural_join[nested]";
      }
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation l,
                               Eval(plan->inputs()[0], Child(node)));
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation r,
                               Eval(plan->inputs()[1], Child(node)));
      return JoinPair(l, r, /*final_output=*/true);
    }
    case PlanKind::kEmpty:
      if (node != nullptr) node->op = "empty";
      return FlexibleRelation::Derived("empty", DependencySet());
    case PlanKind::kMultiwayJoin: {
      if (plan->inputs().empty()) {
        return Status::InvalidArgument("multiway join over zero inputs");
      }
      if (options_.use_engine) {
        if (node != nullptr) node->op = "multiway_join[ordered]";
        return EvalMultiwayOrdered(*plan, node);
      }
      if (node != nullptr) node->op = "multiway_join[sequential]";
      FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation acc,
                               Eval(plan->inputs()[0], Child(node)));
      for (size_t i = 1; i < plan->inputs().size(); ++i) {
        FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation next,
                                 Eval(plan->inputs()[i], Child(node)));
        acc = JoinPair(acc, next,
                       /*final_output=*/i + 1 == plan->inputs().size());
      }
      return acc;
    }
  }
  return Status::Internal("unknown plan kind");
}

// Indented one-line-per-operator rendering; multiway joins list their fold
// order (leg name, estimate, actual) on a dedicated line below the node.
void RenderExplain(const ExplainNode& node, size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  out->append(node.op.empty() ? "?" : node.op);
  out->append(" rows=");
  out->append(std::to_string(node.actual_rows));
  if (node.index_hit) out->append(" index=hit");
  char buf[48];
  std::snprintf(buf, sizeof(buf), " time=%.3fms", node.elapsed_ms);
  out->append(buf);
  out->push_back('\n');
  if (!node.join_steps.empty()) {
    out->append(2 * depth + 2, ' ');
    out->append("order:");
    for (size_t i = 0; i < node.join_steps.size(); ++i) {
      const ExplainJoinStep& s = node.join_steps[i];
      if (i > 0) out->append(" ->");
      std::snprintf(buf, sizeof(buf), " est=%.1f actual=%zu", s.est_rows,
                    s.actual_rows);
      out->append(" leg");
      out->append(std::to_string(s.leg));
      out->push_back('(');
      out->append(s.leg_name);
      out->push_back(')');
      out->append(buf);
    }
    out->push_back('\n');
  }
  for (const ExplainNode& child : node.children) {
    RenderExplain(child, depth + 1, out);
  }
}

}  // namespace

std::string ExplainReport::ToString() const {
  std::string out;
  RenderExplain(root, 0, &out);
  out.append(StrCat("stats: scanned=", stats.tuples_scanned,
                    " emitted=", stats.tuples_emitted,
                    " intermediate=", stats.intermediate_tuples,
                    " predicate_evals=", stats.predicate_evals,
                    " join_probes=", stats.join_probes, "\n"));
  return out;
}

Result<FlexibleRelation> Evaluate(const PlanPtr& plan, EvalStats* stats) {
  return Evaluate(plan, EvalOptions(), stats);
}

Result<FlexibleRelation> Evaluate(const PlanPtr& plan,
                                  const EvalOptions& options,
                                  EvalStats* stats) {
  Evaluator evaluator(options, stats);
  return evaluator.Eval(plan);
}

Result<ExplainReport> Explain(const PlanPtr& plan,
                              const EvalOptions& options) {
  ExplainReport report;
  Evaluator evaluator(options, &report.stats);
  FLEXREL_ASSIGN_OR_RETURN(FlexibleRelation result,
                           evaluator.Eval(plan, &report.root));
  (void)result;  // the report carries the attribution; rows are discarded
  return report;
}

}  // namespace flexrel
