// Edge cases and cross-validation soaks for the per-attribute code column
// (engine/dictionary.h), the cache's only maintained per-attribute
// structure.
//
// The contract under test: a CodeColumn — built fresh or maintained through
// any interleaving of cache-flushed inserts and updates (footnote-3 type
// changes included) — always satisfies its structural invariants, codes
// Values injectively within a generation, and agrees with the from-scratch
// oracles: counting-sort partitions equal hash-built ones (Pli::Build), a
// maintained column decodes like a fresh CodeColumn::Build, coded
// selections return the rows per-tuple evaluation accepts, and everything
// downstream (the evaluator, level-wise and hybrid discovery) equals the
// naive reference paths (use_engine = false).
//
// Randomized suites take their seed from FLEXREL_TEST_SEED when set (the
// CI seed-diversity step passes the run id) and print it, so failures are
// replayable from the log.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algebra/evaluate.h"
#include "core/discovery.h"
#include "engine/dictionary.h"
#include "engine/pli_cache.h"
#include "engine_test_util.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace flexrel {
namespace {

using testutil::ApplyRandomEmployeeMutation;
using testutil::ColumnsDecodeEqual;
using testutil::RandomSoakTuple;
using testutil::SoakEmployeeConfig;

uint64_t SoakSeed(uint64_t salt) {
  return TestSeed(0xD1C7C0DEC0FFEEull, salt, "dictionary");
}

std::string InvariantError(const CodeColumn& column) {
  std::string error;
  return column.CheckInvariants(&error) ? std::string() : error;
}

// Every row of `rows` agrees with what the column says about it: the coded
// value round-trips, absence maps to kMissingCode, and the row sits in
// exactly its code's bucket. Generation-independent, so it holds across
// re-interns and cache rebuilds.
void VerifyColumnAgainstRows(const CodeColumn& column,
                             const std::vector<Tuple>& rows,
                             const std::string& context) {
  ASSERT_EQ(column.num_rows(), rows.size()) << context;
  EXPECT_EQ(InvariantError(column), "") << context;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* v = rows[i].Get(column.attr());
    CodeColumn::Code code = column.codes()[i];
    if (v == nullptr) {
      EXPECT_EQ(code, CodeColumn::kMissingCode) << context << " row " << i;
      continue;
    }
    ASSERT_NE(code, CodeColumn::kMissingCode) << context << " row " << i;
    EXPECT_EQ(column.ValueOf(code), *v) << context << " row " << i;
    EXPECT_EQ(column.CodeOf(*v), code) << context << " row " << i;
    const std::vector<CodeColumn::RowId>& bucket = column.Bucket(code);
    EXPECT_TRUE(std::binary_search(bucket.begin(), bucket.end(),
                                   static_cast<CodeColumn::RowId>(i)))
        << context << " row " << i;
  }
}

// ---------------------------------------------------------------------------
// Null and missing codes: the two reserved points of the code space.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, NullCodeIsReservedAndNullsCluster) {
  const AttrId a = 2;
  std::vector<Tuple> rows(4);
  rows[0].Set(a, Value::Null());
  // rows[1] does not carry the attribute at all: absent, not null.
  rows[2].Set(a, Value::Int(7));
  rows[3].Set(a, Value::Null());

  CodeColumn column = CodeColumn::Build(rows, a);
  EXPECT_EQ(column.CodeOf(Value::Null()), CodeColumn::kNullCode);
  EXPECT_EQ(column.codes()[0], CodeColumn::kNullCode);
  EXPECT_EQ(column.codes()[1], CodeColumn::kMissingCode);
  EXPECT_EQ(column.codes()[3], CodeColumn::kNullCode);
  // Null equals null: both null rows share the reserved code's bucket —
  // absence does not (row 1 is in no bucket).
  EXPECT_EQ(column.Bucket(CodeColumn::kNullCode),
            (std::vector<CodeColumn::RowId>{0, 3}));
  EXPECT_EQ(column.defined(), 3u);
  EXPECT_EQ(column.live_codes(), 2u);  // null + the int
  VerifyColumnAgainstRows(column, rows, "null/missing build");
}

TEST(CodeColumnTest, NullIsInternedEvenWhenNoRowIsNull) {
  const AttrId a = 0;
  std::vector<Tuple> rows(1);
  rows[0].Set(a, Value::Int(1));
  CodeColumn column = CodeColumn::Build(rows, a);
  // The reservation is unconditional, so kNullCode never aliases a value.
  EXPECT_EQ(column.CodeOf(Value::Null()), CodeColumn::kNullCode);
  EXPECT_TRUE(column.Bucket(CodeColumn::kNullCode).empty());
  EXPECT_NE(column.CodeOf(Value::Int(1)), CodeColumn::kNullCode);
}

// ---------------------------------------------------------------------------
// Duplicate interning: one code per distinct value, append-only.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, DuplicateValuesShareOneCodeAcrossBuildAndMutation) {
  const AttrId a = 1;
  std::vector<Tuple> rows(3);
  rows[0].Set(a, Value::Str("x"));
  rows[1].Set(a, Value::Str("x"));
  rows[2].Set(a, Value::Int(5));
  CodeColumn column = CodeColumn::Build(rows, a);
  const CodeColumn::Code x = column.CodeOf(Value::Str("x"));
  EXPECT_EQ(column.codes()[0], x);
  EXPECT_EQ(column.codes()[1], x);
  const CodeColumn::Code bound = column.code_bound();

  // Inserting and updating to already-interned values must reuse the codes
  // and leave the code space untouched.
  Tuple t;
  t.Set(a, Value::Str("x"));
  rows.push_back(t);
  column.ApplyUpdate(3, rows[3].Get(a));  // an append
  EXPECT_EQ(column.codes()[3], x);
  EXPECT_EQ(column.code_bound(), bound);

  rows[2].Set(a, Value::Str("x"));
  column.ApplyUpdate(2, rows[2].Get(a));
  EXPECT_EQ(column.codes()[2], x);
  EXPECT_EQ(column.code_bound(), bound);
  EXPECT_EQ(column.Bucket(x), (std::vector<CodeColumn::RowId>{0, 1, 2, 3}));
  VerifyColumnAgainstRows(column, rows, "duplicate interning");
}

TEST(CodeColumnTest, UpdateToTheSameValueIsANoOp) {
  const AttrId a = 4;
  std::vector<Tuple> rows(2);
  rows[0].Set(a, Value::Int(9));
  rows[1].Set(a, Value::Int(9));
  CodeColumn column = CodeColumn::Build(rows, a);
  const uint64_t gen = column.generation();
  column.ApplyUpdate(0, rows[0].Get(a));
  EXPECT_EQ(column.generation(), gen);
  EXPECT_EQ(column.Bucket(column.CodeOf(Value::Int(9))),
            (std::vector<CodeColumn::RowId>{0, 1}));
  VerifyColumnAgainstRows(column, rows, "same-value update");
}

// ---------------------------------------------------------------------------
// Footnote-3 type changes and the re-intern trigger.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, TypeChangingUpdatesReinternAfterChurn) {
  const AttrId a = 0;
  std::vector<Tuple> rows(4);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].Set(a, Value::Int(static_cast<int64_t>(i)));
  }
  CodeColumn column = CodeColumn::Build(rows, a);
  const uint64_t gen = column.generation();

  // Churn row 0 through a long run of fresh values — the footnote-3 shape
  // repeated: every update retires the previous value's code. Append-only
  // interning grows the dictionary until it outweighs the live codes 2:1
  // past the slack floor, at which point MaybeReintern must fire, recode
  // densely and bump the generation.
  bool reinterned = false;
  for (int64_t v = 100; v < 400 && !reinterned; ++v) {
    Value next = v % 2 == 0 ? Value::Int(v) : Value::Str(StrCat("t", v));
    rows[0].Set(a, next);
    column.ApplyUpdate(0, rows[0].Get(a));
    reinterned = column.MaybeReintern();
  }
  ASSERT_TRUE(reinterned) << "churn never triggered a re-intern";
  EXPECT_GT(column.generation(), gen);
  // The compacted space carries exactly the live values plus the reserved
  // null code.
  EXPECT_LE(column.code_bound(), column.live_codes() + 1);
  VerifyColumnAgainstRows(column, rows, "post-reintern");

  // A removal (footnote-3 delta dropping the attribute) maps the row to
  // kMissingCode and keeps the space coherent.
  rows[1] = Tuple();
  column.ApplyUpdate(1, nullptr);
  EXPECT_EQ(column.codes()[1], CodeColumn::kMissingCode);
  VerifyColumnAgainstRows(column, rows, "post-removal");
}

TEST(CodeColumnTest, HealthyDictionariesNeverReintern) {
  const AttrId a = 0;
  std::vector<Tuple> rows(8);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].Set(a, Value::Int(static_cast<int64_t>(i)));
  }
  CodeColumn column = CodeColumn::Build(rows, a);
  // All codes live: no churn, no trigger, stable generation — consumers
  // holding code-based structures rely on this.
  EXPECT_FALSE(column.MaybeReintern());
  EXPECT_EQ(column.generation(), 1u);
}

// ---------------------------------------------------------------------------
// Counting-sort partition construction over the code column.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, BuildFromCodesMatchesValueBuild) {
  Rng rng(SoakSeed(1));
  std::vector<AttrId> attrs = {0, 1, 2, 3};
  std::vector<Tuple> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(RandomSoakTuple(attrs, &rng));
  for (AttrId a : attrs) {
    CodeColumn column = CodeColumn::Build(rows, a);
    VerifyColumnAgainstRows(column, rows, StrCat("attr ", a));
    // Canonical-form Pli equality is exact, so the counting sort must
    // reproduce the hash build bit for bit.
    EXPECT_EQ(Pli::BuildFromCodes(column.codes(), column.code_bound()),
              Pli::Build(rows, a));
  }
}

// ---------------------------------------------------------------------------
// The cache-maintained column across batch bursts of every flush arm.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, CodeSpaceGrowsCoherentlyAcrossBatchBursts) {
  Rng rng(SoakSeed(2));
  std::vector<AttrId> attrs = {0, 1, 2};
  FlexibleRelation rel = FlexibleRelation::Derived("burst", DependencySet());
  for (int i = 0; i < 32; ++i) rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  std::shared_ptr<PliCache> cache = rel.pli_cache();

  for (AttrId a : attrs) ASSERT_NE(cache->CodeColumnFor(a), nullptr);
  uint64_t last_bound = 0;
  // Burst sizes straddling the flush arms: per-row (< batch_threshold=16),
  // batched, and — relative to the growing instance — large enough early
  // on to have crossed rows/2 bursts in cache configurations with a lower
  // drop threshold. Each burst widens the value domain so the code space
  // genuinely grows burst over burst.
  const size_t bursts[] = {3, 40, 7, 120, 25};
  int64_t domain = 0;
  for (size_t burst : bursts) {
    for (size_t i = 0; i < burst; ++i) {
      Tuple t;
      for (AttrId a : attrs) {
        if (rng.Bernoulli(0.8)) {
          t.Set(a, Value::Int(domain + rng.UniformInt(0, 50)));
        }
      }
      rel.InsertUnchecked(std::move(t));
    }
    domain += 40;  // overlap with the previous burst, then fresh values
    std::shared_ptr<const CodeColumn> column = cache->CodeColumnFor(attrs[0]);
    ASSERT_NE(column, nullptr);
    VerifyColumnAgainstRows(*column, rel.rows(),
                            StrCat("after burst of ", burst));
    // Within a generation codes are append-only, so the bound is monotone
    // unless a re-intern or cache drop compacted the space — both of which
    // announce themselves through the generation tag.
    if (column->code_bound() < last_bound) {
      EXPECT_NE(column->generation(), 1u);
    }
    last_bound = column->code_bound();
    // The partitions built from the column agree with hash builds.
    EXPECT_EQ(*cache->Get(AttrSet::Of(attrs[0])),
              Pli::Build(rel.rows(), attrs[0]));
  }
}

// ---------------------------------------------------------------------------
// Coded selection: CodedMatches vs per-tuple evaluation, literal by literal.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, CodedMatchesEqualsPerTupleSelection) {
  Rng rng(SoakSeed(3));
  std::vector<AttrId> attrs = {0, 1};
  FlexibleRelation rel = FlexibleRelation::Derived("sel", DependencySet());
  for (int i = 0; i < 200; ++i) rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  const AttrId a = attrs[0];
  std::shared_ptr<const CodeColumn> column = cache->CodeColumnFor(a);
  ASSERT_NE(column, nullptr);
  const CodeColumn fresh = CodeColumn::Build(rel.rows(), a);

  std::vector<ExprPtr> formulas;
  formulas.push_back(Expr::Eq(a, Value::Int(2)));
  formulas.push_back(Expr::Eq(a, Value::Int(424242)));   // never interned
  formulas.push_back(Expr::Eq(a, Value::Null()));        // Kleene: no rows
  formulas.push_back(Expr::In(a, {Value::Int(0), Value::Str("s1")}));
  formulas.push_back(Expr::In(a, {Value::Null(), Value::Int(3)}));
  for (size_t i = 0; i < formulas.size(); ++i) {
    // The naive reference: every row the formula accepts, in scan order.
    std::vector<Pli::RowId> accepted;
    for (size_t r = 0; r < rel.size(); ++r) {
      if (formulas[i]->Accepts(rel.row(r))) {
        accepted.push_back(static_cast<Pli::RowId>(r));
      }
    }
    EXPECT_EQ(CodedMatches(*column, *formulas[i]), accepted)
        << "formula " << i;
    EXPECT_EQ(CodedMatches(fresh, *formulas[i]), accepted) << "formula " << i;
  }
  EXPECT_TRUE(CodedMatches(*column, *formulas[2]).empty());
}

// ---------------------------------------------------------------------------
// The 30-seed column-vs-rebuild oracle soak (seeded_suites.txt entry).
// ---------------------------------------------------------------------------

// One seed's worth: an employee workload driven by a random mutation
// stream must end observationally equal to the from-scratch oracles at
// every layer: cached partitions (Pli::Build) and columns
// (CodeColumn::Build), evaluator output (use_engine = false), and
// level-wise and hybrid discovery results (the hash-grouping reference).
void RunColumnVsRebuildOracleSoak(uint64_t seed) {
  const std::string context = StrCat("seed ", seed);
  auto workload = MakeEmployeeWorkload(SoakEmployeeConfig(seed, 48));
  ASSERT_TRUE(workload.ok()) << context;
  EmployeeWorkload& w = *workload.value();

  const std::vector<AttrId>& touch_attrs = w.common_attrs.ids();
  auto touch = [&] {
    std::shared_ptr<PliCache> cache = w.relation.pli_cache();
    for (AttrId a : touch_attrs) {
      (void)cache->Get(AttrSet::Of(a));
      (void)cache->CodeColumnFor(a);
    }
  };
  Rng rng(seed * 31 + 7);
  for (int op = 0; op < 60; ++op) {
    auto out = ApplyRandomEmployeeMutation(&w, &rng);
    ASSERT_TRUE(out.status.ok()) << context << " op " << op;
    if (op % 9 == 0) touch();
  }
  const std::vector<Tuple>& rows = w.relation.rows();

  // Layer 1: cached structures. Counting-sort partitions equal hash-built
  // ones, and the maintained column decodes like a fresh build and still
  // describes every row.
  std::shared_ptr<PliCache> cache = w.relation.pli_cache();
  for (AttrId a : touch_attrs) {
    EXPECT_EQ(*cache->Get(AttrSet::Of(a)), Pli::Build(rows, a))
        << context << " attr " << a;
    std::shared_ptr<const CodeColumn> column = cache->CodeColumnFor(a);
    VerifyColumnAgainstRows(*column, rows, StrCat(context, " attr ", a));
    EXPECT_TRUE(ColumnsDecodeEqual(*column, CodeColumn::Build(rows, a)))
        << context << " attr " << a;
  }

  // Layer 2: the evaluator. Same rows out of an indexable selection and a
  // self-join, engine vs naive.
  EvalOptions naive_eval;
  naive_eval.use_engine = false;
  auto sorted = [](const FlexibleRelation& rel) {
    std::vector<Tuple> out = rel.rows();
    std::sort(out.begin(), out.end());
    return out;
  };
  PlanPtr select =
      Plan::Select(Plan::Scan(&w.relation),
                   Expr::Eq(w.jobtype_attr, w.jobtype_values.front()));
  PlanPtr join =
      Plan::NaturalJoin(Plan::Scan(&w.relation), Plan::Scan(&w.relation));
  for (const PlanPtr& plan : {select, join}) {
    auto engine = Evaluate(plan, EvalOptions());
    auto naive = Evaluate(plan, naive_eval);
    ASSERT_TRUE(engine.ok() && naive.ok()) << context;
    EXPECT_EQ(sorted(engine.value()), sorted(naive.value())) << context;
  }

  // Layer 3: discovery — level-wise and hybrid over code-built partitions
  // and code-labelled probes, both equal to the hash-grouping reference.
  AttrSet universe = w.relation.ActiveAttrs();
  DiscoveryOptions brute;
  brute.use_engine = false;
  DependencySet reference = DiscoverDependencies(rows, universe, brute);
  for (DiscoveryStrategy strategy :
       {DiscoveryStrategy::kLevelWise, DiscoveryStrategy::kHybrid}) {
    DiscoveryOptions opts;
    opts.strategy = strategy;
    DependencySet found = DiscoverDependencies(rows, universe, opts);
    EXPECT_EQ(found.fds(), reference.fds())
        << context << " strategy " << static_cast<int>(strategy);
    EXPECT_EQ(found.ads(), reference.ads())
        << context << " strategy " << static_cast<int>(strategy);
  }
}

TEST(EngineDictionarySoak, ColumnsMatchRebuildOracleAcrossThirtySeeds) {
  const uint64_t base = SoakSeed(4);
  for (uint64_t s = 0; s < 30; ++s) {
    ASSERT_NO_FATAL_FAILURE(RunColumnVsRebuildOracleSoak(base + s))
        << "seed " << base + s;
  }
}

}  // namespace
}  // namespace flexrel
