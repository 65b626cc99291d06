#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "algebra/evaluate.h"
#include "core/closure.h"
#include "decomposition/decomposition.h"
#include "inputs.h"
#include "optimizer/plan_rewrite.h"
#include "query/query_parser.h"
#include "storage/serialization.h"
#include "telemetry/telemetry.h"
#include "workload/generator.h"  // InstallDiscoveredDeps, the discovery entry point

namespace e2e {
namespace {

using flexrel::AttrCatalog;
using flexrel::AttrSet;
using flexrel::DependencySet;
using flexrel::EvalOptions;
using flexrel::EvalStats;
using flexrel::ExplicitAD;
using flexrel::Expr;
using flexrel::FlexibleRelation;
using flexrel::Plan;
using flexrel::PlanPtr;
using flexrel::RewriteReport;
using flexrel::Status;

// The employee relation of index-read, analytic and mutate-read: 100k rows,
// 8 variants x 3 attributes. Every value attribute is uniform over 2^16
// values (thin clusters); jobtype has 8 fat clusters of ~12.5k rows.
constexpr size_t kEmployeeRows = 100000;
constexpr size_t kVariants = 8;
constexpr size_t kAttrsPerVariant = 3;
constexpr size_t kCommons = 2;

// Seed streams: the data, the untimed warm-up ops, the timed ops and the
// post-loop checks draw independently.
enum Stream : uint64_t { kData = 1, kWarmup = 2, kOps = 3, kChecks = 4 };

void Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "set-up failed (%s): %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

uint64_t HistSum(const char* name) {
  return flexrel::telemetry::Registry::Global().GetHistogram(name)->Snap().sum;
}

EvalOptions NaiveOracle() {
  EvalOptions options;
  options.use_engine = false;
  return options;
}

struct QueryResult {
  PlanPtr plan;  ///< as built, before OptimizePlan: what the oracles evaluate
  std::optional<FlexibleRelation> answer;  ///< empty when a layer failed
  double ms = 0;
  uint64_t digest = 0;  ///< HashRowSet of the answer, filled by Digest()

  uint64_t Digest() {
    digest = answer ? HashRowSet(answer->rows()) : 0;
    return digest;
  }
};

// A checked answer: the plan as built and the digest of what the engine
// returned for it.
struct Sample {
  PlanPtr plan;
  uint64_t digest = 0;
};

// Every sample again, on the naive oracle over the plan as it was before
// OptimizePlan.
CheckResult CheckOnNaiveOracle(const std::vector<Sample>& samples,
                               const char* workload) {
  CheckResult c;
  for (const Sample& s : samples) {
    auto naive = flexrel::Evaluate(s.plan, NaiveOracle());
    ++c.run;
    if (!naive.ok() || HashRowSet(naive.value().rows()) != s.digest) {
      ++c.failed;
      std::fprintf(stderr, "%s: answer differs from the naive oracle\n",
                   workload);
    }
  }
  return c;
}

// OptimizePlan then Evaluate, one span each.
void OptimizeAndEvaluate(const std::vector<ExplicitAD>& eads, Tracer* tracer,
                         LayerCounts* counts, QueryResult* out) {
  RewriteReport report;
  Span optimizer(tracer, "optimizer");
  PlanPtr optimized = flexrel::OptimizePlan(out->plan, eads, &report);
  optimizer.Stop();
  EvalStats stats;
  Span algebra(tracer, "algebra");
  auto answer = flexrel::Evaluate(optimized, EvalOptions(), &stats);
  algebra.Stop();
  if (answer.ok()) out->answer.emplace(std::move(answer).value());
  if (tracer->on()) {
    counts->queries += 1;
    counts->guards_eliminated += report.guards_eliminated;
    counts->branches_pruned += report.branches_pruned;
    counts->evals += 1;
    counts->tuples_scanned += stats.tuples_scanned;
    counts->predicate_evals += stats.predicate_evals;
    counts->join_probes += stats.join_probes;
    const size_t rows = out->answer ? out->answer->size() : 0;
    counts->rows_returned += rows;
    if (stats.join_probes > 0) counts->join_rows += rows;
  }
}

// Query text -> ParseQuery + BuildQueryPlan -> OptimizePlan -> Evaluate.
QueryResult RunQuery(const std::string& text, Employees* e,
                     const FlexibleRelation* relation, Tracer* tracer,
                     LayerCounts* counts) {
  const uint64_t start = NowNs();
  QueryResult out;
  {
    Span query(tracer, "query");
    auto parsed = flexrel::ParseQuery(&e->catalog, text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "query '%s' failed to parse: %s\n", text.c_str(),
                   parsed.status().ToString().c_str());
      return out;
    }
    out.plan = flexrel::BuildQueryPlan(parsed.value(), relation);
  }
  OptimizeAndEvaluate(e->eads, tracer, counts, &out);
  out.ms = static_cast<double>(NowNs() - start) / 1e6;
  return out;
}

// Loads `rows` with one InsertRows call (not per-row Insert, whose
// duplicate scan is O(n) per row).
void BulkLoad(Employees* e, std::vector<Tuple> rows, Tracer* tracer,
              LayerCounts* counts) {
  counts->bulk_insert_rows = rows.size();
  Span load(tracer, "core.relation.bulk_insert");
  Status status = e->relation.InsertRows(std::move(rows));
  counts->bulk_insert_ms = load.Stop();
  if (!status.ok()) Fail("InsertRows", status);
}

std::unique_ptr<Employees> LoadEmployees(uint64_t seed, Tracer* tracer,
                                         LayerCounts* counts,
                                         uint64_t* input_digest) {
  auto e = MakeEmployees(kVariants, kAttrsPerVariant, kCommons);
  Prng data(StreamSeed(seed, kData));
  std::vector<Tuple> rows = MakeEmployeeRows(*e, kEmployeeRows, &data);
  *input_digest = HashRowVector(rows);
  BulkLoad(e.get(), std::move(rows), tracer, counts);
  return e;
}

// One query per attribute the index mix reads, so no timed op pays a cold
// index build.
void WarmIndexes(Employees* e, Tracer* tracer, LayerCounts* counts) {
  std::vector<std::string> texts = {"SELECT * WHERE id = 0",
                                    "SELECT * WHERE common0 IN (0)"};
  for (size_t v = 0; v < e->jobtypes.size(); ++v) {
    texts.push_back(Cat("SELECT * WHERE jobtype = '",
                        e->jobtypes[v].as_string(), "' AND EXISTS(",
                        e->catalog.Name(e->variant_attrs[v][0]), ")"));
    for (AttrId a : e->variant_attrs[v]) {
      texts.push_back(Cat("SELECT * WHERE ", e->catalog.Name(a), " = 0"));
    }
  }
  for (const std::string& text : texts) {
    RunQuery(text, e, &e->relation, tracer, counts);
  }
}

// ---------------------------------------------------------------------------
// index-read: selective queries the value index answers, on a static
// relation. Query text -> parse -> OptimizePlan -> Evaluate.
// ---------------------------------------------------------------------------
class IndexRead : public Workload {
 public:
  void Setup(uint64_t seed, Tracer* tracer) override {
    e_ = LoadEmployees(seed, tracer, &counts, &input_digest_);
    WarmIndexes(e_.get(), tracer, &counts);
    Prng warm(StreamSeed(seed, kWarmup));
    for (size_t i = 0; i < 32; ++i) RunOne(i, &warm, tracer);
    ops_.emplace(StreamSeed(seed, kOps));
  }
  uint64_t input_digest() const override { return input_digest_; }

  OpTiming RunOp(size_t i, Tracer* tracer) override {
    tracer->set_op(static_cast<int64_t>(i));
    QueryResult r = RunOne(i, &*ops_, tracer);
    OpTiming t{r.ms, r.ms, r.answer.has_value()};
    if (i < kCheckedOps && t.ok) {
      state_ = Mix(state_, r.Digest());
      checked_.push_back({r.plan, r.digest});
    }
    return t;
  }

  CheckResult Check() override {
    return CheckOnNaiveOracle(checked_, "index-read");
  }
  uint64_t state_digest() const override { return state_; }

 private:
  QueryResult RunOne(size_t i, Prng* prng, Tracer* tracer) {
    auto kind = static_cast<IndexQuery>(i % kIndexQueryKinds);
    std::string text = MakeIndexQuery(*e_, e_->relation.rows(), kind, prng);
    Span op(tracer, kOpSpan, static_cast<int64_t>(kind));
    QueryResult r = RunQuery(text, e_.get(), &e_->relation, tracer, &counts);
    r.ms = op.Stop();
    return r;
  }

  std::unique_ptr<Employees> e_;
  std::optional<Prng> ops_;
  uint64_t input_digest_ = 0;
  uint64_t state_ = 0;
  std::vector<Sample> checked_;
};

// ---------------------------------------------------------------------------
// analytic: restore-and-select over the vertical decomposition, plus scans
// no index can answer. The evaluator's scans, joins and materialization
// carry the op.
// ---------------------------------------------------------------------------
class Analytic : public Workload {
 public:
  void Setup(uint64_t seed, Tracer* tracer) override {
    e_ = LoadEmployees(seed, tracer, &counts, &input_digest_);
    auto parts = flexrel::TranslateVertical(e_->relation, e_->eads[0],
                                            AttrSet::Of(e_->id));
    if (!parts.ok()) Fail("TranslateVertical", parts.status());
    master_ = std::make_unique<FlexibleRelation>(
        FlexibleRelation::Derived("master", DependencySet()));
    master_->InsertRowsUnchecked(parts.value().master.rows());
    for (const flexrel::Relation& r : parts.value().variant_relations) {
      auto fr = std::make_unique<FlexibleRelation>(
          FlexibleRelation::Derived(r.name(), DependencySet()));
      fr->InsertRowsUnchecked(r.rows());
      variants_.push_back(std::move(fr));
    }
    // sigma_jobtype over the base relation, the answer every
    // restore-and-select must reproduce (the decomposition is lossless).
    std::vector<std::vector<Tuple>> by_variant(kVariants);
    for (const Tuple& t : e_->relation.rows()) {
      for (size_t v = 0; v < kVariants; ++v) {
        if (*t.Get(e_->jobtype) == e_->jobtypes[v]) by_variant[v].push_back(t);
      }
    }
    for (const auto& rows : by_variant) expected_.push_back(HashRowSet(rows));

    WarmIndexes(e_.get(), tracer, &counts);
    Prng warm(StreamSeed(seed, kWarmup));
    for (size_t i = 0; i < 2 * kKinds; ++i) RunOne(i, &warm, tracer);
    ops_.emplace(StreamSeed(seed, kOps));
  }
  uint64_t input_digest() const override { return input_digest_; }

  OpTiming RunOp(size_t i, Tracer* tracer) override {
    tracer->set_op(static_cast<int64_t>(i));
    Op op = RunOne(i, &*ops_, tracer);
    OpTiming t{op.result.ms, op.result.ms, op.result.answer.has_value()};
    if (!t.ok) return t;
    const uint64_t digest = op.result.Digest();
    if (op.restore_variant >= 0 &&
        digest != expected_[static_cast<size_t>(op.restore_variant)]) {
      t.ok = false;
      std::fprintf(stderr,
                   "analytic: restore-and-select differs from sigma over the "
                   "base relation\n");
    }
    if (i < kCheckedOps) {
      state_ = Mix(state_, digest);
      if (op.restore_variant < 0) checked_.push_back({op.result.plan, digest});
    }
    return t;
  }

  // The sampled range scans; every restore-and-select is checked inline.
  CheckResult Check() override {
    return CheckOnNaiveOracle(checked_, "analytic");
  }
  uint64_t state_digest() const override { return state_; }

 private:
  struct Op {
    QueryResult result;
    int restore_variant = -1;
  };

  enum Kind { kRestoreSelect, kGuardedRange, kCommonRange, kKinds };

  Op RunOne(size_t i, Prng* prng, Tracer* tracer) {
    Op op;
    const auto kind = static_cast<Kind>(i % kKinds);
    if (kind != kRestoreSelect) {
      std::string text = MakeRangeQuery(*e_, kind == kGuardedRange, prng);
      Span span(tracer, kOpSpan, kind);
      op.result = RunQuery(text, e_.get(), &e_->relation, tracer, &counts);
      op.result.ms = span.Stop();
      return op;
    }
    op.restore_variant = static_cast<int>(prng->Below(kVariants));
    Span span(tracer, kOpSpan, kind);
    {
      // sigma_{jobtype = x}(outer union over v of master join variant_v):
      // the optimizer pushes the selection into the branches, prunes every
      // branch whose variant attributes jobtype x excludes, and pushes it
      // on into the master side, where the value index answers it.
      Span query(tracer, "query");
      std::vector<PlanPtr> branches;
      for (const auto& variant : variants_) {
        branches.push_back(Plan::NaturalJoin(Plan::Scan(master_.get()),
                                             Plan::Scan(variant.get())));
      }
      op.result.plan = Plan::Select(
          Plan::OuterUnion(std::move(branches)),
          Expr::Eq(e_->jobtype,
                   e_->jobtypes[static_cast<size_t>(op.restore_variant)]));
    }
    OptimizeAndEvaluate(e_->eads, tracer, &counts, &op.result);
    op.result.ms = span.Stop();
    return op;
  }

  std::unique_ptr<Employees> e_;
  std::unique_ptr<FlexibleRelation> master_;
  std::vector<std::unique_ptr<FlexibleRelation>> variants_;
  std::vector<uint64_t> expected_;
  std::optional<Prng> ops_;
  uint64_t input_digest_ = 0;
  uint64_t state_ = 0;
  std::vector<Sample> checked_;
};

// ---------------------------------------------------------------------------
// mutate-read: one transactional ApplyBatch, then one index-read query over
// the live, incrementally maintained relation.
// ---------------------------------------------------------------------------
class MutateRead : public Workload {
 public:
  void Setup(uint64_t seed, Tracer* tracer) override {
    seed_ = seed;
    e_ = LoadEmployees(seed, tracer, &counts, &input_digest_);
    next_id_ = static_cast<int64_t>(kEmployeeRows);
    WarmIndexes(e_.get(), tracer, &counts);
    // One round per burst size, so every flush arm has run once.
    Prng warm(StreamSeed(seed, kWarmup));
    for (size_t burst : {1, 8, 64, 512}) {
      if (!RunOne(burst, burst, &warm, tracer).timing.ok) {
        std::fprintf(stderr, "mutate-read: warm-up batch failed\n");
        std::exit(2);
      }
    }
    ops_.emplace(StreamSeed(seed, kOps));
  }
  uint64_t input_digest() const override { return input_digest_; }

  OpTiming RunOp(size_t i, Tracer* tracer) override {
    tracer->set_op(static_cast<int64_t>(i));
    if (bursts_.empty()) bursts_ = BurstCycle(&*ops_);
    const size_t burst = bursts_.back();
    bursts_.pop_back();
    Round round = RunOne(i, burst, &*ops_, tracer);
    if (i < kCheckedOps) {
      state_ = Mix(state_, round.read.Digest());
      if (i + 1 == kCheckedOps) {
        state_ = Mix(state_, HashRowVector(e_->relation.rows()));
      }
    }
    return round.timing;
  }

  CheckResult Check() override {
    // The rebuild oracle: a copy starts cache-less, so its answers come
    // from structures built from scratch over the final rows.
    FlexibleRelation copy = e_->relation;
    Tracer off;
    LayerCounts scratch;
    Prng prng(StreamSeed(seed_, kChecks));
    CheckResult c;
    for (size_t j = 0; j < kCheckedOps / 2; ++j) {
      auto kind = static_cast<IndexQuery>(j % kIndexQueryKinds);
      std::string text = MakeIndexQuery(*e_, e_->relation.rows(), kind, &prng);
      QueryResult live = RunQuery(text, e_.get(), &e_->relation, &off, &scratch);
      QueryResult rebuilt = RunQuery(text, e_.get(), &copy, &off, &scratch);
      ++c.run;
      if (!live.answer || !rebuilt.answer || live.Digest() != rebuilt.Digest()) {
        ++c.failed;
        std::fprintf(stderr, "mutate-read: '%s' differs from the rebuild "
                             "oracle\n", text.c_str());
      }
    }
    return c;
  }
  uint64_t state_digest() const override { return state_; }

 private:
  struct Round {
    OpTiming timing;
    QueryResult read;
  };

  Round RunOne(size_t i, size_t burst, Prng* prng, Tracer* tracer) {
    auto batch = MakeBatch(*e_, e_->relation.rows(), burst, &next_id_, prng);
    auto kind = static_cast<IndexQuery>(i % kIndexQueryKinds);
    std::string text = MakeIndexQuery(*e_, e_->relation.rows(), kind, prng);

    Span op(tracer, kOpSpan, static_cast<int64_t>(kind));
    const uint64_t flush_before = tracer->on() ? HistSum(kFlushNs) : 0;
    Span write(tracer, "core.relation.apply_batch",
               static_cast<int64_t>(burst));
    Status status = e_->relation.ApplyBatch(std::move(batch));
    write.Stop();
    if (tracer->on()) {
      counts.batches += 1;
      counts.batch_ops += burst;
      counts.batch_flush_ns += HistSum(kFlushNs) - flush_before;
    }
    Round round;
    round.read = RunQuery(text, e_.get(), &e_->relation, tracer, &counts);
    round.timing = {op.Stop(), round.read.ms,
                    status.ok() && round.read.answer.has_value()};
    if (!status.ok()) {
      std::fprintf(stderr, "mutate-read: ApplyBatch failed: %s\n",
                   status.ToString().c_str());
    }
    return round;
  }

  static constexpr const char* kFlushNs = "engine.pli_cache.flush_ns";

  std::unique_ptr<Employees> e_;
  std::optional<Prng> ops_;
  uint64_t seed_ = 0;
  int64_t next_id_ = 0;
  std::vector<size_t> bursts_;  ///< the rest of the current burst cycle
  uint64_t input_digest_ = 0;
  uint64_t state_ = 0;
};

// ---------------------------------------------------------------------------
// migrate: the DBA onboarding path. ReadFlexDb -> InstallDiscoveredDeps ->
// WriteFlexDb (with the mined Sigma) -> ReadFlexDb (the Sigma-audited load).
// ---------------------------------------------------------------------------
constexpr size_t kMigrateFiles = 4;
constexpr size_t kMigrateRows = 2500;

// Sigma as a set, by attribute names: equal for equal dependency sets,
// whatever order discovery emitted them in.
uint64_t SigmaDigest(const DependencySet& sigma, const AttrCatalog& catalog) {
  auto names = [&](const AttrSet& attrs) {
    std::vector<std::string> out;
    for (AttrId a : attrs) out.push_back(catalog.Name(a));
    std::sort(out.begin(), out.end());
    std::string joined;
    for (const std::string& n : out) joined += n + ",";
    return joined;
  };
  std::vector<std::string> keys;
  for (const auto& fd : sigma.fds()) {
    keys.push_back(Cat("fd ", names(fd.lhs), "->", names(fd.rhs)));
  }
  for (const auto& ad : sigma.ads()) {
    keys.push_back(Cat("ad ", names(ad.lhs), "->", names(ad.rhs)));
  }
  std::sort(keys.begin(), keys.end());
  uint64_t h = keys.size();
  for (const std::string& k : keys) h = Mix(h, HashString(k));
  return h;
}

// Sigma implies every planted FD {c(3i), c(3i+1)} -> c(3i+2).
bool ImpliesPlanted(const DependencySet& sigma, const AttrCatalog& catalog) {
  auto id = [&](int c) {
    auto found = catalog.Find(Cat("c", c));
    return found.ok() ? found.value() : AttrId(-1);
  };
  for (int i = 0; i < kPlantedFds; ++i) {
    flexrel::FuncDep fd{AttrSet({id(3 * i), id(3 * i + 1)}),
                        AttrSet::Of(id(3 * i + 2))};
    if (!flexrel::Implies(sigma, fd)) return false;
  }
  return true;
}

class Migrate : public Workload {
 public:
  void Setup(uint64_t seed, Tracer* tracer) override {
    Prng data(StreamSeed(seed, kData));
    for (size_t f = 0; f < kMigrateFiles; ++f) {
      inputs_.push_back(MakeMigrateInput(kMigrateRows, &data));
      input_digest_ = Mix(input_digest_, HashString(inputs_.back().text));
    }
    output_.assign(kMigrateFiles, 0);
    // One job per file: warms the process and records each file's output.
    for (size_t f = 0; f < kMigrateFiles; ++f) {
      if (!RunJob(f, tracer).ok) {
        std::fprintf(stderr, "migrate: warm-up job failed\n");
        std::exit(2);
      }
    }
  }
  uint64_t input_digest() const override { return input_digest_; }

  OpTiming RunOp(size_t i, Tracer* tracer) override {
    tracer->set_op(static_cast<int64_t>(i));
    OpTiming t = RunJob(i % kMigrateFiles, tracer);
    if (i < kCheckedOps) state_ = Mix(state_, output_[i % kMigrateFiles]);
    return t;
  }

  CheckResult Check() override { return CheckResult(); }
  uint64_t state_digest() const override { return state_; }

 private:
  OpTiming RunJob(size_t file, Tracer* tracer) {
    const MigrateInput& in = inputs_[file];
    flexrel::DiscoveryOptions options;
    options.max_lhs_size = 2;
    options.num_threads = 2;

    OpTiming t;
    Span op(tracer, kOpSpan, static_cast<int64_t>(file));
    Span read(tracer, "storage.read");
    auto db = flexrel::ReadFlexDb(in.text);
    t.read_ms = read.Stop();
    if (!db.ok()) return Failed(db.status(), "ReadFlexDb");
    flexrel::FlexDb& d = *db.value();
    Span discovery(tracer, "engine.discovery");
    Status installed = flexrel::InstallDiscoveredDeps(&d.relation, options);
    discovery.Stop();
    if (!installed.ok()) return Failed(installed, "InstallDiscoveredDeps");
    Span write(tracer, "storage.write");
    std::string text =
        flexrel::WriteFlexDb(d.catalog, d.scheme, d.eads, d.domains, d.relation);
    write.Stop();
    Span reload(tracer, "storage.reload");
    auto audited = flexrel::ReadFlexDb(text);
    reload.Stop();
    t.op_ms = op.Stop();
    if (!audited.ok()) return Failed(audited.status(), "Sigma-audited reload");

    if (tracer->on()) {
      counts.stored_bytes += text.size();
      counts.stored_rows += in.rows;
    }
    // A job's output: the mined Sigma and the rows that survived the
    // round trip. Equal inputs must give equal outputs.
    const flexrel::FlexDb& r = *audited.value();
    const uint64_t output = Mix(SigmaDigest(d.relation.deps(), d.catalog),
                                HashRowVector(r.relation.rows()));
    if (output_[file] == 0) output_[file] = output;
    if (output != output_[file] || r.relation.size() != in.rows ||
        !ImpliesPlanted(d.relation.deps(), d.catalog) ||
        !ImpliesPlanted(r.relation.deps(), r.catalog)) {
      std::fprintf(stderr,
                   "migrate: file %zu: output differs from the first job's, "
                   "misses a planted FD, or lost rows\n",
                   file);
      t.ok = false;
    }
    return t;
  }

  static OpTiming Failed(const Status& status, const char* step) {
    std::fprintf(stderr, "migrate: %s failed: %s\n", step,
                 status.ToString().c_str());
    OpTiming t;
    t.ok = false;
    return t;
  }

  std::vector<MigrateInput> inputs_;
  std::vector<uint64_t> output_;
  uint64_t input_digest_ = 0;
  uint64_t state_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "migrate") return std::make_unique<Migrate>();
  if (name == "index-read") return std::make_unique<IndexRead>();
  if (name == "analytic") return std::make_unique<Analytic>();
  if (name == "mutate-read") return std::make_unique<MutateRead>();
  return nullptr;
}

}  // namespace e2e
