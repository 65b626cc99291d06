// flexrel_e2e: runs one end-to-end workload for a fixed wall-clock window
// and prints its metrics.
//
//   flexrel_e2e --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-dir DIR]
//
// Set-up (input generation, load, warm-up) runs kSetupRuns times; setup_s
// is the median, and the last set-up is the one measured. The timed loop
// runs closed-loop ops until S seconds have passed and at least
// kCheckedOps ops are done, then the workload's correctness checks run.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: ops alternate in blocks between untraced and traced (benchmark
// spans plus the library's telemetry registry), so the blocks measure the
// tracing overhead against each other while per-layer metrics come from
// the traced ops only. With --trace-dir the spans (spans.jsonl) and the
// registry dump (registry.json) are written there. The registry's metrics
// cover every traced block; its span ring holds the library's own spans of
// the last block only, because telemetry::Enable() clears the ring.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. The line before it, prefixed "E2E_INFO ", carries sample counts
// and the input and state digests. Exit status is 0 only when every op and
// every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {
namespace {

namespace telemetry = flexrel::telemetry;

constexpr int kSetupRuns = 3;
// Ops per traced or untraced block; a multiple of every workload's op
// cycle (3 and 4), so both halves see the same op mix.
constexpr size_t kTraceBlock = 12;
// The traced run's floor on the share of each op its layer spans cover.
constexpr double kMinSpanCoverage = 0.95;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: flexrel_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number for " + flag).c_str());
  }
  if (a.workload.empty() || !(a.seconds > 0)) {
    Usage("--workload and a positive --seconds are required");
  }
  return a;
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Counter(const char* name) { return telemetry::CounterValue(name); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Per-layer metrics of the traced ops. Layer time is reported as a share
// of op time: benchmark spans give it for each layer with an entry point, the
// registry for the work inside layers without one (engine.pli_cache,
// engine.pli, engine.validator; thread time, so several threads can sum
// past 100%). Counts and ratios come from the benchmark's own calls and the
// registry. A layer a workload never calls reads 0.
std::vector<Metric> LayerMetrics(const SpanSummary& s, const LayerCounts& c,
                                 double overhead_pct) {
  const double ops = static_cast<double>(s.ops);
  auto span_ms = [&](const char* name) {
    auto it = s.total_ms.find(name);
    return it == s.total_ms.end() ? 0.0 : it->second;
  };
  const double op_ms = span_ms(kOpSpan);
  auto share = [&](double ms) { return Ratio(ms * 100, op_ms); };
  auto hist_share = [&](const char* name) {
    return share(static_cast<double>(telemetry::Registry::Global()
                                         .GetHistogram(name)
                                         ->Snap()
                                         .sum) /
                 1e6);
  };
  auto count = [](const char* name) {
    return static_cast<double>(telemetry::CounterValue(name));
  };
  auto per_op = [&](double v) { return Ratio(v, ops); };
  const double queries = static_cast<double>(c.queries);
  const double evals = static_cast<double>(c.evals);
  const double batches = static_cast<double>(c.batches);
  const double apply_ms = span_ms("core.relation.apply_batch");
  const double flushes = count("engine.pli_cache.flushes");
  const double candidates = count("engine.discovery.candidates");
  return {
      {"storage.read_time_pct", share(span_ms("storage.read")), "%"},
      {"storage.reload_audit_time_pct", share(span_ms("storage.reload")), "%"},
      {"storage.write_time_pct", share(span_ms("storage.write")), "%"},
      {"storage.bytes_per_row",
       Ratio(static_cast<double>(c.stored_bytes),
             static_cast<double>(c.stored_rows)),
       "B/row"},
      {"query.parse_time_pct", share(span_ms("query")), "%"},
      {"optimizer.time_pct", share(span_ms("optimizer")), "%"},
      {"optimizer.guards_eliminated",
       Ratio(static_cast<double>(c.guards_eliminated), queries), "count/query"},
      {"optimizer.branches_pruned",
       Ratio(static_cast<double>(c.branches_pruned), queries), "count/query"},
      {"algebra.eval_time_pct", share(span_ms("algebra")), "%"},
      {"algebra.rows_examined_per_row_returned",
       Ratio(static_cast<double>(c.tuples_scanned),
             static_cast<double>(c.rows_returned)),
       "ratio"},
      {"algebra.predicate_evals",
       Ratio(static_cast<double>(c.predicate_evals), evals), "count/query"},
      {"algebra.join_probes", Ratio(static_cast<double>(c.join_probes), evals),
       "count/query"},
      {"algebra.join_yield",
       Ratio(static_cast<double>(c.join_rows),
             static_cast<double>(c.join_probes)),
       "rows/probe"},
      {"algebra.index_hit_frac", Ratio(count("eval.index_hits"), evals),
       "frac"},
      {"core.relation.apply_batch_time_pct", share(apply_ms), "%"},
      {"core.relation.validate_time_pct",
       share(apply_ms - static_cast<double>(c.batch_flush_ns) / 1e6), "%"},
      {"core.relation.rows_written_per_s",
       Ratio(static_cast<double>(c.batch_ops), apply_ms / 1e3), "1/s"},
      {"core.relation.bulk_insert_rows_per_s",
       Ratio(static_cast<double>(c.bulk_insert_rows), c.bulk_insert_ms / 1e3),
       "1/s"},
      {"engine.pli_cache.flush_time_pct",
       hist_share("engine.pli_cache.flush_ns"), "%"},
      {"engine.pli_cache.flush_arm_frac.per_row",
       Ratio(count("engine.pli_cache.flush.per_row"), flushes), "frac"},
      {"engine.pli_cache.flush_arm_frac.batched",
       Ratio(count("engine.pli_cache.flush.batched"), flushes), "frac"},
      {"engine.pli_cache.flush_arm_frac.dropped",
       Ratio(count("engine.pli_cache.flush.dropped"), flushes), "frac"},
      {"engine.pli_cache.publishes_per_batch",
       Ratio(count("engine.pli_cache.publishes"), batches), "count"},
      {"engine.pli_cache.hit_rate",
       Ratio(count("engine.pli_cache.hits"), count("engine.pli_cache.lookups")),
       "frac"},
      {"engine.pli_cache.get_time_pct", hist_share("engine.pli_cache.get_ns"),
       "%"},
      {"engine.pli_cache.evictions", count("engine.pli_cache.evictions"),
       "count"},
      {"engine.pli.intersections", per_op(count("engine.pli.intersections")),
       "count/op"},
      {"engine.pli.intersect_time_pct", hist_share("engine.pli.intersect_ns"),
       "%"},
      {"engine.validator.checks",
       per_op(count("engine.validator.ad_checks") +
              count("engine.validator.fd_checks") +
              count("engine.validator.maximal_rhs")),
       "count/op"},
      {"engine.validator.maximal_rhs_time_pct",
       hist_share("engine.validator.maximal_rhs_ns"), "%"},
      {"engine.discovery.time_pct", share(span_ms("engine.discovery")), "%"},
      {"engine.discovery.candidates", per_op(candidates), "count/op"},
      {"engine.discovery.emitted_frac",
       Ratio(count("engine.discovery.emitted"), candidates), "frac"},
      {"engine.discovery.worker_utilization_pct",
       static_cast<double>(telemetry::Registry::Global()
                               .GetGauge("engine.discovery.worker_utilization_pct")
                               ->value()),
       "%"},
      {"engine.codec.interned_codes",
       per_op(count("engine.codec.interned_codes")), "count/op"},
      {"engine.codec.generation_bumps",
       per_op(count("engine.codec.generation_bumps")), "count/op"},
      {"telemetry.trace_overhead_pct", overhead_pct, "%"},
      {"telemetry.span_coverage_min_pct", s.min_op_coverage * 100, "%"},
  };
}

// The traced run's structural checks; each failure is reported on stderr.
CheckResult TraceChecks(const std::string& workload, const SpanSummary& s) {
  CheckResult c;
  auto expect = [&](bool ok, const std::string& what) {
    ++c.run;
    if (!ok) {
      ++c.failed;
      std::fprintf(stderr, "trace check failed: %s\n", what.c_str());
    }
  };
  expect(s.ops > 0 && s.min_op_coverage >= kMinSpanCoverage,
         "layer spans cover >= 95% of every op");
  // The robustness plane (fault injection, memory budget, exec control) is
  // off, so it must do no work.
  expect(Counter("fault.injected_total") == 0 &&
             Counter("engine.cache.budget_evictions") == 0 &&
             Counter("engine.cache.uncached_serves") == 0 &&
             Counter("engine.exec.cancelled") == 0 &&
             Counter("engine.exec.deadline_exceeded") == 0,
         "robustness plane quiescent");
  expect(Counter("engine.pli_cache.evictions") == 0, "no cache evictions");
  if (workload == "index-read" || workload == "analytic") {
    expect(Counter("engine.pli_cache.flushes") == 0,
           "no cache flushes on a read-only workload");
  }
  return c;
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int Run(const Args& args) {
  Tracer tracer;
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    w.reset();
    const uint64_t start = NowNs();
    w = MakeWorkload(args.workload);
    if (w == nullptr) Usage(("unknown workload " + args.workload).c_str());
    w->Setup(args.seed, &tracer);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  std::vector<double> op_ms;
  std::vector<double> read_ms;
  double traced_ms = 0, untraced_ms = 0;
  size_t traced_ops = 0, untraced_ops = 0;
  size_t failed = 0;
  if (args.trace) telemetry::Registry::Global().Reset();
  const uint64_t loop_start = NowNs();
  const uint64_t deadline =
      loop_start + static_cast<uint64_t>(args.seconds * 1e9);
  for (size_t i = 0; i < kCheckedOps || NowNs() < deadline; ++i) {
    if (args.trace && i % kTraceBlock == 0) {
      const bool on = (i / kTraceBlock) % 2 == 1;
      tracer.set_on(on);
      if (on) {
        telemetry::Enable();
      } else {
        telemetry::Disable();
      }
    }
    const OpTiming t = w->RunOp(i, &tracer);
    if (!t.ok) ++failed;
    op_ms.push_back(t.op_ms);
    read_ms.push_back(t.read_ms);
    (tracer.on() ? traced_ms : untraced_ms) += t.op_ms;
    ++(tracer.on() ? traced_ops : untraced_ops);
  }
  telemetry::Disable();
  tracer.set_on(false);
  const uint64_t loop_end = NowNs();
  // Peak RSS of set-up and the timed loop, before the checks allocate
  // their oracle copies.
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);

  CheckResult checks = w->Check();
  const double check_s = static_cast<double>(NowNs() - loop_end) / 1e9;
  const SpanSummary spans = Summarize(tracer.spans());
  if (args.trace) {
    CheckResult t = TraceChecks(args.workload, spans);
    checks.run += t.run;
    checks.failed += t.failed;
  }
  const size_t attempted = op_ms.size() + checks.run;
  failed += checks.failed;

  std::vector<Metric> metrics;
  if (args.trace) {
    const double overhead =
        (Ratio(traced_ms, static_cast<double>(traced_ops)) /
             Ratio(untraced_ms, static_cast<double>(untraced_ops)) -
         1) *
        100;
    metrics = LayerMetrics(spans, w->counts, overhead);
    std::fprintf(stderr, "%-28s %12s %12s %8s\n", "layer span", "total_ms",
                 "self_ms", "count");
    for (const auto& [name, total] : spans.total_ms) {
      std::fprintf(stderr, "%-28s %12.3f %12.3f %8zu\n", name.c_str(), total,
                   spans.self_ms.at(name), spans.count.at(name));
    }
    if (!args.trace_dir.empty() &&
        !(tracer.WriteJsonl(args.trace_dir + "/spans.jsonl") &&
          WriteFile(args.trace_dir + "/registry.json",
                    telemetry::Registry::Global().ToJson()))) {
      std::fprintf(stderr, "cannot write the trace to %s\n",
                   args.trace_dir.c_str());
      return 2;
    }
  } else {
    double total_ms = 0;
    for (double v : op_ms) total_ms += v;
    metrics = {
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"op_ms_p50", Percentile(op_ms, 0.5), "ms"},
        {"op_ms_p90", Percentile(op_ms, 0.9), "ms"},
        // Ops per second of time spent inside ops (1 / mean latency): the
        // benchmark's input generation and answer checks between ops are
        // excluded, as a client with no think time would see it.
        {"ops_per_s", Ratio(static_cast<double>(op_ms.size()), total_ms / 1e3),
         "1/s"},
        {"read_ms_p50", Percentile(read_ms, 0.5), "ms"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
    };
  }

  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%s %s %.6g %s\n", args.workload.c_str(),
                 m.name.c_str(), m.value, m.unit);
  }
  std::printf(
      "E2E_INFO {\"workload\": \"%s\", \"seed\": %llu, \"ops\": %zu, "
      "\"traced_ops\": %zu, \"setup_runs\": %d, \"loop_s\": %.3f, "
      "\"checks\": %zu, \"check_s\": %.3f, "
      "\"input_digest\": \"%s\", \"state_digest\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      op_ms.size(), traced_ops, kSetupRuns,
      static_cast<double>(loop_end - loop_start) / 1e9, checks.run, check_s,
      Hex(w->input_digest()).c_str(), Hex(w->state_digest()).c_str());
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  return e2e::Run(e2e::ParseArgs(argc, argv));
}
