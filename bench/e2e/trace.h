// Benchmark-side tracing: spans around each call the benchmark makes into the
// library, kept in memory and written out when the run ends.
//
// A span is opened around every public entry point a workload calls (its
// layer) and around each op as a whole; layer spans opened during an op are
// that op's children. Spans are recorded only while the tracer is on, but a
// Span always times its region, so the untraced run measures op latency
// through the same code.

#ifndef FLEXREL_BENCH_E2E_TRACE_H_
#define FLEXREL_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

struct SpanRecord {
  const char* name = "";
  int64_t op = -1;     ///< op index; -1 for set-up work
  int32_t parent = -1; ///< index of the enclosing span, -1 for a root
  int64_t arg = -1;    ///< the op's kind, or a batch's size; -1 for none
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_op(int64_t op) { op_ = op; }

  /// Records a span opening under the innermost open one; -1 when off.
  int Open(const char* name, int64_t arg, uint64_t start_ns);
  void Close(int index, uint64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// One JSON object per span: name, op, parent, arg, start_us, end_us.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool on_ = false;
  int64_t op_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Times the enclosing region, recording it as a span when the tracer is on.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t arg = -1);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its length in milliseconds.
  double Stop();

 private:
  Tracer* tracer_;
  int index_;
  uint64_t start_ns_;
  double ms_ = -1;
};

/// Per-name totals over recorded spans, and how much of each op span its
/// child spans cover.
struct SpanSummary {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;  ///< minus the time of child spans
  std::map<std::string, size_t> count;
  size_t ops = 0;
  double min_op_coverage = 1.0;  ///< min over op spans of child time / op time
};
SpanSummary Summarize(const std::vector<SpanRecord>& spans);

/// The name of the span that wraps each op.
constexpr const char* kOpSpan = "op";

}  // namespace e2e

#endif  // FLEXREL_BENCH_E2E_TRACE_H_
