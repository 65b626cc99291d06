#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace e2e {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int Tracer::Open(const char* name, int64_t arg, uint64_t start_ns) {
  if (!on_) return -1;
  SpanRecord r;
  r.name = name;
  r.op = op_;
  r.parent = open_.empty() ? -1 : open_.back();
  r.arg = arg;
  r.start_ns = start_ns;
  spans_.push_back(r);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::Close(int index, uint64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
  // Spans close in LIFO order; tolerate an out-of-order close by dropping
  // everything opened after it.
  auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"op\": %lld, \"parent\": %d, "
                 "\"arg\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 s.name, static_cast<long long>(s.op), s.parent,
                 static_cast<long long>(s.arg),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - origin) / 1e3);
  }
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, const char* name, int64_t arg)
    : tracer_(tracer), start_ns_(NowNs()) {
  index_ = tracer_->Open(name, arg, start_ns_);
}

double Span::Stop() {
  if (ms_ >= 0) return ms_;
  const uint64_t end = NowNs();
  tracer_->Close(index_, end);
  ms_ = static_cast<double>(end - start_ns_) / 1e6;
  return ms_;
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  SpanSummary out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    out.total_ms[s.name] += ms;
    out.self_ms[s.name] += ms - child_ms[i];
    out.count[s.name] += 1;
    if (std::strcmp(s.name, kOpSpan) == 0) {
      ++out.ops;
      if (ms > 0) {
        out.min_op_coverage = std::min(out.min_op_coverage, child_ms[i] / ms);
      }
    }
  }
  return out;
}

}  // namespace e2e
