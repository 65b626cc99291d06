#include "telemetry/telemetry.h"

#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace flexrel {
namespace telemetry {

namespace {

std::atomic<bool> g_enabled{false};

// Bound of the span ring Enable() resets to.
constexpr size_t kTraceCapacity = 4096;

// Process-start anchor for NowNs(); initialized on first use, which is
// early enough — spans only need a shared monotonic origin.
std::chrono::steady_clock::time_point ProcessStart() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

thread_local uint32_t t_span_depth = 0;

void JsonEscape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - ProcessStart())
          .count());
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

uint64_t Histogram::BucketUpperEdge(size_t i) {
  if (i + 1 >= kNumBuckets) return UINT64_MAX;
  return uint64_t{1} << i;  // bucket 0: [0, 1]; bucket i: (2^(i-1), 2^i]
}

size_t Histogram::BucketIndex(uint64_t value) {
  // Bucket of the smallest upper edge >= value: bit_width of (value - 1),
  // clamped into the final absorbing bucket.
  if (value <= 1) return 0;
  size_t idx = static_cast<size_t>(std::bit_width(value - 1));
  return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name)
    : active_(Enabled()), name_(name) {
  if (!active_) return;
  start_ns_ = NowNs();
  ++t_span_depth;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  SpanRecord record;
  record.name = name_;
  record.detail = std::move(detail_);
  record.start_ns = start_ns_;
  record.dur_ns = NowNs() - start_ns_;
  record.thread = ThisThreadId();
  record.depth = --t_span_depth;
  Registry::Global().RecordSpan(std::move(record));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mu;
  // node_hash_map-like stability: unique_ptr payloads never move, so the
  // raw pointers handed to call sites survive rehashes and Reset().
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;

  // Span ring: fixed capacity, oldest overwritten.
  std::vector<SpanRecord> ring;
  size_t ring_capacity = kTraceCapacity;
  size_t ring_next = 0;     // next slot to write
  size_t spans_total = 0;   // all spans ever recorded
};

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();  // leaked: metrics outlive static dtors
  return *impl;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.counters[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.gauges[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.histograms[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

uint64_t Registry::CounterValue(std::string_view name) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.counters.find(std::string(name));
  return it == im.counters.end() ? 0 : it->second->value();
}

void Registry::RecordSpan(SpanRecord record) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.ring_capacity == 0) return;
  if (im.ring.size() < im.ring_capacity) {
    im.ring.push_back(std::move(record));
  } else {
    im.ring[im.ring_next] = std::move(record);
  }
  im.ring_next = (im.ring_next + 1) % im.ring_capacity;
  ++im.spans_total;
}

void Registry::SetTraceCapacity(size_t capacity) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.ring_capacity = capacity;
  im.ring.clear();
  im.ring_next = 0;
}

size_t Registry::spans_recorded() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.spans_total;
}

void Registry::Reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->Reset();
  for (auto& [name, g] : im.gauges) g->Reset();
  for (auto& [name, h] : im.histograms) h->Reset();
  im.ring.clear();
  im.ring_next = 0;
  im.spans_total = 0;
}

std::string Registry::ToJson() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::ostringstream os;
  os << "{\n";

  // Sorted sections so dumps of identical runs diff cleanly.
  auto sorted_names = [](const auto& map) {
    std::map<std::string, const typename std::decay_t<
                              decltype(map)>::mapped_type::element_type*>
        out;
    for (const auto& [name, metric] : map) out.emplace(name, metric.get());
    return out;
  };

  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : sorted_names(im.counters)) {
    os << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(os, name);
    os << "\": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : sorted_names(im.gauges)) {
    os << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(os, name);
    os << "\": " << g->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : sorted_names(im.histograms)) {
    Histogram::Snapshot snap = h->Snap();
    os << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(os, name);
    os << "\": {\"count\": " << snap.count << ", \"sum\": " << snap.sum
       << ", \"buckets\": [";
    // Sparse encoding: only non-empty buckets, as [upper_edge, count].
    bool bfirst = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;
      if (!bfirst) os << ", ";
      os << "[" << Histogram::BucketUpperEdge(i) << ", " << snap.buckets[i]
         << "]";
      bfirst = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  // Spans in recording order (ring start = oldest surviving record).
  os << "  \"spans\": [";
  const size_t n = im.ring.size();
  const size_t start = n < im.ring_capacity ? 0 : im.ring_next;
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = im.ring[(start + i) % n];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"";
    JsonEscape(os, s.name);
    os << "\", \"detail\": \"";
    JsonEscape(os, s.detail);
    os << "\", \"start_ns\": " << s.start_ns << ", \"dur_ns\": " << s.dur_ns
       << ", \"thread\": " << s.thread << ", \"depth\": " << s.depth << "}";
  }
  os << (n == 0 ? "" : "\n  ") << "],\n";
  os << "  \"spans_dropped\": "
     << (im.spans_total > n ? im.spans_total - n : 0) << "\n";
  os << "}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Enable/Disable
// ---------------------------------------------------------------------------

void Enable() {
  Registry::Global().SetTraceCapacity(kTraceCapacity);
  g_enabled.store(true, std::memory_order_relaxed);
}

void Disable() { g_enabled.store(false, std::memory_order_relaxed); }

}  // namespace telemetry
}  // namespace flexrel
