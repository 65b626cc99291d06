// Deterministic seeded fault injection for robustness testing, built on
// the telemetry plane's cost model: named sites, off by default behind one
// relaxed atomic load, with call sites caching their Site pointer in a
// function-local static so a disabled build pays one predictable branch.
//
// A site is a stable name placed at a failure-prone point — an allocation
// inside a flush arm, a partition build, a discovery level. When the
// registry is enabled with a seed, each site decides injection purely from
// (seed, site name, per-site hit index) through a splitmix64-style mixer:
// the same seed replays the exact same fault schedule, which is what lets
// the nightly chaos soak upload a failing seed as a reproducer. Roughly
// one hit in eight injects; the mixed bits also pick the fault kind:
//
//   - kAllocFailure: throws std::bad_alloc, exercising the strong
//     exception guarantee of flush/build paths;
//   - kAbort: throws fault::InducedAbort, a distinct type so tests can
//     tell an induced abort from a real allocation failure;
//   - kLatency: sleeps ~50us, widening race windows for the concurrent
//     suites without failing anything.
//
// Production code never catches InducedAbort specifically — the recovery
// paths under test must treat it like any other exception.

#ifndef FLEXREL_UTIL_FAULT_H_
#define FLEXREL_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace flexrel {
namespace fault {

/// Thrown by kAbort injections. Deliberately not derived from
/// std::exception's allocation family so recovery code proves it handles
/// arbitrary failure, not just bad_alloc.
struct InducedAbort {
  const char* site = "";
};

/// The global on/off guard — one relaxed load, the only cost a site pays
/// when injection is off (the default).
bool Enabled();

/// Arms injection with a deterministic seed. Idempotent; re-arming with a
/// new seed restarts every site's schedule (hit counters reset).
void Enable(uint64_t seed);

/// Disarms injection. Site hit/injected totals are retained for reading.
void Disable();

/// One named injection point. Stable address for the life of the process.
class Site {
 public:
  explicit Site(std::string name);
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const std::string& name() const { return name_; }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// The injection decision for one pass through the site. Called only
  /// when Enabled(); throws on alloc-failure / abort injections, sleeps on
  /// latency injections, otherwise returns.
  void MaybeInject();

  // Internal: Registry resets schedules on (re-)Enable.
  void ResetSchedule() {
    hits_.store(0, std::memory_order_relaxed);
    injected_.store(0, std::memory_order_relaxed);
  }

 private:
  const std::string name_;
  const uint64_t name_hash_;  // cached: mixed into every injection decision
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> injected_{0};
};

/// Name -> site. Registration takes a lock; returned pointers are valid
/// for the life of the process, so hot sites cache them.
class Registry {
 public:
  static Registry& Global();

  /// The site named `name`, registering it on first use.
  Site* GetSite(std::string_view name);

  /// Every registered site, for the catalogue smoke and soak reports.
  std::vector<const Site*> Sites() const;

  /// Total injections across all sites since the last Enable().
  uint64_t InjectedTotal() const;

  uint64_t seed() const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
  friend void Enable(uint64_t);
  friend void Disable();
};

/// The instrumentation macro: one relaxed load when disabled; a cached
/// pointer plus the deterministic injection decision when armed. `name`
/// must be a string literal (it names the site in catalogues and seeds
/// the per-site schedule).
#define FLEXREL_FAULT_INJECT(name)                                  \
  do {                                                              \
    if (::flexrel::fault::Enabled()) {                              \
      static ::flexrel::fault::Site* flexrel_fault_site =           \
          ::flexrel::fault::Registry::Global().GetSite(name);       \
      flexrel_fault_site->MaybeInject();                            \
    }                                                               \
  } while (0)

}  // namespace fault
}  // namespace flexrel

#endif  // FLEXREL_UTIL_FAULT_H_
