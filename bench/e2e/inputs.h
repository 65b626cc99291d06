// Seeded input generators of the end-to-end benchmark.
//
// Everything a workload feeds the library is made here from the run's seed:
// the employee relations, the flexdb texts of the migration jobs, the query
// texts and the mutation batches. The generators use their own PRNG and
// build schemes and EADs through the public FlexibleScheme / ExplicitAD
// constructors only, so no change to the library (its Rng, its workload
// generators, its writer) can change what the benchmark measures.

#ifndef FLEXREL_BENCH_E2E_INPUTS_H_
#define FLEXREL_BENCH_E2E_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/flexible_relation.h"

namespace e2e {

using flexrel::AttrId;
using flexrel::Tuple;
using flexrel::Value;

inline void AppendPart(std::string* out, std::string_view s) { out->append(s); }
template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
void AppendPart(std::string* out, T v) {
  out->append(std::to_string(v));
}

/// Concatenates strings and integers by appending (GCC 12 misreports
/// `"literal" + std::string` under -O3 as a restrict violation).
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  (AppendPart(&out, parts), ...);
  return out;
}

/// SplitMix64.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Independent stream `stream` of `seed` (setup, warm-up, timed ops and
/// checks each draw from their own, so one never shifts another).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Digests that depend only on attribute ids and values, never on library
/// hashing. Relation ids are stable because every catalog here is interned
/// in generator order.
uint64_t Mix(uint64_t h, uint64_t v);
/// Order-insensitive digest of a row multiset (query answers).
uint64_t HashRowSet(const std::vector<Tuple>& rows);
/// Order-sensitive digest of a row vector (relation state).
uint64_t HashRowVector(const std::vector<Tuple>& rows);
uint64_t HashString(const std::string& s);

/// The employee relation of index-read, analytic and mutate-read: id,
/// jobtype, `commons` common attributes and `variants` x `attrs_per_variant`
/// variant attributes, all integers uniform over [0, 2^16), with the jobtype
/// EAD choosing exactly one variant block per tuple. Heap-allocated because
/// the relation's type checker points into `catalog`.
struct Employees {
  flexrel::AttrCatalog catalog;
  flexrel::FlexibleScheme scheme;
  std::vector<flexrel::ExplicitAD> eads;
  std::vector<std::pair<AttrId, flexrel::Domain>> domains;
  flexrel::FlexibleRelation relation;

  AttrId id = 0;
  AttrId jobtype = 0;
  std::vector<AttrId> common;
  std::vector<std::vector<AttrId>> variant_attrs;
  std::vector<Value> jobtypes;
};

/// Scheme, domains and EAD over an empty relation.
std::unique_ptr<Employees> MakeEmployees(size_t variants,
                                         size_t attrs_per_variant,
                                         size_t commons);

/// `n` employees with ids 0..n-1 and uniformly drawn variants.
std::vector<Tuple> MakeEmployeeRows(const Employees& e, size_t n, Prng* prng);

/// The four selective query shapes index-read mixes in equal parts.
enum class IndexQuery { kPoint, kCommonIn, kVariantEq, kGuardedJobtype };
constexpr int kIndexQueryKinds = 4;

/// Query text of `kind`. Literals come from random rows of `rows`, so every
/// answer is non-empty when the query is drawn.
std::string MakeIndexQuery(const Employees& e, const std::vector<Tuple>& rows,
                           IndexQuery kind, Prng* prng);

/// analytic's scans no index can answer: a guarded variant-attribute range
/// (`guarded`, 12.5-25% of one variant) or a common-attribute range
/// (6.25-12.5% of all rows). The narrow selectivity bands keep op cost from
/// depending on which literals a seed draws.
std::string MakeRangeQuery(const Employees& e, bool guarded, Prng* prng);

/// mutate-read's burst sizes for one cycle of 20 rounds, shuffled: 1 op
/// (x8), 8 (x6), 64 (x5), 512 (x1). The fixed 40/30/25/5 mix keeps the
/// median round inside the 8-op population and p90 inside the 64-op one;
/// neither sits on the edge between two burst sizes, where it would jump
/// between populations from seed to seed.
std::vector<size_t> BurstCycle(Prng* prng);

/// One mutate-read batch of `burst` ops over a relation of `rows.size()`
/// rows; each op a fresh-id insert (40%), a footnote-3 jobtype flip with the
/// new variant's attributes as fill (30%), or a common0 update (30%). Valid
/// by construction. `next_id` supplies and advances the fresh ids.
std::vector<flexrel::FlexibleRelation::Mutation> MakeBatch(
    const Employees& e, const std::vector<Tuple>& rows, size_t burst,
    int64_t* next_id, Prng* prng);

/// The migrate workload's input: a flexdb text written by the benchmark
/// itself (not by the library's writer). Employee-style scheme with a
/// jobtype EAD over 4 variants x 3 attributes and 9 common attributes
/// c0..c8 drawn Zipf(1.1) over 16 values, except that c(3i+2) is a fixed
/// random function of (c(3i), c(3i+1)) -- three planted FDs.
struct MigrateInput {
  std::string text;
  size_t rows = 0;
};
constexpr int kPlantedFds = 3;
MigrateInput MakeMigrateInput(size_t rows, Prng* prng);

}  // namespace e2e

#endif  // FLEXREL_BENCH_E2E_INPUTS_H_
