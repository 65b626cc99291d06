// Shared randomized instance / workload generators for the engine test
// suites. One home for the soak-value distributions, the random flexible
// instances the discovery suites cross-validate on (planted-FD / Zipfian
// shapes included), the employee-workload mutation step the eval and
// incremental soaks both drive, and the code-column comparisons the soaks
// check maintained columns against their rebuild oracle with. Everything is driven by an explicit Rng so suites
// stay replayable through tests/test_seed.h.

#ifndef FLEXREL_TESTS_ENGINE_TEST_UTIL_H_
#define FLEXREL_TESTS_ENGINE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/dependency_set.h"
#include "engine/dictionary.h"
#include "engine/pli.h"
#include "relational/tuple.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace flexrel {
namespace testutil {

/// The soak value mix: fat clusters (few small ints / short strings), an
/// explicit-null arm (null equals null, so nulls cluster), and a
/// mostly-unique tail — every PLI code path in one distribution.
inline Value RandomSoakValue(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Value::Int(rng->UniformInt(0, 4));  // few values -> fat clusters
    case 1:
      return Value::Str(StrCat("s", rng->UniformInt(0, 2)));
    case 2:
      return Value::Null();  // explicit null: clusters under the Null key
    default:
      return Value::Int(rng->UniformInt(0, 1000));  // mostly-unique tail
  }
}

/// A flexible tuple over `attrs`: each attribute present with p = 0.75, so
/// presence patterns vary (the flexible-relation premise).
inline Tuple RandomSoakTuple(const std::vector<AttrId>& attrs, Rng* rng) {
  Tuple t;
  for (AttrId a : attrs) {
    if (rng->Bernoulli(0.75)) t.Set(a, RandomSoakValue(rng));
  }
  return t;
}

/// {0, 1, ..., n-1} as an AttrSet.
inline AttrSet FullUniverse(size_t n) {
  AttrSet u;
  for (size_t i = 0; i < n; ++i) u.Insert(static_cast<AttrId>(i));
  return u;
}

/// A random flexible instance: `n` tuples over attributes [0, num_attrs),
/// each attribute present with probability `density`, int values in
/// [0, spread]. Deduplicated and sorted, so it doubles as a set-semantics
/// relation snapshot.
inline std::vector<Tuple> RandomInstance(Rng* rng, size_t n, AttrId num_attrs,
                                         double density, int64_t spread) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    Tuple t;
    for (AttrId a = 0; a < num_attrs; ++a) {
      if (rng->Bernoulli(density)) {
        t.Set(a, Value::Int(rng->UniformInt(0, spread)));
      }
    }
    rows.push_back(std::move(t));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// The employee-workload shape the eval and incremental soaks share:
/// `num_variants` = 0 derives the variant count from the seed (2..4), as
/// the cross-validation sweeps do.
inline EmployeeConfig SoakEmployeeConfig(uint64_t seed, size_t rows,
                                         size_t num_variants = 0) {
  EmployeeConfig config;
  config.num_variants = num_variants != 0 ? num_variants : 2 + seed % 3;
  config.attrs_per_variant = 2;
  config.rows = rows;
  config.seed = seed;
  return config;
}

struct EmployeeMutationOutcome {
  Status status;       ///< first unexpected failure, OK otherwise
  bool inserted = false;     ///< the insert arm ran and was accepted
  bool type_changed = false; ///< the update arm produced a presence delta
};

/// One random mutation against the generated employee relation — the step
/// the eval and incremental soaks both drive. `kind` < 0 flips a coin;
/// 0 forces the checked insert (duplicates bounce off set semantics and
/// count as success); 1 forces a jobtype flip, the footnote-3 type change
/// whose delta removes the old variant's attributes and pulls the new
/// variant's from a random fill tuple.
inline EmployeeMutationOutcome ApplyRandomEmployeeMutation(
    EmployeeWorkload* workload, Rng* rng, int kind = -1) {
  EmployeeMutationOutcome out;
  if (kind < 0) kind = rng->Bernoulli(0.5) ? 0 : 1;
  if (kind == 0) {
    Status s = workload->relation.Insert(RandomEmployee(*workload, rng));
    if (s.ok()) {
      out.inserted = true;
    } else if (s.code() != StatusCode::kAlreadyExists) {
      out.status = s;
    }
    return out;
  }
  size_t row = rng->Index(workload->relation.size());
  int variant =
      static_cast<int>(rng->Index(workload->jobtype_values.size()));
  Tuple fill = RandomEmployee(*workload, rng, variant);
  auto delta = workload->relation.Update(
      row, workload->jobtype_attr, workload->jobtype_values[variant], fill);
  if (!delta.ok()) {
    out.status = delta.status();
    return out;
  }
  out.type_changed =
      !delta.value().to_add.empty() || !delta.value().to_remove.empty();
  return out;
}

/// What a code column means, independent of the codes it assigns: value ->
/// ascending rows carrying it (dead codes skipped). Two columns over the
/// same instance may number values differently (intern order,
/// re-interning) and still describe the same instance.
using DecodedColumn =
    std::unordered_map<Value, std::vector<CodeColumn::RowId>, ValueHash>;
inline DecodedColumn Decode(const CodeColumn& column) {
  DecodedColumn out;
  for (CodeColumn::Code c = 0; c < column.code_bound(); ++c) {
    if (!column.Bucket(c).empty()) {
      out.emplace(column.ValueOf(c), column.Bucket(c));
    }
  }
  return out;
}

/// `patched` describes the same instance as `oracle` (a from-scratch
/// CodeColumn::Build, or a rebuild cache's column): both are internally
/// coherent, cover the same rows, and decode to the same value -> rows
/// map. Codes may differ.
inline ::testing::AssertionResult ColumnsDecodeEqual(const CodeColumn& patched,
                                                     const CodeColumn& oracle) {
  std::string error;
  if (!patched.CheckInvariants(&error)) {
    return ::testing::AssertionFailure() << "patched column: " << error;
  }
  if (!oracle.CheckInvariants(&error)) {
    return ::testing::AssertionFailure() << "oracle column: " << error;
  }
  if (patched.num_rows() != oracle.num_rows()) {
    return ::testing::AssertionFailure()
           << "rows " << patched.num_rows() << " vs " << oracle.num_rows();
  }
  if (Decode(patched) != Decode(oracle)) {
    return ::testing::AssertionFailure() << "decoded value -> rows differ";
  }
  return ::testing::AssertionSuccess();
}

/// The column <-> cluster consistency a single-attribute partition and its
/// code column keep at every quiescent point: every cluster is exactly one
/// code's bucket, every bucket of >= 2 rows is a cluster, and the defined
/// row counts agree. This is what makes the column usable as the probe of
/// every intersection with the attribute.
inline ::testing::AssertionResult ColumnMatchesPartition(
    const CodeColumn& column, const Pli& pli) {
  if (column.num_rows() != pli.num_rows()) {
    return ::testing::AssertionFailure()
           << "column rows " << column.num_rows() << " vs partition rows "
           << pli.num_rows();
  }
  if (column.defined() != pli.defined_rows()) {
    return ::testing::AssertionFailure()
           << "column defines " << column.defined() << " rows, partition "
           << pli.defined_rows();
  }
  size_t fat_buckets = 0;
  for (CodeColumn::Code c = 0; c < column.code_bound(); ++c) {
    if (column.Bucket(c).size() >= 2) ++fat_buckets;
  }
  if (fat_buckets != pli.num_clusters()) {
    return ::testing::AssertionFailure()
           << fat_buckets << " buckets of >= 2 rows vs "
           << pli.num_clusters() << " clusters";
  }
  for (size_t i = 0; i < pli.num_clusters(); ++i) {
    const Pli::ClusterView cluster = pli.cluster(i);
    const CodeColumn::Code code = column.codes()[cluster.front()];
    if (code == CodeColumn::kMissingCode || !(cluster == column.Bucket(code))) {
      return ::testing::AssertionFailure()
             << "cluster " << i << " is not the bucket of its front's code";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Zipf(s) sampler over ranks [0, n): rank r with weight 1/(r+1)^s. The
/// skewed-cluster shape — a few huge partitions, a long unique-ish tail —
/// that uniform soak values never produce.
class ZipfianDist {
 public:
  explicit ZipfianDist(size_t n, double s = 1.1) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(Rng* rng) const {
    double u = rng->UniformDouble();
    return std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  }

 private:
  std::vector<double> cdf_;
};

/// An instance with dependencies planted by construction, the discovery
/// suites' skewed shape: attributes draw Zipfian-skewed values
/// from a small domain (fat clusters -> real partition work), and planted
/// FD i makes attribute 3i+2 a function of attributes {3i, 3i+1}, so
/// {3i, 3i+1} --func--> 3i+2 holds exactly. With `absence` > 0,
/// non-planted attributes go missing at that rate (planted attributes stay
/// present so the plants survive), which gives the AD pass genuine
/// presence-disagreement evidence too.
struct PlantedFdInstance {
  std::vector<Tuple> rows;
  AttrSet universe;
  std::vector<FuncDep> planted;
};

inline PlantedFdInstance MakePlantedFdInstance(Rng* rng, size_t num_rows,
                                               AttrId num_attrs,
                                               size_t num_planted,
                                               int64_t domain = 16,
                                               double absence = 0.0) {
  PlantedFdInstance out;
  out.universe = FullUniverse(num_attrs);
  AttrSet planted_attrs;
  for (size_t p = 0; p < num_planted && 3 * p + 2 < num_attrs; ++p) {
    AttrId base = static_cast<AttrId>(3 * p);
    out.planted.push_back(
        FuncDep{AttrSet{base, base + 1}, AttrSet::Of(base + 2)});
    planted_attrs.Insert(base);
    planted_attrs.Insert(base + 1);
    planted_attrs.Insert(base + 2);
  }
  ZipfianDist dist(static_cast<size_t>(domain));
  for (size_t i = 0; i < num_rows; ++i) {
    Tuple t;
    for (AttrId a = 0; a < num_attrs; ++a) {
      if (absence > 0.0 && !planted_attrs.Contains(a) &&
          rng->Bernoulli(absence)) {
        continue;
      }
      t.Set(a, Value::Int(static_cast<int64_t>(dist.Sample(rng))));
    }
    for (const FuncDep& fd : out.planted) {
      const std::vector<AttrId>& lhs = fd.lhs.ids();
      int64_t v0 = t.Get(lhs[0])->as_int();
      int64_t v1 = t.Get(lhs[1])->as_int();
      t.Set(fd.rhs.ids().front(), Value::Int((v0 * 7 + v1 * 13) % domain));
    }
    out.rows.push_back(std::move(t));
  }
  return out;
}

}  // namespace testutil
}  // namespace flexrel

#endif  // FLEXREL_TESTS_ENGINE_TEST_UTIL_H_
