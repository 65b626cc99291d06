// Synthetic workload generators.
//
// The paper motivates flexible relations with two running examples — the
// employee registry whose jobtype determines variant attributes (Section 1,
// Example 2) and the postal/electronic address (Section 1, Example 1's
// abstract shape). Both are generated here in parameterised form so the
// benchmarks can sweep scale (#variants, #attributes, #rows) far beyond the
// paper's illustrations, plus fully random schemes/dependency sets for the
// property tests.

#ifndef FLEXREL_WORKLOAD_GENERATOR_H_
#define FLEXREL_WORKLOAD_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/flexible_relation.h"
#include "util/rng.h"

namespace flexrel {

/// Parameters of the employee workload.
struct EmployeeConfig {
  size_t num_variants = 3;       ///< jobtypes ('secretary', 'salesman', ...)
  size_t attrs_per_variant = 2;  ///< variant-specific attributes each
  size_t num_common_attrs = 2;   ///< beyond id and jobtype (e.g. salary)
  size_t rows = 1000;
  /// Fraction of additionally generated *invalid* tuples: shape-admissible
  /// but violating the jobtype EAD (the Section-3.1 adversary).
  double invalid_fraction = 0.0;
  uint64_t seed = 42;
};

/// A generated employee database. Heap-allocated because the contained
/// catalog must stay put (the type checker holds a pointer to it).
struct EmployeeWorkload {
  AttrCatalog catalog;
  FlexibleScheme scheme;
  std::vector<ExplicitAD> eads;  ///< exactly one: the jobtype EAD
  std::vector<std::pair<AttrId, Domain>> domains;
  FlexibleRelation relation;     ///< valid tuples, type-checked on insert

  AttrId id_attr = 0;
  AttrId jobtype_attr = 0;
  AttrSet common_attrs;          ///< id, jobtype, extras
  std::vector<Value> jobtype_values;  ///< one per variant

  /// EAD-violating tuples whose attribute combination the scheme admits
  /// (they exercise exactly the check only ADs can perform).
  std::vector<Tuple> invalid_tuples;
};

/// Builds the employee workload; never fails for sane configs, returns the
/// construction error otherwise.
Result<std::unique_ptr<EmployeeWorkload>> MakeEmployeeWorkload(
    const EmployeeConfig& config);

/// A generated address book exercising the Section-1 shapes: mandatory
/// ZipCode/Town, a disjoint POBox-vs-Street(+optional HouseNumber) part, and
/// a non-disjoint electronic part (1..3 of tel/fax/email).
struct AddressWorkload {
  AttrCatalog catalog;
  FlexibleScheme scheme;
  FlexibleRelation relation;
  AttrId zip, town, pobox, street, houseno, tel, fax, email;
};

Result<std::unique_ptr<AddressWorkload>> MakeAddressWorkload(size_t rows,
                                                             uint64_t seed);

/// Random flexible scheme over fresh attributes interned into `catalog`:
/// a tree of depth <= `depth` with <= `fanout` components per group and
/// random cardinality bounds. Useful for DNF property sweeps.
FlexibleScheme RandomScheme(AttrCatalog* catalog, Rng* rng, size_t depth,
                            size_t fanout, const std::string& prefix);

/// Random dependency set over `universe`: `num_fds` FDs and `num_ads` ADs
/// with small random sides.
DependencySet RandomDependencies(const AttrSet& universe, Rng* rng,
                                 size_t num_fds, size_t num_ads);

/// Random instance of `workload.scheme` + jobtype EAD: draws a variant, fills
/// values from the domains. `force_variant` < 0 draws uniformly.
Tuple RandomEmployee(const EmployeeWorkload& workload, Rng* rng,
                     int force_variant = -1);

/// Mines the dependency set the instance satisfies through the partition
/// engine (`options` sets the bounds) and installs it as the relation's
/// declared Σ, replacing what was there. This is how generated and migrated
/// relations come to carry instance-satisfied dependency sets that the
/// optimizer and propagation layers can trust.
Status InstallDiscoveredDeps(FlexibleRelation* relation,
                             const DiscoveryOptions& options = {});

}  // namespace flexrel

#endif  // FLEXREL_WORKLOAD_GENERATOR_H_
