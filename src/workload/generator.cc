#include "workload/generator.h"

#include <algorithm>

#include "engine/parallel_discovery.h"
#include "util/string_util.h"

namespace flexrel {

Result<std::unique_ptr<EmployeeWorkload>> MakeEmployeeWorkload(
    const EmployeeConfig& config) {
  if (config.num_variants == 0) {
    return Status::InvalidArgument("employee workload needs >= 1 variant");
  }
  auto w = std::make_unique<EmployeeWorkload>();
  Rng rng(config.seed);

  // Attributes: id, jobtype, common extras, then per-variant attributes.
  w->id_attr = w->catalog.Intern("id");
  w->jobtype_attr = w->catalog.Intern("jobtype");
  w->common_attrs.Insert(w->id_attr);
  w->common_attrs.Insert(w->jobtype_attr);
  std::vector<AttrId> extras;
  for (size_t i = 0; i < config.num_common_attrs; ++i) {
    AttrId a = w->catalog.Intern(StrCat("common", i));
    extras.push_back(a);
    w->common_attrs.Insert(a);
  }

  std::vector<Value> jobtypes;
  for (size_t v = 0; v < config.num_variants; ++v) {
    jobtypes.push_back(Value::Str(StrCat("jobtype", v)));
  }
  w->jobtype_values = jobtypes;

  // Domains.
  w->domains.push_back({w->id_attr, Domain::Any(ValueType::kInt)});
  FLEXREL_ASSIGN_OR_RETURN(Domain jobtype_domain,
                           Domain::Enumerated(jobtypes));
  w->domains.push_back({w->jobtype_attr, jobtype_domain});
  for (AttrId a : extras) {
    w->domains.push_back({a, Domain::Any(ValueType::kInt)});
  }

  // Variant attribute blocks and the EAD.
  AttrSet determined;
  std::vector<EadVariant> variants;
  std::vector<FlexibleScheme> blocks;
  std::vector<std::vector<AttrId>> variant_attr_ids;
  for (size_t v = 0; v < config.num_variants; ++v) {
    AttrSet block;
    std::vector<FlexibleScheme> leaves;
    std::vector<AttrId> ids;
    for (size_t k = 0; k < config.attrs_per_variant; ++k) {
      AttrId a = w->catalog.Intern(StrCat("v", v, "_attr", k));
      block.Insert(a);
      determined.Insert(a);
      ids.push_back(a);
      leaves.push_back(FlexibleScheme::Attr(a));
      w->domains.push_back({a, Domain::Any(ValueType::kInt)});
    }
    variant_attr_ids.push_back(ids);
    variants.push_back(
        EadVariant{ConditionSet::Single(w->jobtype_attr, jobtypes[v]), block});
    if (!leaves.empty()) {
      uint32_t n = static_cast<uint32_t>(leaves.size());
      FLEXREL_ASSIGN_OR_RETURN(FlexibleScheme b,
                               FlexibleScheme::Group(n, n, std::move(leaves)));
      blocks.push_back(std::move(b));
    }
  }
  FLEXREL_ASSIGN_OR_RETURN(
      ExplicitAD ead,
      ExplicitAD::Make(AttrSet::Of(w->jobtype_attr), determined,
                       std::move(variants)));
  w->eads.push_back(ead);

  // Scheme: all common attributes plus (any) one variant block; structurally
  // <0, n> over blocks, with the EAD pinning the actual one.
  std::vector<FlexibleScheme> components;
  for (AttrId a : w->common_attrs) components.push_back(FlexibleScheme::Attr(a));
  if (!blocks.empty()) {
    uint32_t n = static_cast<uint32_t>(blocks.size());
    FLEXREL_ASSIGN_OR_RETURN(FlexibleScheme region,
                             FlexibleScheme::Group(0, n, std::move(blocks)));
    components.push_back(std::move(region));
  }
  uint32_t total = static_cast<uint32_t>(components.size());
  FLEXREL_ASSIGN_OR_RETURN(
      FlexibleScheme scheme,
      FlexibleScheme::Group(total, total, std::move(components)));
  w->scheme = scheme;

  w->relation = FlexibleRelation::Base("employees", &w->catalog, w->scheme,
                                       w->eads, w->domains);

  // Valid rows.
  for (size_t i = 0; i < config.rows; ++i) {
    size_t v = rng.Index(config.num_variants);
    Tuple t;
    t.Set(w->id_attr, Value::Int(static_cast<int64_t>(i)));
    t.Set(w->jobtype_attr, jobtypes[v]);
    for (AttrId a : extras) t.Set(a, Value::Int(rng.UniformInt(0, 1 << 16)));
    for (AttrId a : variant_attr_ids[v]) {
      t.Set(a, Value::Int(rng.UniformInt(0, 1 << 16)));
    }
    FLEXREL_RETURN_IF_ERROR(w->relation.Insert(t));
  }

  // Invalid rows: right shape, wrong variant pairing (only detectable via
  // the EAD). Requires >= 2 variants with attributes.
  size_t num_invalid = static_cast<size_t>(
      static_cast<double>(config.rows) * config.invalid_fraction);
  if (num_invalid > 0 && config.num_variants >= 2 &&
      config.attrs_per_variant > 0) {
    for (size_t i = 0; i < num_invalid; ++i) {
      size_t claimed = rng.Index(config.num_variants);
      size_t actual = (claimed + 1 + rng.Index(config.num_variants - 1)) %
                      config.num_variants;
      Tuple t;
      t.Set(w->id_attr, Value::Int(static_cast<int64_t>(1u << 24) +
                                   static_cast<int64_t>(i)));
      t.Set(w->jobtype_attr, jobtypes[claimed]);
      for (AttrId a : extras) t.Set(a, Value::Int(rng.UniformInt(0, 1 << 16)));
      for (AttrId a : variant_attr_ids[actual]) {
        t.Set(a, Value::Int(rng.UniformInt(0, 1 << 16)));
      }
      w->invalid_tuples.push_back(std::move(t));
    }
  }
  return w;
}

Result<std::unique_ptr<AddressWorkload>> MakeAddressWorkload(size_t rows,
                                                             uint64_t seed) {
  auto w = std::make_unique<AddressWorkload>();
  Rng rng(seed);
  w->zip = w->catalog.Intern("ZipCode");
  w->town = w->catalog.Intern("Town");
  w->pobox = w->catalog.Intern("PostOfficeBoxNumber");
  w->street = w->catalog.Intern("Street");
  w->houseno = w->catalog.Intern("HouseNumber");
  w->tel = w->catalog.Intern("tel-number");
  w->fax = w->catalog.Intern("FAX-number");
  w->email = w->catalog.Intern("email-address");

  // Street with optional house number: <2, 2, {Street, <0, 1, {HouseNumber}>}>.
  FLEXREL_ASSIGN_OR_RETURN(FlexibleScheme houseno_opt,
                           FlexibleScheme::Optional(FlexibleScheme::Attr(w->houseno)));
  std::vector<FlexibleScheme> street_parts;
  street_parts.push_back(FlexibleScheme::Attr(w->street));
  street_parts.push_back(std::move(houseno_opt));
  FLEXREL_ASSIGN_OR_RETURN(FlexibleScheme street_block,
                           FlexibleScheme::Group(2, 2, std::move(street_parts)));
  // Town-local part: POBox xor street block.
  std::vector<FlexibleScheme> local_parts;
  local_parts.push_back(FlexibleScheme::Attr(w->pobox));
  local_parts.push_back(std::move(street_block));
  FLEXREL_ASSIGN_OR_RETURN(FlexibleScheme local,
                           FlexibleScheme::DisjointUnion(std::move(local_parts)));
  // Electronic communication: 1..3 of {tel, fax, email}.
  std::vector<FlexibleScheme> electronic_parts;
  electronic_parts.push_back(FlexibleScheme::Attr(w->tel));
  electronic_parts.push_back(FlexibleScheme::Attr(w->fax));
  electronic_parts.push_back(FlexibleScheme::Attr(w->email));
  FLEXREL_ASSIGN_OR_RETURN(
      FlexibleScheme electronic,
      FlexibleScheme::NonDisjointUnion(std::move(electronic_parts)));

  std::vector<FlexibleScheme> top;
  top.push_back(FlexibleScheme::Attr(w->zip));
  top.push_back(FlexibleScheme::Attr(w->town));
  top.push_back(std::move(local));
  top.push_back(std::move(electronic));
  FLEXREL_ASSIGN_OR_RETURN(FlexibleScheme scheme,
                           FlexibleScheme::Group(4, 4, std::move(top)));
  w->scheme = scheme;

  w->relation = FlexibleRelation::Base("addresses", &w->catalog, w->scheme,
                                       {}, {});
  for (size_t i = 0; i < rows; ++i) {
    Tuple t;
    t.Set(w->zip, Value::Int(rng.UniformInt(10000, 99999)));
    t.Set(w->town, Value::Str(StrCat("town", rng.UniformInt(0, 999))));
    if (rng.Bernoulli(0.3)) {
      t.Set(w->pobox, Value::Int(rng.UniformInt(1, 9999)));
    } else {
      t.Set(w->street, Value::Str(StrCat("street", rng.UniformInt(0, 999))));
      if (rng.Bernoulli(0.8)) {
        t.Set(w->houseno, Value::Int(rng.UniformInt(1, 300)));
      }
    }
    // 1..3 electronic attributes.
    bool any = false;
    while (!any) {
      if (rng.Bernoulli(0.6)) {
        t.Set(w->tel, Value::Int(rng.UniformInt(1000000, 9999999)));
        any = true;
      }
      if (rng.Bernoulli(0.4)) {
        t.Set(w->fax, Value::Int(rng.UniformInt(1000000, 9999999)));
        any = true;
      }
      if (rng.Bernoulli(0.5)) {
        t.Set(w->email, Value::Str(StrCat("user", i, "@example.org")));
        any = true;
      }
    }
    Status s = w->relation.Insert(t);
    // Duplicate draws are possible at tiny row counts; skip them.
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
  }
  return w;
}

FlexibleScheme RandomScheme(AttrCatalog* catalog, Rng* rng, size_t depth,
                            size_t fanout, const std::string& prefix) {
  if (depth == 0 || (depth > 0 && rng->Bernoulli(0.25))) {
    return FlexibleScheme::Attr(
        catalog->Intern(StrCat(prefix, "_a", rng->UniformInt(0, 1 << 30))));
  }
  size_t k = 1 + rng->Index(std::max<size_t>(fanout, 1));
  std::vector<FlexibleScheme> components;
  for (size_t i = 0; i < k; ++i) {
    components.push_back(RandomScheme(catalog, rng, depth - 1, fanout,
                                      StrCat(prefix, "_", i)));
  }
  uint32_t hi = 1 + static_cast<uint32_t>(rng->Index(k));
  uint32_t lo = static_cast<uint32_t>(rng->Index(hi + 1));
  auto group = FlexibleScheme::Group(lo, hi, std::move(components));
  // Construction can only fail on duplicate attributes, which the unique
  // prefixes rule out.
  return std::move(group).value();
}

DependencySet RandomDependencies(const AttrSet& universe, Rng* rng,
                                 size_t num_fds, size_t num_ads) {
  DependencySet sigma;
  std::vector<AttrId> pool(universe.ids());
  if (pool.empty()) return sigma;
  auto random_subset = [&](size_t max_size) {
    size_t k = 1 + rng->Index(std::min(max_size, pool.size()));
    std::vector<size_t> idx = rng->Sample(pool.size(), k);
    std::vector<AttrId> ids;
    for (size_t i : idx) ids.push_back(pool[i]);
    return AttrSet::FromIds(std::move(ids));
  };
  for (size_t i = 0; i < num_fds; ++i) {
    sigma.AddFd(FuncDep{random_subset(3), random_subset(3)});
  }
  for (size_t i = 0; i < num_ads; ++i) {
    sigma.AddAd(AttrDep{random_subset(3), random_subset(3)});
  }
  return sigma;
}

Tuple RandomEmployee(const EmployeeWorkload& workload, Rng* rng,
                     int force_variant) {
  size_t v = force_variant >= 0
                 ? static_cast<size_t>(force_variant)
                 : rng->Index(workload.jobtype_values.size());
  Tuple t;
  t.Set(workload.id_attr, Value::Int(rng->UniformInt(0, 1ll << 40)));
  t.Set(workload.jobtype_attr, workload.jobtype_values[v]);
  for (AttrId a : workload.common_attrs) {
    if (a == workload.id_attr || a == workload.jobtype_attr) continue;
    t.Set(a, Value::Int(rng->UniformInt(0, 1 << 16)));
  }
  const ExplicitAD& ead = workload.eads.front();
  for (AttrId a : ead.variants()[v].then) {
    t.Set(a, Value::Int(rng->UniformInt(0, 1 << 16)));
  }
  return t;
}

Status InstallDiscoveredDeps(FlexibleRelation* relation,
                             const DiscoveryOptions& options) {
  // Discovery emits only what its own column scans validated, so the result
  // is installed as is; tests check it against the brute-force reference.
  *relation->mutable_deps() = EngineDiscoverDependencies(
      relation->rows(), relation->ActiveAttrs(), options);
  return Status::OK();
}

}  // namespace flexrel
