#include "inputs.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace e2e {

using flexrel::AttrSet;
using flexrel::Domain;
using flexrel::EadVariant;
using flexrel::ExplicitAD;
using flexrel::FlexibleRelation;
using flexrel::FlexibleScheme;
using flexrel::ValueType;

namespace {

constexpr int64_t kValueRange = 1 << 16;

// Generator-side construction cannot fail for the fixed shapes used here;
// a failure is a bug in this file, reported loudly.
template <typename T>
T Must(flexrel::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "input generation failed (%s): %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

uint64_t Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0x6E756C6Cull;
    case ValueType::kBool:
      return Mix(1, v.as_bool() ? 1 : 0);
    case ValueType::kInt:
      return Mix(2, static_cast<uint64_t>(v.as_int()));
    case ValueType::kDouble: {
      double d = v.as_double();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      return Mix(3, bits);
    }
    case ValueType::kString:
      return Mix(4, HashString(v.as_string()));
  }
  return 0;
}

size_t VariantOf(const Employees& e, const Tuple& t) {
  const Value* job = t.Get(e.jobtype);
  for (size_t v = 0; v < e.jobtypes.size(); ++v) {
    if (job != nullptr && *job == e.jobtypes[v]) return v;
  }
  std::fprintf(stderr, "employee row without a known jobtype\n");
  std::exit(2);
}

const Tuple& RandomRow(const std::vector<Tuple>& rows, Prng* prng) {
  return rows[prng->Below(rows.size())];
}

int64_t IntField(const Tuple& t, AttrId attr) { return t.Get(attr)->as_int(); }

uint64_t HashTuple(const Tuple& t) {
  uint64_t h = 0x5475706C65ull;
  for (const auto& [attr, value] : t.fields()) {
    h = Mix(Mix(h, attr), HashValue(value));
  }
  return h;
}

// Zipf(s) over {0, ..., n-1}: value k has weight 1 / (k+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double total = 0;
    for (size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Draw(Prng* prng) const {
    double u = prng->Unit();
    size_t k = 0;
    while (k + 1 < cdf_.size() && cdf_[k] <= u) ++k;
    return k;
  }

 private:
  std::vector<double> cdf_;
};

// One well-typed employee of `variant` with the given id.
Tuple MakeEmployee(const Employees& e, int64_t id, size_t variant,
                   Prng* prng) {
  Tuple t;
  t.Set(e.id, Value::Int(id));
  t.Set(e.jobtype, e.jobtypes[variant]);
  for (AttrId a : e.common) {
    t.Set(a, Value::Int(static_cast<int64_t>(prng->Below(kValueRange))));
  }
  for (AttrId a : e.variant_attrs[variant]) {
    t.Set(a, Value::Int(static_cast<int64_t>(prng->Below(kValueRange))));
  }
  return t;
}

}  // namespace

uint64_t Prng::Next() {
  state_ += 0x9E3779B97F4A7C15ull;
  return Finalize(state_);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Finalize(seed * 0x2545F4914F6CDD1Dull + stream);
}

uint64_t Mix(uint64_t h, uint64_t v) {
  return Finalize(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2)));
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001B3ull;
  return h;
}

uint64_t HashRowSet(const std::vector<Tuple>& rows) {
  uint64_t sum = 0;
  for (const Tuple& t : rows) sum += HashTuple(t);
  return Mix(sum, rows.size());
}

uint64_t HashRowVector(const std::vector<Tuple>& rows) {
  uint64_t h = rows.size();
  for (const Tuple& t : rows) h = Mix(h, HashTuple(t));
  return h;
}

std::unique_ptr<Employees> MakeEmployees(size_t variants,
                                         size_t attrs_per_variant,
                                         size_t commons) {
  auto e = std::make_unique<Employees>();
  e->id = e->catalog.Intern("id");
  e->jobtype = e->catalog.Intern("jobtype");
  for (size_t v = 0; v < variants; ++v) {
    e->jobtypes.push_back(Value::Str(Cat("jobtype", v)));
  }
  e->domains.push_back({e->id, Domain::Any(ValueType::kInt)});
  e->domains.push_back(
      {e->jobtype, Must(Domain::Enumerated(e->jobtypes), "jobtype domain")});

  std::vector<FlexibleScheme> components = {FlexibleScheme::Attr(e->id),
                                            FlexibleScheme::Attr(e->jobtype)};
  for (size_t c = 0; c < commons; ++c) {
    AttrId a = e->catalog.Intern(Cat("common", c));
    e->common.push_back(a);
    e->domains.push_back({a, Domain::Any(ValueType::kInt)});
    components.push_back(FlexibleScheme::Attr(a));
  }

  AttrSet determined;
  std::vector<EadVariant> ead_variants;
  std::vector<FlexibleScheme> blocks;
  for (size_t v = 0; v < variants; ++v) {
    AttrSet block;
    std::vector<FlexibleScheme> leaves;
    std::vector<AttrId> ids;
    for (size_t k = 0; k < attrs_per_variant; ++k) {
      AttrId a = e->catalog.Intern(Cat("v", v, "_attr", k));
      block.Insert(a);
      determined.Insert(a);
      ids.push_back(a);
      leaves.push_back(FlexibleScheme::Attr(a));
      e->domains.push_back({a, Domain::Any(ValueType::kInt)});
    }
    e->variant_attrs.push_back(ids);
    ead_variants.push_back(EadVariant{
        flexrel::ConditionSet::Single(e->jobtype, e->jobtypes[v]), block});
    uint32_t n = static_cast<uint32_t>(leaves.size());
    blocks.push_back(
        Must(FlexibleScheme::Group(n, n, std::move(leaves)), "variant block"));
  }
  e->eads.push_back(Must(ExplicitAD::Make(AttrSet::Of(e->jobtype), determined,
                                          std::move(ead_variants)),
                         "jobtype EAD"));
  const uint32_t num_blocks = static_cast<uint32_t>(blocks.size());
  components.push_back(
      Must(FlexibleScheme::Group(0, num_blocks, std::move(blocks)),
           "variant region"));
  uint32_t total = static_cast<uint32_t>(components.size());
  e->scheme = Must(FlexibleScheme::Group(total, total, std::move(components)),
                   "employee scheme");
  e->relation = FlexibleRelation::Base("employees", &e->catalog, e->scheme,
                                       e->eads, e->domains);
  return e;
}

std::vector<Tuple> MakeEmployeeRows(const Employees& e, size_t n,
                                    Prng* prng) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t v = prng->Below(e.jobtypes.size());
    rows.push_back(MakeEmployee(e, static_cast<int64_t>(i), v, prng));
  }
  return rows;
}

std::string MakeIndexQuery(const Employees& e, const std::vector<Tuple>& rows,
                           IndexQuery kind, Prng* prng) {
  switch (kind) {
    case IndexQuery::kPoint:
      return Cat("SELECT * WHERE id = ", IntField(RandomRow(rows, prng), e.id));
    case IndexQuery::kCommonIn: {
      std::string q = "SELECT * WHERE common0 IN (";
      for (int i = 0; i < 3; ++i) {
        if (i > 0) q += ", ";
        q += Cat(IntField(RandomRow(rows, prng), e.common[0]));
      }
      return q + ")";
    }
    case IndexQuery::kVariantEq: {
      const Tuple& row = RandomRow(rows, prng);
      const std::vector<AttrId>& attrs = e.variant_attrs[VariantOf(e, row)];
      AttrId a = attrs[prng->Below(attrs.size())];
      return Cat("SELECT * WHERE ", e.catalog.Name(a), " = ", IntField(row, a));
    }
    case IndexQuery::kGuardedJobtype: {
      size_t v = prng->Below(e.jobtypes.size());
      return Cat("SELECT * WHERE jobtype = '", e.jobtypes[v].as_string(),
                 "' AND EXISTS(", e.catalog.Name(e.variant_attrs[v][0]), ")");
    }
  }
  return "";
}

std::string MakeRangeQuery(const Employees& e, bool guarded, Prng* prng) {
  if (guarded) {
    const std::vector<AttrId>& attrs =
        e.variant_attrs[prng->Below(e.variant_attrs.size())];
    return Cat("SELECT * WHERE ", e.catalog.Name(attrs[1]), " < ",
               kValueRange / 8 + prng->Below(kValueRange / 8), " AND EXISTS(",
               e.catalog.Name(attrs[0]), ")");
  }
  return Cat("SELECT * WHERE ", e.catalog.Name(e.common[0]), " < ",
             kValueRange / 16 + prng->Below(kValueRange / 16));
}

std::vector<size_t> BurstCycle(Prng* prng) {
  std::vector<size_t> cycle;
  for (auto [burst, count] : {std::pair<size_t, int>{1, 8}, {8, 6}, {64, 5},
                              {512, 1}}) {
    cycle.insert(cycle.end(), static_cast<size_t>(count), burst);
  }
  for (size_t i = cycle.size() - 1; i > 0; --i) {
    std::swap(cycle[i], cycle[prng->Below(i + 1)]);
  }
  return cycle;
}

std::vector<FlexibleRelation::Mutation> MakeBatch(
    const Employees& e, const std::vector<Tuple>& rows, size_t burst,
    int64_t* next_id, Prng* prng) {
  const size_t variants = e.jobtypes.size();
  std::vector<FlexibleRelation::Mutation> batch;
  batch.reserve(burst);
  for (size_t i = 0; i < burst; ++i) {
    uint64_t op = prng->Below(10);
    if (op < 4) {
      batch.push_back(FlexibleRelation::Mutation::Insert(
          MakeEmployee(e, (*next_id)++, prng->Below(variants), prng)));
    } else if (op < 7) {
      size_t index = prng->Below(rows.size());
      size_t to = (VariantOf(e, rows[index]) + 1 + prng->Below(variants - 1)) %
                  variants;
      Tuple fill;
      for (AttrId a : e.variant_attrs[to]) {
        fill.Set(a, Value::Int(static_cast<int64_t>(prng->Below(kValueRange))));
      }
      batch.push_back(FlexibleRelation::Mutation::Update(
          index, e.jobtype, e.jobtypes[to], std::move(fill)));
    } else {
      batch.push_back(FlexibleRelation::Mutation::Update(
          prng->Below(rows.size()), e.common[0],
          Value::Int(static_cast<int64_t>(prng->Below(kValueRange)))));
    }
  }
  return batch;
}

MigrateInput MakeMigrateInput(size_t rows, Prng* prng) {
  constexpr int kVariants = 4;
  constexpr int kVariantAttrs = 3;
  constexpr int kCommons = 3 * kPlantedFds;
  constexpr int kDomain = 16;
  const Zipf zipf(kDomain, 1.1);
  int planted[kPlantedFds][kDomain][kDomain];
  for (auto& table : planted) {
    for (auto& line : table) {
      for (int& cell : line) cell = static_cast<int>(prng->Below(kDomain));
    }
  }

  auto vattr = [](int v, int k) { return Cat("v", v, "_attr", k); };
  // Components: id, jobtype, the commons and the variant region.
  std::string scheme =
      Cat("<", kCommons + 3, ", ", kCommons + 3, ", {id, jobtype");
  std::string domains =
      Cat("domains ", 2 + kCommons + kVariants * kVariantAttrs,
          "\nid any int\njobtype enum ");
  for (int v = 0; v < kVariants; ++v) {
    domains += Cat(v > 0 ? "|" : "", "s:jobtype", v);
  }
  domains += "\n";
  for (int c = 0; c < kCommons; ++c) {
    scheme += Cat(", c", c);
    domains += Cat("c", c, " any int\n");
  }
  scheme += Cat(", <0, ", kVariants, ", {");
  std::string determined;
  std::string variants;
  for (int v = 0; v < kVariants; ++v) {
    std::string block;
    for (int k = 0; k < kVariantAttrs; ++k) {
      block += Cat(k > 0 ? "," : "", vattr(v, k));
      domains += Cat(vattr(v, k), " any int\n");
    }
    scheme += Cat(v > 0 ? ", " : "", "<3, 3, {", block, "}>");
    determined += Cat(v > 0 ? "," : "", block);
    variants += Cat("variant ", block, " 1\nwhen jobtype=s:jobtype", v, "\n");
  }
  scheme += "}>}>";

  MigrateInput in;
  in.rows = rows;
  in.text = Cat("flexdb 1\nname employees\nscheme ", scheme, "\n", domains,
                "eads 1\nead jobtype ", determined, " ", kVariants, "\n",
                variants, "rows ", rows, "\n");
  for (size_t r = 0; r < rows; ++r) {
    int v = static_cast<int>(prng->Below(kVariants));
    int c[kCommons];
    for (int i = 0; i < kPlantedFds; ++i) {
      c[3 * i] = static_cast<int>(zipf.Draw(prng));
      c[3 * i + 1] = static_cast<int>(zipf.Draw(prng));
      c[3 * i + 2] = planted[i][c[3 * i]][c[3 * i + 1]];
    }
    in.text += Cat("row id=i:", r, "|jobtype=s:jobtype", v);
    for (int i = 0; i < kCommons; ++i) in.text += Cat("|c", i, "=i:", c[i]);
    for (int k = 0; k < kVariantAttrs; ++k) {
      in.text += Cat("|", vattr(v, k), "=i:", zipf.Draw(prng));
    }
    in.text += "\n";
  }
  return in;
}

}  // namespace e2e
