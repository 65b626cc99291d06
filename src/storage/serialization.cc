#include "storage/serialization.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/string_util.h"

namespace flexrel {

std::string EscapeText(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    if (c == '%' || c == '|' || c == ',' || c == '=' || c <= ' ' ||
        c == 0x7f) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

Result<std::string> UnescapeText(const std::string& text) {
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out.push_back(text[i]);
      continue;
    }
    if (i + 2 >= text.size()) {
      return Status::InvalidArgument("truncated escape sequence");
    }
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    int hi = hex(text[i + 1]);
    int lo = hex(text[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("bad escape sequence");
    }
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

std::string EncodeValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "n:";
    case ValueType::kBool:
      return v.as_bool() ? "b:1" : "b:0";
    case ValueType::kInt:
      return StrCat("i:", v.as_int());
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "r:%.17g", v.as_double());
      return buf;
    }
    case ValueType::kString:
      return StrCat("s:", EscapeText(v.as_string()));
  }
  return "n:";
}

Result<Value> DecodeValue(const std::string& token) {
  if (token.size() < 2 || token[1] != ':') {
    return Status::InvalidArgument(StrCat("bad value token '", token, "'"));
  }
  std::string payload = token.substr(2);
  switch (token[0]) {
    case 'n':
      return Value::Null();
    case 'b':
      return Value::Bool(payload == "1");
    case 'i':
      try {
        return Value::Int(std::stoll(payload));
      } catch (...) {
        return Status::InvalidArgument(StrCat("bad int '", payload, "'"));
      }
    case 'r':
      try {
        return Value::Real(std::stod(payload));
      } catch (...) {
        return Status::InvalidArgument(StrCat("bad real '", payload, "'"));
      }
    case 's': {
      FLEXREL_ASSIGN_OR_RETURN(std::string text, UnescapeText(payload));
      return Value::Str(std::move(text));
    }
    default:
      return Status::InvalidArgument(
          StrCat("unknown value tag '", token[0], "'"));
  }
}

namespace {


// Parses a non-negative count, rejecting garbage instead of throwing.
Result<size_t> ParseCount(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty count");
  size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(StrCat("bad count '", text, "'"));
    }
    value = value * 10 + static_cast<size_t>(c - '0');
    if (value > (1u << 28)) {
      return Status::InvalidArgument("count too large");
    }
  }
  return value;
}

std::string EncodeAttrSet(const AttrCatalog& catalog, const AttrSet& attrs) {
  std::vector<std::string> names;
  for (AttrId a : attrs) names.push_back(EscapeText(catalog.Name(a)));
  return Join(names, ",");
}

Result<AttrSet> DecodeAttrSet(AttrCatalog* catalog, const std::string& text) {
  AttrSet out;
  if (text.empty()) return out;
  for (const std::string& part : Split(text, ',')) {
    FLEXREL_ASSIGN_OR_RETURN(std::string name, UnescapeText(part));
    out.Insert(catalog->Intern(name));
  }
  return out;
}

std::string EncodeTuple(const AttrCatalog& catalog, const Tuple& t) {
  std::vector<std::string> parts;
  for (const auto& [attr, value] : t.fields()) {
    parts.push_back(
        StrCat(EscapeText(catalog.Name(attr)), "=", EncodeValue(value)));
  }
  return Join(parts, "|");
}

Result<Tuple> DecodeTuple(AttrCatalog* catalog, const std::string& text) {
  Tuple out;
  if (text.empty()) return out;
  for (const std::string& part : Split(text, '|')) {
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(StrCat("bad field '", part, "'"));
    }
    FLEXREL_ASSIGN_OR_RETURN(std::string name,
                             UnescapeText(part.substr(0, eq)));
    FLEXREL_ASSIGN_OR_RETURN(Value value, DecodeValue(part.substr(eq + 1)));
    out.Set(catalog->Intern(name), std::move(value));
  }
  return out;
}

std::string EncodeDomain(const Domain& d) {
  if (d.is_enumerated()) {
    std::vector<std::string> vals;
    for (const Value& v : d.values()) vals.push_back(EncodeValue(v));
    return StrCat("enum ", Join(vals, "|"));
  }
  if (d.is_range()) {
    return StrCat("range ", d.range_lo(), " ", d.range_hi());
  }
  return StrCat("any ", ValueTypeName(d.type()));
}

Result<Domain> DecodeDomain(const std::string& text) {
  if (StartsWith(text, "enum ")) {
    std::vector<Value> values;
    for (const std::string& token : Split(text.substr(5), '|')) {
      FLEXREL_ASSIGN_OR_RETURN(Value v, DecodeValue(token));
      values.push_back(std::move(v));
    }
    return Domain::Enumerated(std::move(values));
  }
  if (StartsWith(text, "range ")) {
    std::istringstream is(text.substr(6));
    int64_t lo, hi;
    if (!(is >> lo >> hi)) {
      return Status::InvalidArgument("bad range domain");
    }
    return Domain::IntRange(lo, hi);
  }
  if (StartsWith(text, "any ")) {
    std::string name = text.substr(4);
    for (ValueType t : {ValueType::kBool, ValueType::kInt, ValueType::kDouble,
                        ValueType::kString}) {
      if (name == ValueTypeName(t)) return Domain::Any(t);
    }
  }
  return Status::InvalidArgument(StrCat("bad domain '", text, "'"));
}

}  // namespace

std::string WriteFlexDb(const AttrCatalog& catalog,
                        const FlexibleScheme& scheme,
                        const std::vector<ExplicitAD>& eads,
                        const std::vector<std::pair<AttrId, Domain>>& domains,
                        const FlexibleRelation& relation) {
  // Version 2 adds the optional extra-Σ section below; files without one
  // keep the version-1 stamp (and stay byte-identical to what version-1
  // writers produced), so old readers only reject files they genuinely
  // cannot parse — with a clear version error instead of a puzzling
  // "expected 'rows '" failure.
  std::vector<std::string> extra_deps;
  for (const FuncDep& fd : relation.deps().fds()) {
    extra_deps.push_back(StrCat("dep fd|", EncodeAttrSet(catalog, fd.lhs),
                                "|", EncodeAttrSet(catalog, fd.rhs)));
  }
  std::vector<std::pair<AttrSet, AttrSet>> ead_abbrevs;
  ead_abbrevs.reserve(eads.size());
  for (const ExplicitAD& ead : eads) {
    auto abbrev = ead.Abbreviate();
    ead_abbrevs.emplace_back(abbrev.lhs, abbrev.rhs);
  }
  for (const AttrDep& ad : relation.deps().ads()) {
    bool from_ead = false;
    for (const auto& [lhs, rhs] : ead_abbrevs) {
      if (lhs == ad.lhs && rhs == ad.rhs) {
        from_ead = true;
        break;
      }
    }
    if (!from_ead) {
      extra_deps.push_back(StrCat("dep ad|", EncodeAttrSet(catalog, ad.lhs),
                                  "|", EncodeAttrSet(catalog, ad.rhs)));
    }
  }

  std::ostringstream os;
  os << (extra_deps.empty() ? "flexdb 1\n" : "flexdb 2\n");
  os << "name " << EscapeText(relation.name()) << "\n";
  os << "scheme " << scheme.ToString(catalog) << "\n";
  os << "domains " << domains.size() << "\n";
  for (const auto& [attr, domain] : domains) {
    os << EscapeText(catalog.Name(attr)) << " " << EncodeDomain(domain)
       << "\n";
  }
  os << "eads " << eads.size() << "\n";
  for (const ExplicitAD& ead : eads) {
    os << "ead " << EncodeAttrSet(catalog, ead.determinant()) << " "
       << EncodeAttrSet(catalog, ead.determined()) << " "
       << ead.variants().size() << "\n";
    for (const EadVariant& v : ead.variants()) {
      os << "variant " << EncodeAttrSet(catalog, v.then) << " "
         << v.when.values().size() << "\n";
      for (const Tuple& cond : v.when.values()) {
        os << "when " << EncodeTuple(catalog, cond) << "\n";
      }
    }
  }
  // Declared dependencies beyond the EAD-derived ADs (e.g. an installed,
  // discovery-mined Σ — workload/generator.h InstallDiscoveredDeps). The
  // EAD abbreviations are re-derived on load and not repeated here.
  if (!extra_deps.empty()) {
    os << "deps " << extra_deps.size() << "\n";
    for (const std::string& line : extra_deps) os << line << "\n";
  }
  os << "rows " << relation.size() << "\n";
  for (const Tuple& t : relation.rows()) {
    os << "row " << EncodeTuple(catalog, t) << "\n";
  }
  return os.str();
}

Result<std::unique_ptr<FlexDb>> ReadFlexDb(const std::string& text) {
  auto db = std::make_unique<FlexDb>();
  std::istringstream is(text);
  std::string line;

  auto next_line = [&](const std::string& expected_prefix) -> Result<std::string> {
    if (!std::getline(is, line)) {
      return Status::InvalidArgument(
          StrCat("unexpected end of input, wanted '", expected_prefix, "'"));
    }
    if (!StartsWith(line, expected_prefix)) {
      return Status::InvalidArgument(
          StrCat("expected '", expected_prefix, "', got '", line, "'"));
    }
    return line.substr(expected_prefix.size());
  };

  FLEXREL_ASSIGN_OR_RETURN(std::string version, next_line("flexdb "));
  // Version 2 = version 1 plus the optional extra-Σ section; the reader is
  // lenient and accepts the section under either stamp.
  if (version != "1" && version != "2") {
    return Status::InvalidArgument(StrCat("unsupported version ", version));
  }
  FLEXREL_ASSIGN_OR_RETURN(std::string escaped_name, next_line("name "));
  FLEXREL_ASSIGN_OR_RETURN(std::string name, UnescapeText(escaped_name));

  FLEXREL_ASSIGN_OR_RETURN(std::string scheme_text, next_line("scheme "));
  FLEXREL_ASSIGN_OR_RETURN(db->scheme,
                           FlexibleScheme::Parse(&db->catalog, scheme_text));

  FLEXREL_ASSIGN_OR_RETURN(std::string domain_count_text,
                           next_line("domains "));
  FLEXREL_ASSIGN_OR_RETURN(size_t domain_count, ParseCount(domain_count_text));
  for (size_t i = 0; i < domain_count; ++i) {
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("truncated domains section");
    }
    size_t sp = line.find(' ');
    if (sp == std::string::npos) {
      return Status::InvalidArgument(StrCat("bad domain line '", line, "'"));
    }
    FLEXREL_ASSIGN_OR_RETURN(std::string attr_name,
                             UnescapeText(line.substr(0, sp)));
    FLEXREL_ASSIGN_OR_RETURN(Domain domain, DecodeDomain(line.substr(sp + 1)));
    db->domains.push_back({db->catalog.Intern(attr_name), std::move(domain)});
  }

  FLEXREL_ASSIGN_OR_RETURN(std::string ead_count_text, next_line("eads "));
  FLEXREL_ASSIGN_OR_RETURN(size_t ead_count, ParseCount(ead_count_text));
  for (size_t e = 0; e < ead_count; ++e) {
    FLEXREL_ASSIGN_OR_RETURN(std::string header, next_line("ead "));
    std::vector<std::string> parts = Split(header, ' ');
    if (parts.size() != 3) {
      return Status::InvalidArgument(StrCat("bad ead header '", header, "'"));
    }
    FLEXREL_ASSIGN_OR_RETURN(AttrSet determinant,
                             DecodeAttrSet(&db->catalog, parts[0]));
    FLEXREL_ASSIGN_OR_RETURN(AttrSet determined,
                             DecodeAttrSet(&db->catalog, parts[1]));
    FLEXREL_ASSIGN_OR_RETURN(size_t variant_count, ParseCount(parts[2]));
    std::vector<EadVariant> variants;
    for (size_t v = 0; v < variant_count; ++v) {
      FLEXREL_ASSIGN_OR_RETURN(std::string vheader, next_line("variant "));
      std::vector<std::string> vparts = Split(vheader, ' ');
      if (vparts.size() != 2) {
        return Status::InvalidArgument("bad variant header");
      }
      FLEXREL_ASSIGN_OR_RETURN(AttrSet then,
                               DecodeAttrSet(&db->catalog, vparts[0]));
      FLEXREL_ASSIGN_OR_RETURN(size_t cond_count, ParseCount(vparts[1]));
      std::vector<Tuple> conds;
      for (size_t c = 0; c < cond_count; ++c) {
        FLEXREL_ASSIGN_OR_RETURN(std::string cond_text, next_line("when "));
        FLEXREL_ASSIGN_OR_RETURN(Tuple cond,
                                 DecodeTuple(&db->catalog, cond_text));
        conds.push_back(std::move(cond));
      }
      FLEXREL_ASSIGN_OR_RETURN(ConditionSet when,
                               ConditionSet::Make(determinant,
                                                  std::move(conds)));
      variants.push_back(EadVariant{std::move(when), std::move(then)});
    }
    FLEXREL_ASSIGN_OR_RETURN(
        ExplicitAD ead,
        ExplicitAD::Make(determinant, determined, std::move(variants)));
    db->eads.push_back(std::move(ead));
  }

  db->relation = FlexibleRelation::Base(name, &db->catalog, db->scheme,
                                        db->eads, db->domains);

  // Optional extra-Σ section (absent in files written before it existed).
  if (!std::getline(is, line)) {
    return Status::InvalidArgument("unexpected end of input, wanted 'rows '");
  }
  if (StartsWith(line, "deps ")) {
    FLEXREL_ASSIGN_OR_RETURN(size_t dep_count, ParseCount(line.substr(5)));
    for (size_t d = 0; d < dep_count; ++d) {
      // Contextual truncation error: a short Σ section names how far the
      // reader got, so a chopped file is diagnosable at a glance.
      Result<std::string> dep_line = next_line("dep ");
      if (!dep_line.ok()) {
        return dep_line.status().WithContext(
            StrCat("truncated deps section: dependency ", d + 1, " of ",
                   dep_count));
      }
      std::string dep_text = std::move(dep_line).value();
      std::vector<std::string> parts = Split(dep_text, '|');
      if (parts.size() != 3) {
        return Status::InvalidArgument(
            StrCat("bad dependency line 'dep ", dep_text, "'"));
      }
      FLEXREL_ASSIGN_OR_RETURN(AttrSet lhs,
                               DecodeAttrSet(&db->catalog, parts[1]));
      FLEXREL_ASSIGN_OR_RETURN(AttrSet rhs,
                               DecodeAttrSet(&db->catalog, parts[2]));
      if (parts[0] == "fd") {
        db->relation.mutable_deps()->AddFd(FuncDep{std::move(lhs),
                                                   std::move(rhs)});
      } else if (parts[0] == "ad") {
        db->relation.mutable_deps()->AddAd(AttrDep{std::move(lhs),
                                                   std::move(rhs)});
      } else {
        return Status::InvalidArgument(
            StrCat("unknown dependency tag '", parts[0], "'"));
      }
    }
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("unexpected end of input, wanted 'rows '");
    }
  }
  if (!StartsWith(line, "rows ")) {
    return Status::InvalidArgument(
        StrCat("expected 'rows ', got '", line, "'"));
  }
  FLEXREL_ASSIGN_OR_RETURN(size_t row_count, ParseCount(line.substr(5)));
  std::vector<Tuple> loaded_rows;
  // The header's count is untrusted input: cap the up-front reserve so a
  // corrupt 'rows N' line cannot force a giant allocation (which would
  // throw past the Status-based error handling). Real row counts above
  // the cap just grow geometrically as lines actually parse.
  constexpr size_t kMaxReserveRows = 1u << 16;
  loaded_rows.reserve(std::min(row_count, kMaxReserveRows));
  for (size_t r = 0; r < row_count; ++r) {
    // As with deps: a file chopped mid-rows reports exactly where it ends
    // relative to the count the header promised.
    Result<std::string> row_line = next_line("row ");
    if (!row_line.ok()) {
      return row_line.status().WithContext(
          StrCat("truncated rows section: row ", r + 1, " of ", row_count));
    }
    FLEXREL_ASSIGN_OR_RETURN(
        Tuple t, DecodeTuple(&db->catalog, std::move(row_line).value()));
    loaded_rows.push_back(std::move(t));
  }
  // The row count is part of the format's integrity contract in both
  // directions: fewer lines than promised errors above, and anything after
  // the promised rows — a stale tail from an interrupted rewrite, a
  // duplicated section — is corruption, not slack to ignore.
  while (std::getline(is, line)) {
    if (!line.empty()) {
      return Status::InvalidArgument(
          StrCat("trailing input after ", row_count, " declared rows: '",
                 line, "'"));
    }
  }
  // Bulk-load through the transactional batch path: the whole delta is
  // type-checked and duplicate-checked (hashed set semantics, not the
  // per-row linear scan) before any row lands, so a bad file leaves the
  // relation empty instead of partially loaded, and the attached cache —
  // should a caller have touched it — sees one buffered batch. The batch
  // error names the offending op index, which here is the row number.
  FLEXREL_RETURN_IF_ERROR(
      db->relation.InsertRows(std::move(loaded_rows))
          .WithContext(StrCat("loading ", row_count, " rows")));
  // Engine-backed instance audit (ROADMAP item): the declared Σ — the
  // EAD-derived ADs plus any persisted extra dependencies — must hold over
  // the loaded instance. Per-tuple type checks on insert cannot see
  // cross-tuple violations of an installed Σ; the validator reads them off
  // cached partitions and code columns instead of re-hashing the instance
  // once per dependency.
  if (!db->relation.AuditDeclaredDeps()) {
    return Status::ConstraintViolation(
        StrCat("loaded instance of '", db->relation.name(),
               "' violates its declared dependencies (corrupt sigma?)"));
  }
  return db;
}

}  // namespace flexrel
