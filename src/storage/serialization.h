// Text serialization of flexible relations.
//
// A line-oriented, versioned format covering everything a base relation
// needs to round-trip: the attribute catalog slice it uses, the flexible
// scheme (in the paper's own notation, reparsed on load), domains, EADs,
// declared dependencies beyond the EAD-derived ones (an installed,
// discovery-mined Σ survives the trip) and the heterogeneous instance.
// Strings are %-escaped so arbitrary values survive; loading re-validates
// every tuple through the TypeChecker, so a corrupted or hand-edited file
// cannot smuggle ill-typed data in, and then audits the declared Σ against
// the loaded instance through the partition engine's validator
// (engine/validator.h) — a corrupt Σ (dependencies the instance does not
// satisfy) fails the load with kConstraintViolation instead of poisoning
// downstream optimizers.

#ifndef FLEXREL_STORAGE_SERIALIZATION_H_
#define FLEXREL_STORAGE_SERIALIZATION_H_

#include <string>

#include "core/flexible_relation.h"

namespace flexrel {

/// A self-contained, loadable database: one base relation with its catalog.
struct FlexDb {
  AttrCatalog catalog;
  FlexibleScheme scheme;
  std::vector<ExplicitAD> eads;
  std::vector<std::pair<AttrId, Domain>> domains;
  FlexibleRelation relation;
};

/// Serializes `db` (catalog slice, scheme, domains, EADs, instance).
/// The catalog passed alongside supplies attribute names.
std::string WriteFlexDb(const AttrCatalog& catalog,
                        const FlexibleScheme& scheme,
                        const std::vector<ExplicitAD>& eads,
                        const std::vector<std::pair<AttrId, Domain>>& domains,
                        const FlexibleRelation& relation);

/// Parses a serialized database. Attribute ids are re-interned (the format
/// stores names, not ids), every tuple is type-checked on insert. Returned
/// by unique_ptr so the embedded catalog never moves under the checker.
Result<std::unique_ptr<FlexDb>> ReadFlexDb(const std::string& text);

/// Value <-> token encoding used by the format ("i:42", "r:1.5", "b:1",
/// "s:hello%20world", "n:"), exposed for tests and tooling.
std::string EncodeValue(const Value& v);
Result<Value> DecodeValue(const std::string& token);

/// %-escaping for names and string payloads (escapes %, whitespace, '|').
std::string EscapeText(const std::string& text);
Result<std::string> UnescapeText(const std::string& text);

}  // namespace flexrel

#endif  // FLEXREL_STORAGE_SERIALIZATION_H_
