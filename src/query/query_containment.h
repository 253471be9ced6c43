#ifndef GQC_QUERY_QUERY_CONTAINMENT_H_
#define GQC_QUERY_QUERY_CONTAINMENT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/query/canonical.h"
#include "src/query/ucrpq.h"
#include "src/util/guard.h"

namespace gqc {

/// Three-valued answers for bounded decision procedures: definite answers are
/// exact (witness-checked); kUnknown means the configured search budget was
/// exhausted without a definite answer.
enum class Verdict { kContained, kNotContained, kUnknown };

const char* VerdictName(Verdict v);

struct QueryContainmentResult {
  Verdict verdict = Verdict::kUnknown;
  /// For kNotContained: a finite graph satisfying P but not Q.
  std::optional<Graph> counterexample;
};

struct QueryContainmentOptions {
  ExpansionOptions expansion;
};

/// Classical *schema-free* containment P ⊑ Q over all finite graphs — NO
/// TBox is consulted. For containment **modulo a schema** use
/// `gqc::ContainmentChecker` (src/core/containment.h), which runs these tests
/// only as its first exact screen (containment without a schema implies
/// containment under every schema).
///
/// A disjunct of P that Q maps into (MapsInto) is contained. The others are
/// decided by the canonical-database method: P ⊑ Q iff every canonical
/// expansion of every disjunct of P satisfies Q. Exact for finite languages
/// (e.g. CQs) within the word-length bound; otherwise kNotContained answers
/// are exact and kContained degrades to kUnknown when the expansion set is
/// not exhaustive and no mapping certifies the disjunct.
[[nodiscard]] QueryContainmentResult QueryContainment(
    const Ucrpq& p, const Ucrpq& q, const QueryContainmentOptions& options = {});

/// The same test for one disjunct, on its expansion set: kNotContained with
/// the first expansion that does not satisfy `q`; otherwise kContained if
/// the set is exhaustive and kUnknown if not.
[[nodiscard]] QueryContainmentResult ClassicalContainment(
    const ExpansionSet& expansions, const Ucrpq& q);

/// One atom of a certificate path: binary atom `atom` of P, read from its y
/// to its z, or (reversed) from its z to its y, each word then read
/// backwards with every role inverted.
struct PathStep {
  uint32_t atom = 0;
  bool reversed = false;
};

/// A homomorphism h from a disjunct of Q into a disjunct p of P, the
/// certificate that p ⊑ Q holds classically (Chandra–Merlin, with each path
/// atom of Q sent to a path of p's atoms).
struct MappingCertificate {
  /// The disjunct of Q that maps.
  std::size_t disjunct = 0;
  /// h: Q variable -> p variable.
  std::vector<uint32_t> var_map;
  /// Per binary atom (y, z) of that disjunct, in order: the p atoms of a
  /// simple path from h(y) to h(z). Empty: the atom is met by the empty word
  /// (h(y) = h(z)).
  std::vector<std::vector<PathStep>> paths;
};

/// Searches for a MappingCertificate of p ⊑ Q, schema-free: a map h of one
/// of Q's disjuncts into p's variables such that
///   - every unary literal of Q on x is a unary atom of p on h(x);
///   - every path atom (y, z) of Q is met by the empty word (h(y) = h(z)
///     and the atom is nullable), or by a simple path of p's atoms from h(y)
///     to h(z), each read forward or reversed, whose concatenated language
///     is included in the Q atom's. A nullable p atom contributes its empty
///     word to that language too.
/// Then every match of p in a graph composes with h into a match of Q, so
/// p ⊑ Q over all graphs and hence under every schema. Sound, not complete:
/// the inclusion is tested by a subset construction of the Q atom's
/// automaton over letters (a test letter is matched as a letter), and every
/// search is capped; a cap or a trip of `guard` gives up with nullopt.
/// `guard` is only polled (Recheck, for deadline and cancellation), never
/// charged.
[[nodiscard]] std::optional<MappingCertificate> MapsInto(
    const Crpq& p, const Ucrpq& q, ResourceGuard* guard = nullptr);

}  // namespace gqc

#endif  // GQC_QUERY_QUERY_CONTAINMENT_H_
