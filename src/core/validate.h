#ifndef GQC_CORE_VALIDATE_H_
#define GQC_CORE_VALIDATE_H_

#include <string_view>
#include <vector>

#include "src/core/saturate.h"
#include "src/dl/tbox.h"
#include "src/graph/graph.h"
#include "src/query/query_containment.h"
#include "src/query/ucrpq.h"
#include "src/util/invariant.h"

namespace gqc {

/// Cache-key completeness/encoding audit (src/core/caches.cc and the engine's
/// context maps): the composite key must decode back to exactly the parts it
/// was built from. A key that fails this could alias two distinct cache
/// inputs — and a cache collision in the closure cache silently corrupts
/// verdicts instead of crashing.
AuditResult ValidateCacheKey(std::string_view key,
                             const std::vector<std::string_view>& parts);

/// Full countermodel audit before a kNotContained verdict escapes: the
/// witness is a well-formed graph with G ⊨ T, G ⊨ p, G ⊭ Q. This re-checks
/// what the search already verified, by independent code paths (model check +
/// evaluator), so a corrupted witness cannot ride out on a stale claim.
AuditResult ValidateCountermodel(const Graph& g, const Crpq& p, const Ucrpq& q,
                                 const NormalTBox& tbox);

/// Same for whole-UCRPQ countermodels (G ⊨ P via some disjunct).
AuditResult ValidateCountermodel(const Graph& g, const Ucrpq& p,
                                 const Ucrpq& q, const NormalTBox& tbox);

/// Homomorphism-certificate audit before the screen's kContained escapes
/// (MapsInto, src/query/query_containment.h). Shares no code with the
/// search that built `cert`; re-checks that
///   - each unary literal of Q's disjunct sits on the mapped p variable;
///   - each path is a chain of p atoms from h(y) to h(z);
///   - every word of each path, up to the canonical-expansion word bound,
///     is accepted by its Q atom under plain NFA simulation;
///   - every canonical expansion of p within the default bounds satisfies Q.
AuditResult ValidateMappingCertificate(const Crpq& p, const Ucrpq& q,
                                       const MappingCertificate& cert);

/// Saturation audit before the screen's kContained escapes
/// (SaturateUnderSchema, src/core/saturate.h). Shares no code with the
/// closure; replays its derivation and re-checks that
///   - each step applies a CI of its rule's kind whose lhs is known where
///     the rule reads it (P's literals, the `everywhere` conclusions and
///     earlier conclusions), and a Boolean step leaves exactly its literal
///     open;
///   - each ∀ step's atom has the language the rule needs (one letter, or
///     every word ending or starting with the letter), by a product of the
///     atom's automaton with a three-state automaton for that shape;
///   - each filler's seeds come from its at-least CI and the ∀ CIs that
///     apply on the variable, and its own derivation clashes;
///   - a clash leaves nothing open, and nothing follows it;
///   - without a clash, every literal the saturated P adds to P is
///     concluded on its variable or everywhere.
AuditResult ValidateSaturationCertificate(const Crpq& p, const NormalTBox& tbox,
                                          const Saturation& saturation);

}  // namespace gqc

#endif  // GQC_CORE_VALIDATE_H_
