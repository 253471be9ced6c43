#ifndef GQC_QUERY_QUERY_CONTAINMENT_H_
#define GQC_QUERY_QUERY_CONTAINMENT_H_

#include <optional>

#include "src/query/canonical.h"
#include "src/query/ucrpq.h"

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
/// `gqc::ContainmentChecker` (src/core/containment.h), which runs this test
/// only as its first exact screen (containment without a schema implies
/// containment under every schema).
///
/// Decided via the canonical-database method: P ⊑ Q iff every canonical
/// expansion of every disjunct of P satisfies Q. Exact for finite languages
/// (e.g. CQs) within the word-length bound; otherwise kNotContained answers
/// are exact and kContained degrades to kUnknown when the expansion set is
/// not exhaustive.
[[nodiscard]] QueryContainmentResult QueryContainment(
    const Ucrpq& p, const Ucrpq& q, const QueryContainmentOptions& options = {});

/// The same test for one disjunct, on its expansion set: kNotContained with
/// the first expansion that does not satisfy `q`; otherwise kContained if
/// the set is exhaustive and kUnknown if not.
[[nodiscard]] QueryContainmentResult ClassicalContainment(
    const ExpansionSet& expansions, const Ucrpq& q);

}  // namespace gqc

#endif  // GQC_QUERY_QUERY_CONTAINMENT_H_
