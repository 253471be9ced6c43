#include "src/query/query_containment.h"

#include "src/query/eval.h"

namespace gqc {

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kContained:
      return "contained";
    case Verdict::kNotContained:
      return "not-contained";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "?";
}

QueryContainmentResult QueryContainment(
    const Ucrpq& p, const Ucrpq& q, const QueryContainmentOptions& options) {
  bool exhaustive = true;
  for (const Crpq& disjunct : p.Disjuncts()) {
    QueryContainmentResult one = ClassicalContainment(
        CanonicalExpansions(disjunct, options.expansion), q);
    if (one.verdict == Verdict::kNotContained) return one;
    exhaustive = exhaustive && one.verdict == Verdict::kContained;
  }
  QueryContainmentResult result;
  result.verdict = exhaustive ? Verdict::kContained : Verdict::kUnknown;
  return result;
}

QueryContainmentResult ClassicalContainment(const ExpansionSet& expansions,
                                            const Ucrpq& q) {
  QueryContainmentResult result;
  for (const Expansion& exp : expansions.expansions) {
    if (!Matches(exp.graph, q)) {
      // Exact counterexample: the expansion satisfies P (by construction)
      // but not Q, and containment is over all finite graphs.
      result.verdict = Verdict::kNotContained;
      result.counterexample = exp.graph;
      return result;
    }
  }
  result.verdict = expansions.exhaustive ? Verdict::kContained : Verdict::kUnknown;
  return result;
}

}  // namespace gqc
