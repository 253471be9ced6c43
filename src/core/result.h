#ifndef GQC_CORE_RESULT_H_
#define GQC_CORE_RESULT_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/graph/graph.h"
#include "src/query/query_containment.h"

namespace gqc {

/// Why a verdict is kUnknown: which resource ran out (or which structural
/// cap was hit), and in which pipeline phase. This is the payload of the
/// three-valued outcome — definite verdicts never carry one.
struct UnknownInfo {
  /// "deadline" / "steps" / "memory" / "cancelled" for guard trips, "caps"
  /// when a structural search cap (not a resource budget) was the cause.
  std::string reason;
  /// Pipeline phase that spent the tripping step (GuardPhaseName).
  std::string phase;
};

/// Who answered, how, and — for kUnknown — why not. One attribution struct
/// serves both the checker-level ContainmentResult and the batch engine's
/// BatchOutcome, so the verdict surface cannot drift between the two.
struct Attribution {
  /// Name of the winning Strategy (src/core/strategy.h); empty for
  /// kUnknown, and when no strategy ran (a P without disjuncts).
  std::string strategy;
  /// How the winner answered (e.g. "holds classically (schema-free)"), or
  /// why the decision gave up.
  std::string note;
  /// Present exactly when the verdict is kUnknown: why the pipeline gave up.
  std::optional<UnknownInfo> unknown;

  /// Flattened views of the kUnknown details; empty for definite verdicts.
  std::string_view unknown_reason() const {
    return unknown.has_value() ? std::string_view(unknown->reason)
                               : std::string_view();
  }
  std::string_view unknown_phase() const {
    return unknown.has_value() ? std::string_view(unknown->phase)
                               : std::string_view();
  }
};

/// The outcome of a containment-modulo-schema query P ⊑_T Q.
struct ContainmentResult {
  Verdict verdict = Verdict::kUnknown;

  /// Winning strategy / note / kUnknown details.
  Attribution attr;

  /// For kNotContained via direct/sparse search: a finite graph G with
  /// G ⊨ T, G ⊨ P, G ⊭ Q, re-verified before being returned.
  std::optional<Graph> countermodel;

  /// For kNotContained via the §3 reduction: the central part H0 of the
  /// star-like countermodel (Lemma 3.5); the full countermodel additionally
  /// hangs a peripheral part off each participation-deferred stub.
  std::optional<Graph> central_part;
};

}  // namespace gqc

#endif  // GQC_CORE_RESULT_H_
