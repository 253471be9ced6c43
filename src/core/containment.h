#ifndef GQC_CORE_CONTAINMENT_H_
#define GQC_CORE_CONTAINMENT_H_

#include <memory>
#include <vector>

#include "src/core/caches.h"
#include "src/core/reduction.h"
#include "src/core/result.h"
#include "src/core/stats.h"
#include "src/dl/tbox.h"

namespace gqc {

class Strategy;

/// Options controlling the containment pipeline.
struct ContainmentOptions {
  CountermodelOptions countermodel;
  FactorizeOptions factorize;
  /// Resource budget per decision. Step/memory budgets apply to each
  /// disjunct decision independently (so budget verdicts are deterministic
  /// at any thread count); the deadline is pinned once per pair and shared
  /// by every disjunct; the cancellation token may be shared wider (the
  /// batch engine shares one per batch). Default: unlimited.
  ResourceBudget resources;
  /// Skip the (potentially expensive) §3 reduction and only run the direct
  /// bounded searches.
  bool disable_reduction = false;
  /// Shrink returned countermodels to 1-minimal witnesses (readability).
  bool minimize_countermodels = true;
  /// Optional observability sink: per-phase wall time, cache hit/miss
  /// counters, verdict and strategy tallies, countermodel sizes. May be
  /// shared by several checkers/threads (all counters are atomic).
  PipelineStats* stats = nullptr;
  /// The strategies a disjunct decision runs (src/core/decide.h), in order:
  /// sequentially the first definite verdict wins and kUnknown falls through
  /// to the next; a race starts them all. Empty means SequentialOrder() —
  /// screen, direct, reduction, the former hardwired pipeline — or, in a
  /// race, AllStrategies(). Entries must outlive the checker (the registered
  /// strategies are immortal singletons).
  std::vector<const Strategy*> strategies;
};

/// Decides containment modulo schema, P ⊑_T Q over all finite graphs (§3).
///
/// Pipeline per connected disjunct p of P (P ⊑_T Q iff every disjunct is
/// contained):
///   1. Satisfiability screen: if p has no model satisfying T at all, the
///      disjunct is vacuously contained.
///   2. Direct countermodel search: seeds from canonical expansions of p and
///      their quotients, completed against the full TBox while avoiding Q.
///      A hit is a verified countermodel (kNotContained). For TBoxes without
///      participation constraints this search is also complete
///      (Theorem 3.2 path) when the expansion set is exhaustive.
///   3. With participation constraints and a supported fragment
///      (simple Q + ALCQ, or simple one-way Q + ALCI), the §3 reduction:
///      Tp(T, Q̂) via the entailment engines, then a star-like central-part
///      search with participation deferral (Lemma 3.5).
///   4. Otherwise: kUnknown (budgets in `options` control how hard 2 tries).
///
/// Definite answers are exact; kNotContained verdicts carry a re-verified
/// countermodel (or the central part when found via the reduction).
///
/// A checker is bound to one Vocabulary, memoizes normalized TBoxes and Tp
/// closures in it, and is not itself thread-safe. It runs the disjunct loop
/// and strategy runner of src/core/decide.h under the sequential policy, in
/// order on the calling thread; the batch engine (src/engine) runs the same
/// loop and runner over its own contexts, without a checker.
class ContainmentChecker {
 public:
  ContainmentChecker(Vocabulary* vocab, ContainmentOptions options = {});

  /// P, Q: UC2RPQs. `schema`: the TBox. Normalized on first use and
  /// memoized, so repeated calls against one schema pay normalization once.
  [[nodiscard]] ContainmentResult Decide(const Ucrpq& p, const Ucrpq& q,
                                         const TBox& schema);

  /// Same with a pre-normalized TBox.
  [[nodiscard]] ContainmentResult Decide(const Ucrpq& p, const Ucrpq& q,
                                         const NormalTBox& schema);

  /// Equivalence modulo schema: containment in both directions. Useful for
  /// schema-aware query rewriting (an atom may be dropped iff the rewritten
  /// query stays equivalent). kContained in the result means "equivalent";
  /// a countermodel (from whichever direction failed) refutes equivalence.
  [[nodiscard]] ContainmentResult DecideEquivalence(const Ucrpq& p,
                                                    const Ucrpq& q,
                                                    const NormalTBox& schema);

  /// Same against a raw TBox, normalizing and memoizing exactly like the
  /// Decide TBox overload — the two entry points stay symmetric.
  [[nodiscard]] ContainmentResult DecideEquivalence(const Ucrpq& p,
                                                    const Ucrpq& q,
                                                    const TBox& schema);

  const ContainmentOptions& options() const { return options_; }

  /// The per-checker memoized state (normalized TBoxes, Tp closures).
  ContainmentCaches* caches() { return caches_.get(); }

 private:
  Vocabulary* vocab_;
  ContainmentOptions options_;
  std::unique_ptr<ContainmentCaches> caches_;
};

}  // namespace gqc

#endif  // GQC_CORE_CONTAINMENT_H_
