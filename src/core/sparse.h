#ifndef GQC_CORE_SPARSE_H_
#define GQC_CORE_SPARSE_H_

#include "src/core/result.h"
#include "src/dl/tbox.h"
#include "src/entailment/common.h"
#include "src/entailment/witness_search.h"
#include "src/query/canonical.h"
#include "src/query/ucrpq.h"

namespace gqc {

/// Options for the countermodel searches.
struct CountermodelOptions {
  ExpansionOptions expansion;
  EngineLimits limits;
  /// Cap on node-merging quotients tried per expansion (the sparse-model
  /// argument needs quotients of canonical expansions as seeds).
  std::size_t max_quotients = 2000;
};

/// Outcome of a countermodel search for one disjunct p against (T, Q).
struct CountermodelSearchResult {
  /// kYes: countermodel found (in `witness`); kNo: none exists (exact — the
  /// seed space was exhaustive and no budget was hit); kUnknown otherwise.
  EngineAnswer answer = EngineAnswer::kUnknown;
  std::optional<Graph> witness;
};

/// Searches for a finite G with G ⊨ tbox, G ⊨ p, G ⊭ q, seeded from the
/// canonical expansions of p and their node-merging quotients, completing
/// labels and repairing participation constraints with the bounded witness
/// search (§3 / Thm 3.2 engineering substitute; see DESIGN.md).
///
/// When `tbox` has no participation constraints, minimal countermodels are
/// exactly label-completions of quotients of canonical expansions (every
/// model restricted to a match image stays a model), so with exhaustive
/// expansions kNo answers are exact — the Thm 3.2 path.
///
/// `expansions`, if given, is p's expansion set built without a guard under
/// options.expansion's bounds; the search then replays its guard charges
/// instead of enumerating (GuardedExpansions).
CountermodelSearchResult FindCountermodel(const Crpq& p, const Ucrpq& q,
                                          const NormalTBox& tbox,
                                          const CountermodelOptions& options,
                                          const ExpansionSet* expansions = nullptr);

/// The seed loop behind FindCountermodel and the reduction's H0 search: runs
/// FindWitness on `problem` under options.limits from every seed — each of
/// p's canonical expansions in order, then its node-merging quotients — up
/// to the first witness (`problem.require` and `problem.seed` are set here).
/// kNo is exact only when the expansions were exhaustive and nothing was
/// capped: no guard trip, no expansion too large to quotient, no full
/// quotient cap and no inconclusive search; kUnknown otherwise.
/// `expansions` as in FindCountermodel.
CountermodelSearchResult SearchSeeds(const Crpq& p, WitnessProblem problem,
                                     const CountermodelOptions& options,
                                     const ExpansionSet* expansions);

/// Enumerates node-merging quotients of `g` that still satisfy `p` with the
/// merged variable assignment; includes `g` itself. Bounded by `max_out`.
std::vector<Graph> SatisfyingQuotients(const Graph& g, const Crpq& p,
                                       std::size_t max_out);

}  // namespace gqc

#endif  // GQC_CORE_SPARSE_H_
