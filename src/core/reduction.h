#ifndef GQC_CORE_REDUCTION_H_
#define GQC_CORE_REDUCTION_H_

#include "src/core/sparse.h"
#include "src/core/stats.h"
#include "src/query/factorize.h"
#include "src/util/result.h"

namespace gqc {

/// The §3 reduction of containment modulo schema to finite entailment, for
/// TBoxes with participation constraints:
///   p ⊑_T Q  iff  there is no finite graph H0 (the central part of a
///   star-like countermodel, Lemma 3.5) with H0 ⊨ p, H0 ⊨ T0 (participation
///   dropped at stub nodes), H0 ⊭ Q̂, where every node still violating a
///   participation constraint is a stub: its type is in Tp(T, Q̂) — realized
///   in some finite graph satisfying T and refuting Q — and it has exactly
///   one incident edge (and no outgoing edges in the ALCQ case).
///
/// Tp(T, Q̂) is computed by the §5/§6 entailment engines; the H0 search uses
/// the bounded witness search with the deferral policy.
struct ReductionResult {
  /// kYes: containment REFUTED (H0 in `central_part`); kNo: containment
  /// holds (exact when nothing was capped); kUnknown otherwise.
  EngineAnswer countermodel_found = EngineAnswer::kUnknown;
  std::optional<Graph> central_part;
  std::string note;
};

struct ReductionOptions {
  CountermodelOptions countermodel;
  FactorizeOptions factorize;
  /// Optional stats sink (entailment_ns / reduction_ns phases).
  PipelineStats* stats = nullptr;
};

/// The (T, Q)-dependent half of the reduction, independent of the left-hand
/// disjunct p: the factorization Q̂ of Q and the realizable-type set
/// Tp(T, Q̂) computed by the matching entailment engine. This is the
/// expensive, *reusable* part — one closure serves every disjunct of every P
/// checked against the same (T, Q), which is what the batch engine's
/// entailment-closure cache exploits.
///
/// The closure interns fresh permission/marker concepts into the vocabulary
/// it was computed with; it is valid in any vocabulary that extends that one
/// (same ids), which the engine guarantees by cloning vocabularies from the
/// closure's context.
struct TpClosure {
  SimpleFactorization factorization;
  TypeSpace engine_space{std::vector<uint32_t>{}};
  std::vector<uint64_t> engine_masks;
  /// True if the engine hit a resource cap while computing Tp — kNo answers
  /// downstream then degrade to kUnknown.
  bool engine_capped = false;
  /// Which engine computed the closure (stub discipline differs).
  bool alcq_case = true;
};

/// True iff the reduction covers (T, Q): T has participation constraints, Q
/// is simple and connected, and either T has no inverses (the §6 ALCQ engine,
/// used whenever it applies) or T has no counting and Q is one-way (the §5
/// ALCI engine). The one fragment test behind both the reduction strategy
/// and the engine's closure precomputation.
bool ReductionCovers(const NormalTBox& tbox, const Ucrpq& q);

/// Computes the closure for connected simple UC2RPQ `q` against normalized
/// `tbox`. `alcq_case` selects the engine (§6 ALCQ vs §5 ALCI one-way).
/// Errors when the factorization fails (query not simple/connected, caps).
Result<TpClosure> ComputeTpClosure(const Ucrpq& q, const NormalTBox& tbox,
                                   bool alcq_case, Vocabulary* vocab,
                                   const ReductionOptions& options);

/// Runs the reduction for one connected disjunct p against connected simple
/// UC2RPQ q and a normalized TBox in a supported fragment (ALCQ, or ALCI
/// with one-way q), reusing a precomputed `closure` for (tbox, q). Does not
/// mutate any vocabulary — safe to call concurrently for different p against
/// one shared closure. `expansions` as in FindCountermodel.
ReductionResult ContainmentViaEntailment(const Crpq& p, const Ucrpq& q,
                                         const NormalTBox& tbox,
                                         const TpClosure& closure,
                                         const ReductionOptions& options,
                                         const ExpansionSet* expansions = nullptr);

/// Convenience form computing the closure inline (the pre-batching entry
/// point). `alcq_case` selects the stub discipline (no outgoing edges) and
/// which engine computes Tp.
ReductionResult ContainmentViaEntailment(const Crpq& p, const Ucrpq& q,
                                         const NormalTBox& tbox, bool alcq_case,
                                         Vocabulary* vocab,
                                         const ReductionOptions& options);

}  // namespace gqc

#endif  // GQC_CORE_REDUCTION_H_
