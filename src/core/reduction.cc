#include "src/core/reduction.h"

#include <algorithm>

#include "src/dl/transforms.h"
#include "src/entailment/alci_oneway.h"
#include "src/entailment/alcq_simple.h"
#include "src/query/eval.h"

namespace gqc {

namespace {

/// Projects engine-level realizable masks onto the H0 search space; a stub
/// type over the H0 space is allowed iff some realizable engine mask agrees
/// with it on the shared support.
std::vector<uint64_t> ProjectRealizable(const TypeSpace& engine_space,
                                        const std::vector<uint64_t>& engine_masks,
                                        const TypeSpace& h0_space) {
  // Positions of h0 support concepts within the engine space. Concepts
  // unknown to the engine space are unconstrained there: both values must be
  // admitted; handle by enumerating completions of the missing bits.
  std::vector<std::size_t> engine_pos(h0_space.arity(), TypeSpace::npos);
  std::vector<std::size_t> missing;
  // lint: bounded(linear in the H0 support arity, capped by max_support_bits)
  for (std::size_t i = 0; i < h0_space.arity(); ++i) {
    engine_pos[i] = engine_space.PositionOf(h0_space.support()[i]);
    if (engine_pos[i] == TypeSpace::npos) missing.push_back(i);
  }
  std::vector<uint64_t> base;
  base.reserve(engine_masks.size());
  // lint: bounded(masks were enumerated under the guarded Tp fixpoint)
  for (uint64_t m : engine_masks) {
    uint64_t projected = 0;
    // lint: bounded(linear in the H0 support arity)
    for (std::size_t i = 0; i < h0_space.arity(); ++i) {
      if (engine_pos[i] != TypeSpace::npos && ((m >> engine_pos[i]) & 1)) {
        projected |= uint64_t{1} << i;
      }
    }
    base.push_back(projected);
  }
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  if (missing.empty() || missing.size() > 12) return base;
  std::vector<uint64_t> out;
  out.reserve(base.size() << missing.size());
  // lint: bounded(one pass over the projected base masks)
  for (uint64_t m : base) {
    // lint: bounded(missing.size is capped at 12, so at most 4096 combinations)
    for (uint64_t combo = 0; combo < (uint64_t{1} << missing.size()); ++combo) {
      uint64_t mask = m;
      // lint: bounded(linear in missing, at most 12)
      for (std::size_t j = 0; j < missing.size(); ++j) {
        if ((combo >> j) & 1) mask |= uint64_t{1} << missing[j];
      }
      out.push_back(mask);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

bool ReductionCovers(const NormalTBox& tbox, const Ucrpq& q) {
  if (!tbox.HasParticipationConstraints() || !q.IsSimple() ||
      !q.IsConnected()) {
    return false;
  }
  return !tbox.UsesInverse() || (!tbox.UsesCounting() && q.IsOneWay());
}

Result<TpClosure> ComputeTpClosure(const Ucrpq& q, const NormalTBox& tbox,
                                   bool alcq_case, Vocabulary* vocab,
                                   const ReductionOptions& options) {
  PhaseTimer timer(options.stats ? &options.stats->entailment_ns : nullptr);

  auto factorization = FactorizeSimpleUcrpq(q, vocab, options.factorize);
  if (!factorization.ok()) {
    return Result<TpClosure>::Error("factorization failed: " +
                                    factorization.error());
  }
  TpClosure closure;
  closure.factorization = std::move(factorization).value();
  closure.alcq_case = alcq_case;

  // Tp(T, Q̂): realizable types, computed by the matching engine. The
  // type-elimination fixpoints bill the shared guard under kEntailment.
  EngineLimits limits = options.countermodel.limits;
  limits.guard_phase = GuardPhase::kEntailment;
  if (alcq_case) {
    AlcqSimpleEngine engine(&closure.factorization, vocab, limits);
    auto set = engine.RealizableTypes(tbox);
    closure.engine_space = set.space;
    closure.engine_masks = std::move(set.masks);
    closure.engine_capped = engine.hit_cap();
  } else {
    AlciOnewayEngine engine(&closure.factorization, vocab, limits);
    auto set = engine.RealizableTypes(tbox);
    closure.engine_space = set.space;
    closure.engine_masks = std::move(set.masks);
    closure.engine_capped = engine.hit_cap();
  }
  return closure;
}

ReductionResult ContainmentViaEntailment(const Crpq& p, const Ucrpq& /*q*/,
                                         const NormalTBox& tbox,
                                         const TpClosure& closure,
                                         const ReductionOptions& options,
                                         const ExpansionSet* expansions) {
  // Q itself is not consulted here: `closure` already carries its
  // factorization (Q̂) and Tp masks, computed by ComputeTpClosure(q, ...).
  PhaseTimer timer(options.stats ? &options.stats->reduction_ns : nullptr);
  ReductionResult result;
  const SimpleFactorization& f = closure.factorization;

  // H0 search space: T, Q̂ (with permissions), p.
  std::vector<uint32_t> ids = tbox.ConceptIds();
  // lint: bounded(mentioned concepts of Q-hat, linear in query size)
  for (uint32_t id : f.q_hat.MentionedConcepts()) ids.push_back(id);
  // lint: bounded(mentioned concepts of p, linear in query size)
  for (uint32_t id : p.MentionedConcepts()) ids.push_back(id);
  TypeSpace h0_space{std::move(ids)};
  if (h0_space.arity() > options.countermodel.limits.max_support_bits) {
    result.note = "H0 type space too large";
    return result;
  }

  std::vector<uint64_t> allowed =
      ProjectRealizable(closure.engine_space, closure.engine_masks, h0_space);
  if (allowed.empty() && closure.engine_capped) {
    result.note = "Tp computation capped";
    return result;
  }

  // Search for the central part H0: ⊨ p, ⊨ T (participation deferred at
  // stubs with Tp types), ⊭ Q̂, seeded from expansions of p and quotients.
  // The search bills the shared guard under kReduction.
  WitnessProblem problem;
  problem.space = &h0_space;
  problem.tbox = &tbox;
  problem.forbid = &f.q_hat;
  WitnessProblem::Deferral deferral;
  deferral.allowed_masks = &allowed;
  deferral.forbid_outgoing = closure.alcq_case;
  problem.deferral = deferral;
  CountermodelOptions h0 = options.countermodel;
  h0.limits.guard_phase = GuardPhase::kReduction;
  CountermodelSearchResult found = SearchSeeds(p, problem, h0, expansions);
  result.countermodel_found = found.answer;
  result.central_part = std::move(found.witness);
  // A capped closure may lack realizable stub types, so finding no H0 then
  // proves nothing.
  if (found.answer == EngineAnswer::kNo && closure.engine_capped) {
    result.countermodel_found = EngineAnswer::kUnknown;
  }
  return result;
}

ReductionResult ContainmentViaEntailment(const Crpq& p, const Ucrpq& q,
                                         const NormalTBox& tbox, bool alcq_case,
                                         Vocabulary* vocab,
                                         const ReductionOptions& options) {
  auto closure = ComputeTpClosure(q, tbox, alcq_case, vocab, options);
  if (!closure.ok()) {
    ReductionResult result;
    result.note = closure.error();
    return result;
  }
  return ContainmentViaEntailment(p, q, tbox, closure.value(), options);
}

}  // namespace gqc
