#include "src/core/containment.h"

#include <utility>

#include "src/core/strategy.h"
#include "src/dl/normalize.h"

namespace gqc {

void TallyPair(PipelineStats* stats, const ContainmentResult& r) {
  if (stats == nullptr) return;
  stats->pairs_total.fetch_add(1, std::memory_order_relaxed);
  switch (r.verdict) {
    case Verdict::kContained:
      stats->pairs_contained.fetch_add(1, std::memory_order_relaxed);
      break;
    case Verdict::kNotContained:
      stats->pairs_not_contained.fetch_add(1, std::memory_order_relaxed);
      break;
    case Verdict::kUnknown:
      stats->pairs_unknown.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  switch (r.attr.method) {
    case ContainmentMethod::kClassical:
      stats->method_classical.fetch_add(1, std::memory_order_relaxed);
      break;
    case ContainmentMethod::kDirectSearch:
      stats->method_direct.fetch_add(1, std::memory_order_relaxed);
      break;
    case ContainmentMethod::kSparse:
      stats->method_sparse.fetch_add(1, std::memory_order_relaxed);
      break;
    case ContainmentMethod::kReduction:
      stats->method_reduction.fetch_add(1, std::memory_order_relaxed);
      break;
    case ContainmentMethod::kTrivial:
      stats->method_trivial.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

ContainmentChecker::ContainmentChecker(Vocabulary* vocab,
                                       ContainmentOptions options)
    : vocab_(vocab),
      options_(std::move(options)),
      caches_(std::make_unique<ContainmentCaches>()) {
  // Wire the shared compile memo into every downstream search unless the
  // caller supplied their own (the batch engine does, so its memo survives
  // across per-worker checkers). Caching off disables the memo too.
  if (options_.enable_caching &&
      options_.countermodel.limits.compile_memo == nullptr) {
    options_.countermodel.limits.compile_memo = caches_->compile_memo();
  }
}

ContainmentResult ContainmentChecker::Decide(const Ucrpq& p, const Ucrpq& q,
                                             const TBox& schema) {
  if (options_.enable_caching) {
    std::shared_ptr<const NormalTBox> normalized =
        caches_->GetNormalized(schema, vocab_, options_.stats);
    return Decide(p, q, *normalized);
  }
  PipelineStats* stats = options_.stats;
  if (stats) stats->normal_tbox_misses.fetch_add(1, std::memory_order_relaxed);
  std::optional<NormalTBox> normalized;
  {
    PhaseTimer timer(stats ? &stats->normalize_ns : nullptr);
    normalized = Normalize(schema, vocab_);
  }
  return Decide(p, q, *normalized);
}

ContainmentResult ContainmentChecker::Decide(const Ucrpq& p, const Ucrpq& q,
                                             const NormalTBox& schema) {
  // P ⊑_T Q iff every disjunct of P is contained. Report the first
  // counterexample; a kUnknown disjunct makes the overall answer kUnknown
  // unless some other disjunct already refutes.
  //
  // The pair deadline is pinned once here and shared by every disjunct's
  // guard; step/memory budgets are per disjunct (fresh guard each) so budget
  // verdicts do not depend on how disjuncts are scheduled.
  const ResourceBudget& budget = options_.resources;
  bool has_deadline = budget.deadline_ms > 0;
  auto deadline = has_deadline
                      ? std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    budget.deadline_ms))
                      : std::chrono::steady_clock::time_point{};
  std::vector<ContainmentResult> per_disjunct;
  per_disjunct.reserve(p.Disjuncts().size());
  for (const Crpq& disjunct : p.Disjuncts()) {
    ResourceGuard guard(budget, has_deadline, deadline);
    per_disjunct.push_back(
        DecideDisjunct(disjunct, q, schema, /*closure=*/nullptr, &guard));
    if (options_.stats != nullptr) options_.stats->RecordGuard(guard);
    if (per_disjunct.back().verdict == Verdict::kNotContained) break;
  }
  ContainmentResult combined = Combine(std::move(per_disjunct));
  TallyPair(options_.stats, combined);
  return combined;
}

ContainmentResult ContainmentChecker::Combine(
    std::vector<ContainmentResult> per_disjunct) {
  ContainmentResult combined;
  combined.verdict = Verdict::kContained;
  combined.attr.method = ContainmentMethod::kTrivial;
  for (ContainmentResult& r : per_disjunct) {
    if (r.verdict == Verdict::kNotContained) return std::move(r);
    if (r.verdict == Verdict::kUnknown) {
      combined.verdict = Verdict::kUnknown;
      combined.attr = std::move(r.attr);
    } else if (combined.verdict == Verdict::kContained) {
      std::string note = std::move(combined.attr.note);
      combined.attr = r.attr;
      if (!note.empty()) combined.attr.note = std::move(note);
    }
  }
  return combined;
}

ContainmentResult ContainmentChecker::DecideEquivalence(const Ucrpq& p, const Ucrpq& q,
                                                        const NormalTBox& schema) {
  ContainmentResult forward = Decide(p, q, schema);
  if (forward.verdict == Verdict::kNotContained) {
    forward.attr.note = "P ⋢_T Q; " + forward.attr.note;
    return forward;
  }
  ContainmentResult backward = Decide(q, p, schema);
  if (backward.verdict == Verdict::kNotContained) {
    backward.attr.note = "Q ⋢_T P; " + backward.attr.note;
    return backward;
  }
  ContainmentResult combined;
  combined.verdict = (forward.verdict == Verdict::kContained &&
                      backward.verdict == Verdict::kContained)
                         ? Verdict::kContained
                         : Verdict::kUnknown;
  combined.attr.method = forward.attr.method;
  return combined;
}

ContainmentResult ContainmentChecker::DecideEquivalence(const Ucrpq& p,
                                                        const Ucrpq& q,
                                                        const TBox& schema) {
  if (options_.enable_caching) {
    std::shared_ptr<const NormalTBox> normalized =
        caches_->GetNormalized(schema, vocab_, options_.stats);
    return DecideEquivalence(p, q, *normalized);
  }
  PipelineStats* stats = options_.stats;
  if (stats) stats->normal_tbox_misses.fetch_add(1, std::memory_order_relaxed);
  std::optional<NormalTBox> normalized;
  {
    PhaseTimer timer(stats ? &stats->normalize_ns : nullptr);
    normalized = Normalize(schema, vocab_);
  }
  return DecideEquivalence(p, q, *normalized);
}

ContainmentResult ContainmentChecker::DecideDisjunct(const Crpq& p, const Ucrpq& q,
                                                     const NormalTBox& schema,
                                                     const TpClosure* closure,
                                                     ResourceGuard* guard) {
  PipelineStats* stats = options_.stats;
  if (stats) stats->disjuncts_total.fetch_add(1, std::memory_order_relaxed);
  ContainmentResult result;

  // 0. Preemption: an already-expired deadline or a cancelled batch skips
  //    every strategy — no searches run at all.
  if (guard != nullptr && guard->Recheck(GuardPhase::kSetup)) {
    result.verdict = Verdict::kUnknown;
    result.attr.unknown = UnknownFromGuard(guard);
    result.attr.note = guard->Describe();
    return result;
  }

  StrategyContext ctx;
  ctx.p = &p;
  ctx.q = &q;
  ctx.schema = &schema;
  ctx.closure = closure;
  ctx.vocab = vocab_;
  ctx.caches = caches_.get();
  ctx.options = &options_;
  ctx.stats = stats;
  DecisionExpansions expansions(p, options_.countermodel.expansion);
  ctx.expansions = &expansions;
  // A caller-supplied closure is the engine's signal that this vocabulary is
  // shared read-only across concurrent disjunct decisions (see DecideDisjunct
  // contract); without one the checker owns the vocabulary exclusively.
  ctx.vocab_shared = closure != nullptr;

  // Sequential strategy runner: try each applicable strategy in order under
  // the ONE shared guard; the first definite verdict wins, kUnknown falls
  // through. With the default order this is step-for-step the former
  // hardwired pipeline (budget charges included), so verdicts and budget
  // trips are bit-identical to it.
  const std::vector<const Strategy*>& order =
      options_.strategies.empty() ? SequentialOrder() : options_.strategies;
  std::string pending_note;
  for (const Strategy* strategy : order) {
    if (!strategy->Applicable(ctx)) continue;
    ContainmentResult r = strategy->Run(ctx, guard);
    if (r.verdict != Verdict::kUnknown) {
      r.attr.strategy = strategy->name();
      if (stats) stats->RecordStrategyWin(strategy->id());
      RecordRefutation(stats, r);
      return r;
    }
    if (stats) stats->RecordStrategyLoss(strategy->id(), /*race_cancelled=*/false);
    if (!r.attr.note.empty()) pending_note = std::move(r.attr.note);
  }

  result.verdict = Verdict::kUnknown;
  result.attr.method = ContainmentMethod::kDirectSearch;
  result.attr.unknown = UnknownFromGuard(guard);
  if (guard != nullptr && guard->exhausted()) {
    result.attr.note = guard->Describe();
  } else if (!pending_note.empty()) {
    result.attr.note = std::move(pending_note);
  } else {
    result.attr.note = "no countermodel within budget; containment not certified";
  }
  return result;
}

}  // namespace gqc
