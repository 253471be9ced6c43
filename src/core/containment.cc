#include "src/core/containment.h"

#include <chrono>
#include <utility>

#include "src/core/decide.h"

namespace gqc {

ContainmentChecker::ContainmentChecker(Vocabulary* vocab,
                                       ContainmentOptions options)
    : vocab_(vocab),
      options_(std::move(options)),
      caches_(std::make_unique<ContainmentCaches>()) {
  // Wire the checker's compile memo into every downstream search unless the
  // caller supplied their own.
  if (options_.countermodel.limits.compile_memo == nullptr) {
    options_.countermodel.limits.compile_memo = caches_->compile_memo();
  }
}

ContainmentResult ContainmentChecker::Decide(const Ucrpq& p, const Ucrpq& q,
                                             const TBox& schema) {
  std::shared_ptr<const NormalTBox> normalized =
      caches_->GetNormalized(schema, vocab_, options_.stats);
  return Decide(p, q, *normalized);
}

ContainmentResult ContainmentChecker::Decide(const Ucrpq& p, const Ucrpq& q,
                                             const NormalTBox& schema) {
  // The checker owns its vocabulary, so the reduction may build (and memoize)
  // Tp closures in it; the disjuncts therefore run in order on this thread.
  StrategyContext ctx;
  ctx.q = &q;
  ctx.schema = &schema;
  ctx.vocab = vocab_;
  ctx.caches = caches_.get();
  ctx.options = &options_;
  ctx.stats = options_.stats;
  DecisionPolicy policy;
  policy.budget = options_.resources;
  policy.PinDeadline(std::chrono::steady_clock::now());
  return DecideUnion(p, ctx, policy);
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
  return combined;
}

ContainmentResult ContainmentChecker::DecideEquivalence(const Ucrpq& p,
                                                        const Ucrpq& q,
                                                        const TBox& schema) {
  std::shared_ptr<const NormalTBox> normalized =
      caches_->GetNormalized(schema, vocab_, options_.stats);
  return DecideEquivalence(p, q, *normalized);
}

}  // namespace gqc
