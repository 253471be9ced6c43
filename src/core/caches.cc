#include "src/core/caches.h"

#include "src/core/validate.h"
#include "src/dl/normalize.h"
#include "src/util/fingerprint.h"
#include "src/util/invariant.h"

namespace gqc {

std::shared_ptr<const NormalTBox> ContainmentCaches::GetNormalized(
    const TBox& tbox, Vocabulary* vocab, PipelineStats* stats) {
  FpKey key(tbox.ToString(*vocab));
  auto [normal, hit] = normalized_.GetOrBuild(std::move(key), [&] {
    if (stats) {
      stats->normal_tbox_misses.fetch_add(1, std::memory_order_relaxed);
    }
    PhaseTimer timer(stats ? &stats->normalize_ns : nullptr);
    return Built{std::make_shared<const NormalTBox>(Normalize(tbox, vocab))};
  });
  if (hit && stats) {
    stats->normal_tbox_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return normal;
}

ContainmentCaches::ClosureEntry ContainmentCaches::GetClosure(
    const Ucrpq& q, const NormalTBox& tbox, bool alcq_case, Vocabulary* vocab,
    const ReductionOptions& options) {
  PipelineStats* stats = options.stats;
  const std::string tbox_part = tbox.ToString(*vocab);
  const std::string q_part = q.ToString(*vocab);
  const std::string_view engine_part = alcq_case ? "alcq" : "alci";
  FpKey key(JoinKeyParts(tbox_part, q_part, engine_part));
  // Closure verdicts are a pure function of (T, Q, engine); a key that does
  // not round-trip to exactly those parts could alias distinct inputs.
  GQC_AUDIT(ValidateCacheKey(key.text(), {tbox_part, q_part, engine_part}));
  auto [entry, hit] = closures_.GetOrBuild(std::move(key), [&] {
    if (stats) stats->closure_misses.fetch_add(1, std::memory_order_relaxed);
    ClosureEntry built;
    auto closure = ComputeTpClosure(q, tbox, alcq_case, vocab, options);
    if (closure.ok()) {
      built.closure =
          std::make_shared<const TpClosure>(std::move(closure).value());
    } else {
      built.error = closure.error();
    }
    // A closure whose build tripped a resource guard reflects the caller's
    // budget (or wall clock), not (T, Q) — caching it would degrade later,
    // better-funded calls. Return it uncached.
    const ResourceGuard* guard = options.countermodel.limits.guard;
    bool cache = guard == nullptr || !guard->exhausted();
    return Built{std::move(built), 0, cache};
  });
  if (hit && stats) stats->closure_hits.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

void ContainmentCaches::Clear() {
  compile_memo_.Clear();
  normalized_.Clear();
  closures_.Clear();
}

}  // namespace gqc
