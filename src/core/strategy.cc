#include "src/core/strategy.h"

#include <algorithm>
#include <utility>

#include "src/core/minimize.h"
#include "src/core/saturate.h"
#include "src/core/validate.h"
#include "src/graph/validate.h"
#include "src/util/invariant.h"

namespace gqc {

DecisionExpansions::DecisionExpansions(const Crpq& p,
                                       const ExpansionOptions& bounds)
    : p_(p),
      max_word_length_(bounds.max_word_length),
      max_expansions_(bounds.max_expansions) {}

const ExpansionSet* DecisionExpansions::For(const ExpansionOptions& options) {
  if (options.max_word_length != max_word_length_ ||
      options.max_expansions != max_expansions_) {
    return nullptr;
  }
  if (!ready_.load(std::memory_order_acquire)) {
    MutexLock lock(&mu_);
    if (!ready_.load(std::memory_order_relaxed)) {
      ExpansionOptions unguarded;
      unguarded.max_word_length = max_word_length_;
      unguarded.max_expansions = max_expansions_;
      set_ = CanonicalExpansions(p_, unguarded);
      ready_.store(true, std::memory_order_release);
    }
  }
  return &set_;
}

UnknownInfo UnknownFromGuard(const ResourceGuard* guard) {
  UnknownInfo info;
  if (guard != nullptr && guard->exhausted()) {
    info.reason = GuardResourceName(guard->reason());
    info.phase = GuardPhaseName(guard->trip_phase());
  } else {
    info.reason = "caps";
  }
  return info;
}

void RecordRefutation(PipelineStats* stats, const ContainmentResult& r) {
  if (stats == nullptr || r.verdict != Verdict::kNotContained) return;
  uint64_t nodes = 0;
  if (r.countermodel.has_value()) {
    nodes = r.countermodel->NodeCount();
  } else if (r.central_part.has_value()) {
    nodes = r.central_part->NodeCount();
  }
  stats->RecordCountermodel(nodes);
}

namespace {

/// True if some literal of Q's mapped disjunct sits on its image only in
/// the saturation of p, not in p itself.
bool NeedsSaturation(const Crpq& p, const Ucrpq& q,
                     const MappingCertificate& cert) {
  const Crpq& d = q.Disjuncts()[cert.disjunct];
  return std::any_of(
      d.UnaryAtoms().begin(), d.UnaryAtoms().end(), [&](const UnaryAtom& u) {
        return std::none_of(p.UnaryAtoms().begin(), p.UnaryAtoms().end(),
                            [&](const UnaryAtom& w) {
                              return w.var == cert.var_map[u.var] &&
                                     w.literal == u.literal;
                            });
      });
}

/// Inconclusive sentinel: kUnknown with an optional note for the runner.
ContainmentResult Inconclusive(std::string note = "") {
  ContainmentResult r;
  r.verdict = Verdict::kUnknown;
  r.attr.note = std::move(note);
  return r;
}

/// The decision's shared expansion set if it has `options`' bounds, else null.
const ExpansionSet* SharedExpansions(const StrategyContext& ctx,
                                     const ExpansionOptions& options) {
  return ctx.expansions != nullptr ? ctx.expansions->For(options) : nullptr;
}

/// The guarded search options every search-based strategy starts from: the
/// configured caps with this run's guard wired into both the witness-search
/// limits and the expansion enumeration.
CountermodelOptions GuardedCountermodelOptions(const StrategyContext& ctx,
                                               ResourceGuard* guard) {
  CountermodelOptions guarded = ctx.options->countermodel;
  guarded.limits.guard = guard;
  guarded.limits.guard_phase = GuardPhase::kDirect;
  guarded.expansion.guard = guard;
  guarded.expansion.guard_phase = GuardPhase::kDirect;
  return guarded;
}

/// Builds the kNotContained result for a witness found by a countermodel
/// search: optional 1-minimization, then the non-negotiable audit that the
/// returned graph actually refutes containment.
ContainmentResult RefutedByWitness(const StrategyContext& ctx,
                                   std::optional<Graph> witness) {
  ContainmentResult result;
  result.verdict = Verdict::kNotContained;
  if (ctx.options->minimize_countermodels && witness.has_value()) {
    Ucrpq p_union;
    p_union.AddDisjunct(*ctx.p);
    result.countermodel =
        MinimizeCountermodel(*witness, p_union, *ctx.q, *ctx.schema);
  } else {
    result.countermodel = std::move(witness);
  }
  if (result.countermodel.has_value()) {
    GQC_AUDIT(ValidateCountermodel(*result.countermodel, *ctx.p, *ctx.q,
                                   *ctx.schema));
  }
  return result;
}

// ---------------------------------------------------------------------------
// screen: cheap exact screens (p saturated under the schema: a clash, or a
// map of Q into it; and classical containment).
// ---------------------------------------------------------------------------

class ScreenStrategy final : public Strategy {
 public:
  StrategyId id() const override { return StrategyId::kScreen; }
  Cost cost() const override { return Cost::kCheap; }
  bool Applicable(const StrategyContext&) const override { return true; }
  ContainmentResult Run(const StrategyContext& ctx,
                        ResourceGuard* guard) const override;
};

ContainmentResult ScreenStrategy::Run(const StrategyContext& ctx,
                                      ResourceGuard* guard) const {
  if (guard != nullptr && guard->Recheck(GuardPhase::kScreen)) {
    return Inconclusive();
  }
  PhaseTimer timer(ctx.stats ? &ctx.stats->screen_ns : nullptr);
  ContainmentResult result;
  // (a) Close p's literals under the schema. Every match of p in a model of
  //     the schema carries them, so a clash means p has no match there and
  //     p ⊑ Q holds vacuously. Like the mapping search, the closure charges
  //     nothing to the guard: a pair neither certifies reaches `direct`
  //     with the guard as it found it.
  const Saturation saturation = SaturateUnderSchema(*ctx.p, *ctx.schema, guard);
  if (saturation.certificate.clash) {
    GQC_AUDIT(ValidateSaturationCertificate(*ctx.p, *ctx.schema, saturation));
    result.verdict = Verdict::kContained;
    result.attr.note = "p is unsatisfiable modulo the schema";
    return result;
  }
  // (b) Q maps into the saturated p, so every match of p in a model of the
  //     schema composes with the map into a match of Q. When the map needs
  //     no derived literal, p ⊑ Q holds classically (no schema).
  if (std::optional<MappingCertificate> cert =
          MapsInto(saturation.saturated, *ctx.q, guard)) {
    GQC_AUDIT(ValidateSaturationCertificate(*ctx.p, *ctx.schema, saturation));
    GQC_AUDIT(ValidateMappingCertificate(saturation.saturated, *ctx.q, *cert));
    result.verdict = Verdict::kContained;
    result.attr.note = NeedsSaturation(*ctx.p, *ctx.q, *cert)
                           ? "Q maps into p saturated under the schema"
                           : "holds classically (schema-free)";
    return result;
  }
  if (guard != nullptr && guard->exhausted()) return Inconclusive();
  // (c) The canonical-database test certifies the CQ-shaped cases
  //     classically. It runs unguarded under the default expansion bounds.
  const ExpansionOptions classical_bounds;
  ExpansionSet own;
  const ExpansionSet* expansions = SharedExpansions(ctx, classical_bounds);
  if (expansions == nullptr) {
    own = CanonicalExpansions(*ctx.p, classical_bounds);
    expansions = &own;
  }
  QueryContainmentResult classical = ClassicalContainment(*expansions, *ctx.q);
  if (classical.verdict == Verdict::kContained) {
    result.verdict = Verdict::kContained;
    result.attr.note = "holds classically (schema-free)";
    return result;
  }
  return Inconclusive();
}

// ---------------------------------------------------------------------------
// direct: bounded countermodel search against the full TBox. Doubles as the
// satisfiability screen (an unsatisfiable p has no live seeds -> kNo) and,
// for TBoxes without participation constraints, as the exact Thm 3.2 path.
// ---------------------------------------------------------------------------

class DirectStrategy final : public Strategy {
 public:
  StrategyId id() const override { return StrategyId::kDirect; }
  Cost cost() const override { return Cost::kModerate; }
  bool Applicable(const StrategyContext&) const override { return true; }
  ContainmentResult Run(const StrategyContext& ctx,
                        ResourceGuard* guard) const override;
};

ContainmentResult DirectStrategy::Run(const StrategyContext& ctx,
                                      ResourceGuard* guard) const {
  // FindCountermodel polls the guard through the wired-in search limits.
  CountermodelOptions guarded = GuardedCountermodelOptions(ctx, guard);
  CountermodelSearchResult direct;
  {
    PhaseTimer timer(ctx.stats ? &ctx.stats->direct_ns : nullptr);
    direct = FindCountermodel(*ctx.p, *ctx.q, *ctx.schema, guarded,
                              SharedExpansions(ctx, guarded.expansion));
    if (direct.answer == EngineAnswer::kYes) {
      return RefutedByWitness(ctx, std::move(direct.witness));
    }
  }
  if (direct.answer == EngineAnswer::kNo) {
    // Exact: no countermodel exists (see FindCountermodel's completeness
    // conditions — exhaustive seeds, no budget caps).
    ContainmentResult result;
    result.verdict = Verdict::kContained;
    return result;
  }
  return Inconclusive();
}

// ---------------------------------------------------------------------------
// witness: refutation-only deep witness search. Same engine as `direct` but
// tuned the opposite way — longer expansion words and a larger witness bound
// with only the canonical seed (no quotient enumeration) — so it reaches
// countermodels the direct strategy's breadth-first caps miss. Never trusts
// a kNo (its seed space is deliberately not exhaustive): only a found and
// verified countermodel counts, which makes it trivially sound and worth
// racing but useless sequentially.
// ---------------------------------------------------------------------------

class WitnessStrategy final : public Strategy {
 public:
  StrategyId id() const override { return StrategyId::kWitness; }
  Cost cost() const override { return Cost::kExpensive; }
  bool Applicable(const StrategyContext& ctx) const override {
    return ctx.p->VarCount() > 0;
  }
  ContainmentResult Run(const StrategyContext& ctx,
                        ResourceGuard* guard) const override;
};

ContainmentResult WitnessStrategy::Run(const StrategyContext& ctx,
                                       ResourceGuard* guard) const {
  // Deep variant of the guarded direct-search options; the guard polls
  // unchanged through the search limits.
  CountermodelOptions deep = GuardedCountermodelOptions(ctx, guard);
  deep.expansion.max_word_length += 2;
  deep.limits.max_witness_nodes += 6;
  deep.max_quotients = 1;  // canonical seed only; depth over breadth
  CountermodelSearchResult found;
  {
    PhaseTimer timer(ctx.stats ? &ctx.stats->direct_ns : nullptr);
    found = FindCountermodel(*ctx.p, *ctx.q, *ctx.schema, deep);
    if (found.answer == EngineAnswer::kYes) {
      ContainmentResult result = RefutedByWitness(ctx, std::move(found.witness));
      result.attr.note = "found by deep witness search";
      return result;
    }
  }
  // kNo is NOT exact here (seed space restricted on purpose): inconclusive.
  return Inconclusive();
}

// ---------------------------------------------------------------------------
// reduction: the full §3 reduction to finite entailment for the supported
// fragments (participation constraints + simple connected Q, ALCQ or
// one-way ALCI).
// ---------------------------------------------------------------------------

class ReductionStrategy final : public Strategy {
 public:
  StrategyId id() const override { return StrategyId::kReduction; }
  Cost cost() const override { return Cost::kExpensive; }
  bool Applicable(const StrategyContext& ctx) const override {
    if (ctx.options->disable_reduction || !ctx.p->IsConnected() ||
        !ReductionCovers(*ctx.schema, *ctx.q)) {
      return false;
    }
    // Building a closure interns fresh concepts into the vocabulary; under a
    // shared vocabulary only a precomputed closure is usable.
    return ctx.closure != nullptr ||
           (!ctx.vocab_shared && ctx.caches != nullptr);
  }
  ContainmentResult Run(const StrategyContext& ctx,
                        ResourceGuard* guard) const override;
};

ContainmentResult ReductionStrategy::Run(const StrategyContext& ctx,
                                         ResourceGuard* guard) const {
  // The (T, Q)-dependent Tp closure is either precomputed by the caller (the
  // engine's query context) or built through the checker's memo — same
  // answers either way.
  ReductionOptions opts;
  opts.countermodel = GuardedCountermodelOptions(ctx, guard);
  // The reduction's own expansion enumeration bills under kReduction; the
  // witness/entailment phases re-attribute themselves (see reduction.cc).
  opts.countermodel.expansion.guard_phase = GuardPhase::kReduction;
  opts.factorize = ctx.options->factorize;
  opts.factorize.guard = guard;
  opts.stats = ctx.stats;
  bool alcq_case = !ctx.schema->UsesInverse();
  const ExpansionSet* expansions =
      SharedExpansions(ctx, opts.countermodel.expansion);
  ReductionResult red;
  const TpClosure* closure = ctx.closure;
  ContainmentCaches::ClosureEntry entry;
  if (closure == nullptr) {
    entry = ctx.caches->GetClosure(*ctx.q, *ctx.schema, alcq_case, ctx.vocab,
                                   opts);
    closure = entry.closure.get();
  }
  if (closure != nullptr) {
    red = ContainmentViaEntailment(*ctx.p, *ctx.q, *ctx.schema, *closure, opts,
                                   expansions);
  } else {
    red.note = entry.error;
  }
  if (red.countermodel_found == EngineAnswer::kYes) {
    ContainmentResult result;
    result.verdict = Verdict::kNotContained;
    result.central_part = std::move(red.central_part);
    // The central part is not a full countermodel (stubs defer their
    // participation constraints; the semantic re-verification happens
    // inside the reduction), but it must at least be a well-formed graph.
    if (result.central_part.has_value()) {
      GQC_AUDIT(ValidateGraph(*result.central_part));
    }
    result.attr.note = "countermodel is star-like; central part returned";
    return result;
  }
  if (red.countermodel_found == EngineAnswer::kNo) {
    ContainmentResult result;
    result.verdict = Verdict::kContained;
    return result;
  }
  return Inconclusive(red.note.empty() ? "reduction inconclusive" : red.note);
}

const ScreenStrategy kScreen;
const DirectStrategy kDirect;
const WitnessStrategy kWitness;
const ReductionStrategy kReduction;

}  // namespace

const std::vector<const Strategy*>& AllStrategies() {
  static const std::vector<const Strategy*> all = {&kScreen, &kDirect,
                                                   &kWitness, &kReduction};
  return all;
}

const std::vector<const Strategy*>& SequentialOrder() {
  static const std::vector<const Strategy*> order = {&kScreen, &kDirect,
                                                     &kReduction};
  return order;
}

const Strategy* FindStrategy(std::string_view name) {
  // lint: bounded(one comparison per registered strategy)
  for (const Strategy* s : AllStrategies()) {
    if (name == s->name()) return s;
  }
  return nullptr;
}

Result<std::vector<const Strategy*>> ParseStrategyList(std::string_view csv) {
  using R = Result<std::vector<const Strategy*>>;
  std::vector<const Strategy*> out;
  // lint: bounded(consumes one comma-separated token of the flag per pass)
  while (!csv.empty()) {
    std::size_t comma = csv.find(',');
    std::string_view name = csv.substr(0, comma);
    csv = comma == std::string_view::npos ? std::string_view{}
                                          : csv.substr(comma + 1);
    if (name.empty()) return R::Error("strategies: empty name in list");
    const Strategy* s = FindStrategy(name);
    if (s == nullptr) {
      return R::Error("strategies: unknown strategy \"" + std::string(name) +
                      "\" (known: screen, direct, witness, reduction)");
    }
    if (std::find(out.begin(), out.end(), s) != out.end()) {
      return R::Error("strategies: duplicate strategy \"" + std::string(name) +
                      "\"");
    }
    out.push_back(s);
  }
  if (out.empty()) return R::Error("strategies: empty list");
  return out;
}

}  // namespace gqc
