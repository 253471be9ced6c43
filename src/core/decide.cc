#include "src/core/decide.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/util/invariant.h"
#include "src/util/sync.h"

namespace gqc {

void DecisionPolicy::PinDeadline(std::chrono::steady_clock::time_point start) {
  if (budget.deadline_ms <= 0) return;
  auto pinned =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(budget.deadline_ms));
  if (!has_deadline || pinned < deadline) deadline = pinned;
  has_deadline = true;
}

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
}

namespace {

/// Folds per-disjunct results (in disjunct order) into the pair verdict.
ContainmentResult Combine(std::vector<ContainmentResult> per_disjunct) {
  ContainmentResult combined;
  combined.verdict = Verdict::kContained;
  // lint: bounded(one fold step per disjunct result)
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

/// The guard phase a strategy's own search is billed to.
GuardPhase PhaseOf(StrategyId id) {
  switch (id) {
    case StrategyId::kScreen:
      return GuardPhase::kScreen;
    case StrategyId::kDirect:
    case StrategyId::kWitness:
      return GuardPhase::kDirect;
    case StrategyId::kReduction:
      return GuardPhase::kReduction;
  }
  return GuardPhase::kSetup;
}

/// Final kUnknown when no strategy answered: attribute the most informative
/// guard (a real budget trip beats race-flavoured cancellation noise) and
/// keep the last substantive strategy note. Without a trip the phase is
/// that of the strategy whose note is kept (the last one to run if none
/// left a note).
ContainmentResult ComposeUnknown(
    std::vector<ContainmentResult>& results,
    const std::vector<std::unique_ptr<ResourceGuard>>& guards,
    const std::vector<const Strategy*>& ran) {
  ContainmentResult out;
  out.verdict = Verdict::kUnknown;
  std::string note;
  const Strategy* noted = ran.empty() ? nullptr : ran.back();
  // lint: bounded(one result per applicable strategy)
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].attr.note.empty()) {
      note = std::move(results[i].attr.note);
      noted = ran[i];
    }
  }
  const ResourceGuard* attributed = nullptr;
  for (const auto& guard : guards) {
    if (guard->exhausted() && guard->reason() != GuardResource::kCancelled) {
      attributed = guard.get();
      break;
    }
  }
  if (attributed == nullptr) {
    for (const auto& guard : guards) {
      if (guard->exhausted()) {
        attributed = guard.get();
        break;
      }
    }
  }
  out.attr.unknown = UnknownFromGuard(attributed);
  if (attributed == nullptr && noted != nullptr) {
    out.attr.unknown->phase = GuardPhaseName(PhaseOf(noted->id()));
  }
  if (attributed != nullptr) {
    out.attr.note = attributed->Describe();
  } else if (!note.empty()) {
    out.attr.note = std::move(note);
  } else {
    out.attr.note = "no countermodel within budget; containment not certified";
  }
  return out;
}

}  // namespace

ContainmentResult DecideDisjunct(const StrategyContext& caller_ctx,
                                 const DecisionPolicy& policy) {
  // The strategies share one expansion set for this disjunct; it lives as
  // long as this decision and is built by whichever strategy asks first.
  DecisionExpansions expansions(*caller_ctx.p,
                                caller_ctx.options->countermodel.expansion);
  StrategyContext ctx = caller_ctx;
  ctx.expansions = &expansions;
  PipelineStats* stats = ctx.stats;
  if (stats) stats->disjuncts_total.fetch_add(1, std::memory_order_relaxed);

  const std::vector<const Strategy*>& listed =
      !ctx.options->strategies.empty() ? ctx.options->strategies
      : policy.race                    ? AllStrategies()
                                       : SequentialOrder();
  std::vector<const Strategy*> ran;
  ran.reserve(listed.size());
  // lint: bounded(one applicability check per listed strategy)
  for (const Strategy* s : listed) {
    if (s->Applicable(ctx)) ran.push_back(s);
  }

  // 1. Guards: one shared by the whole sequence, or one per racer wired to
  //    the race token. The first one also decides preemption.
  CancellationToken race_token;
  std::vector<std::unique_ptr<ResourceGuard>> guards;
  const std::size_t guard_count =
      policy.race ? std::max<std::size_t>(ran.size(), 1) : 1;
  // lint: bounded(one guard per racer)
  for (std::size_t i = 0; i < guard_count; ++i) {
    guards.push_back(std::make_unique<ResourceGuard>(
        policy.budget, policy.has_deadline, policy.deadline));
    if (policy.race) guards.back()->AddCancellation(race_token);
  }
  auto guard_of = [&](std::size_t i) {
    return guards[policy.race ? i : 0].get();
  };

  // 2. Run. The first completed definite verdict claims the win; in a race
  //    it also cancels every other racer.
  std::vector<ContainmentResult> results(ran.size());
  // Local race state, bundled so the analysis ties the winner slot to its
  // mutex even though both live on this stack frame.
  struct RaceState {
    Mutex mu{kLockRankRaceWinner, "decision-winner"};
    std::optional<std::size_t> winner GQC_GUARDED_BY(mu);
  } race_state;
  auto claimed = [&race_state]() {
    MutexLock lock(&race_state.mu);
    return race_state.winner;
  };
  auto run_one = [&](std::size_t i) {
    ContainmentResult r = ran[i]->Run(ctx, guard_of(i));
    if (r.verdict != Verdict::kUnknown) {
      bool won = false;
      {
        MutexLock lock(&race_state.mu);
        if (!race_state.winner.has_value()) {
          race_state.winner = i;
          won = true;
        }
      }
      if (won && policy.race) race_token.Cancel();
    }
    results[i] = std::move(r);
  };
  std::size_t started = 0;
  const bool parallel = policy.race && policy.pool != nullptr &&
                        policy.pool->concurrency() > 1 && ran.size() > 1;
  if (guards[0]->Recheck(GuardPhase::kSetup)) {
    // Preempted: an expired deadline or a cancelled batch runs no strategy.
  } else if (parallel) {
    if (stats) stats->portfolio_races.fetch_add(1, std::memory_order_relaxed);
    policy.pool->ParallelFor(ran.size(), run_one);
    started = ran.size();
  } else {
    // In order; strategies after the first definite verdict never start
    // (they count as neither cancelled nor inconclusive).
    // lint: bounded(in-order sweep over the applicable strategies; each Run is guard-governed)
    for (; started < ran.size() && !claimed().has_value(); ++started) {
      run_one(started);
    }
  }
  // The run is over (ParallelFor is a barrier; the sweep is this thread);
  // one locked read fixes the winner for the attribution pass.
  const std::optional<std::size_t> winner = claimed();

  // 3. Stats: the guards that governed a run (the shared one always), and
  //    each started strategy's win or loss. A racer whose guard was tripped
  //    by the race token was a casualty of the race, not inconclusive.
  if (stats) {
    // lint: bounded(one record per guard)
    for (std::size_t g = 0; g < (policy.race ? started : 1); ++g) {
      stats->RecordGuard(*guards[g]);
    }
    // lint: bounded(one record per started strategy)
    for (std::size_t i = 0; i < started; ++i) {
      if (winner == i) {
        stats->RecordStrategyWin(ran[i]->id());
      } else {
        stats->RecordStrategyLoss(
            ran[i]->id(),
            race_token.cancelled() &&
                guard_of(i)->reason() == GuardResource::kCancelled);
      }
    }
  }
  if (!winner.has_value()) return ComposeUnknown(results, guards, ran);

  ContainmentResult r = std::move(results[*winner]);
  r.attr.strategy = ran[*winner]->name();
  RecordRefutation(stats, r);
  return r;
}

ContainmentResult DecideUnion(const Ucrpq& p, const StrategyContext& ctx,
                              const DecisionPolicy& policy) {
  const std::vector<Crpq>& disjuncts = p.Disjuncts();
  std::vector<ContainmentResult> per_disjunct(disjuncts.size());
  auto decide = [&](std::size_t i) {
    StrategyContext disjunct_ctx = ctx;
    disjunct_ctx.p = &disjuncts[i];
    per_disjunct[i] = DecideDisjunct(disjunct_ctx, policy);
  };
  if (disjuncts.size() > 1 && policy.pool != nullptr &&
      policy.pool->concurrency() > 1) {
    // Concurrent decisions may only read the vocabulary.
    GQC_DCHECK(ctx.vocab_shared);
    policy.pool->ParallelFor(disjuncts.size(), decide);
  } else {
    // lint: bounded(one decision per disjunct of P)
    for (std::size_t i = 0; i < disjuncts.size(); ++i) {
      decide(i);
      if (per_disjunct[i].verdict == Verdict::kNotContained) {
        per_disjunct.resize(i + 1);
        break;
      }
    }
  }
  ContainmentResult combined = Combine(std::move(per_disjunct));
  TallyPair(ctx.stats, combined);
  return combined;
}

}  // namespace gqc
