#include "src/core/portfolio.h"

#include <memory>
#include <optional>
#include <utility>

#include "src/util/sync.h"

namespace gqc {

namespace {

/// Final Unknown when no strategy answered: attribute the most informative
/// guard (a real budget trip beats race-flavoured cancellation noise) and
/// keep the last substantive strategy note.
ContainmentResult ComposeUnknown(
    const std::vector<const Strategy*>& ran,
    const std::vector<std::unique_ptr<ResourceGuard>>& guards,
    std::vector<ContainmentResult>& results) {
  ContainmentResult out;
  out.verdict = Verdict::kUnknown;
  out.attr.method = ContainmentMethod::kDirectSearch;
  std::string note;
  // lint: bounded(one result per raced strategy)
  for (std::size_t i = 0; i < ran.size(); ++i) {
    if (!results[i].attr.note.empty()) note = std::move(results[i].attr.note);
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
  if (attributed != nullptr && attributed->exhausted()) {
    out.attr.note = attributed->Describe();
  } else if (!note.empty()) {
    out.attr.note = std::move(note);
  } else {
    out.attr.note = "no countermodel within budget; containment not certified";
  }
  return out;
}

}  // namespace

ContainmentResult RunPortfolio(const StrategyContext& caller_ctx,
                               const PortfolioOptions& opts) {
  // The racers share one expansion set for this disjunct; it lives as long
  // as this decision and is built by whichever racer asks first.
  DecisionExpansions expansions(*caller_ctx.p,
                                caller_ctx.options->countermodel.expansion);
  StrategyContext ctx = caller_ctx;
  ctx.expansions = &expansions;
  PipelineStats* stats = ctx.stats;
  if (stats) stats->disjuncts_total.fetch_add(1, std::memory_order_relaxed);

  // 0. Fact board: a memoized definite verdict for this exact disjunct, or a
  //    shared countermodel (G ⊨ T, G ⊭ Q in this scope) that matches p,
  //    answers without running any strategy.
  if (opts.board != nullptr) {
    if (!opts.disjunct_key.empty()) {
      std::optional<ContainmentResult> memo =
          opts.board->LookupResult(opts.disjunct_key, stats);
      if (memo.has_value()) {
        RecordRefutation(stats, *memo);
        return std::move(*memo);
      }
    }
    if (!opts.scope_key.empty()) {
      std::optional<Graph> shared =
          opts.board->FindRefutation(opts.scope_key, *ctx.p, stats);
      if (shared.has_value()) {
        ContainmentResult r;
        r.verdict = Verdict::kNotContained;
        r.attr.method = ContainmentMethod::kDirectSearch;
        r.attr.strategy = "fact-board";
        r.attr.note = "refuted by a countermodel shared on the fact board";
        r.countermodel = std::move(shared);
        RecordRefutation(stats, r);
        if (!opts.disjunct_key.empty()) {
          opts.board->PublishResult(opts.disjunct_key, r,
                                    opts.shared_concept_limit,
                                    opts.shared_role_limit, stats);
        }
        return r;
      }
    }
  }

  // 1. Preemption: expired deadline / cancelled batch skips the race.
  {
    ResourceGuard preempt(opts.budget, opts.has_deadline, opts.deadline);
    if (preempt.Recheck(GuardPhase::kSetup)) {
      ContainmentResult r;
      r.verdict = Verdict::kUnknown;
      r.attr.unknown = UnknownFromGuard(&preempt);
      r.attr.note = preempt.Describe();
      return r;
    }
  }

  const std::vector<const Strategy*>& pool_list =
      opts.strategies.empty() ? DefaultPortfolio() : opts.strategies;
  std::vector<const Strategy*> ran;
  ran.reserve(pool_list.size());
  // lint: bounded(one applicability check per registered strategy)
  for (const Strategy* s : pool_list) {
    if (s->Applicable(ctx)) ran.push_back(s);
  }
  std::vector<ContainmentResult> results(ran.size());
  std::vector<std::unique_ptr<ResourceGuard>> guards;
  guards.reserve(ran.size());
  if (ran.empty()) return ComposeUnknown(ran, guards, results);

  // 2. The race. Each strategy runs under its own fresh guard (full budget)
  //    plus the shared race token; the first completed definite verdict
  //    claims the win and cancels everyone else.
  CancellationToken race;
  // lint: bounded(one guard per raced strategy)
  for (std::size_t i = 0; i < ran.size(); ++i) {
    guards.push_back(std::make_unique<ResourceGuard>(
        opts.budget, opts.has_deadline, opts.deadline));
    guards.back()->AddCancellation(race);
  }
  // Local race state, bundled so the analysis ties the winner slot to its
  // mutex even though both live on this stack frame.
  struct RaceState {
    Mutex mu{kLockRankRaceWinner, "portfolio-winner"};
    std::optional<std::size_t> winner GQC_GUARDED_BY(mu);
  } race_state;
  auto claimed = [&race_state]() {
    MutexLock lock(&race_state.mu);
    return race_state.winner;
  };
  auto run_one = [&](std::size_t i) {
    ContainmentResult r = ran[i]->Run(ctx, guards[i].get());
    if (r.verdict != Verdict::kUnknown) {
      bool won = false;
      {
        MutexLock lock(&race_state.mu);
        if (!race_state.winner.has_value()) {
          race_state.winner = i;
          won = true;
        }
      }
      if (won) race.Cancel();
    }
    results[i] = std::move(r);
  };
  bool raced =
      opts.pool != nullptr && opts.pool->concurrency() > 1 && ran.size() > 1;
  if (raced) {
    if (stats) stats->portfolio_races.fetch_add(1, std::memory_order_relaxed);
    opts.pool->ParallelFor(ran.size(), run_one);
  } else {
    // Degenerate race: in order, first definite wins, later strategies are
    // never started (they count as neither cancelled nor inconclusive).
    // lint: bounded(in-order sweep over the raced strategies; each Run is guard-governed)
    for (std::size_t i = 0; i < ran.size() && !claimed().has_value(); ++i) {
      run_one(i);
    }
  }
  // The race is over (ParallelFor is a barrier; the sequential sweep is this
  // thread); one locked read fixes the winner for the attribution pass.
  const std::optional<std::size_t> winner = claimed();

  // 3. Attribution + stats. A loser whose guard was tripped by cancellation
  //    after the race token fired was a casualty of the race, not a genuine
  //    inconclusive run.
  // lint: bounded(one stats record per raced strategy)
  for (std::size_t i = 0; i < ran.size(); ++i) {
    if (!raced && winner.has_value() && i > *winner) break;  // never started
    if (stats) {
      stats->RecordGuard(*guards[i]);
      if (winner.has_value() && i == *winner) {
        stats->RecordStrategyWin(ran[i]->id());
      } else {
        bool race_cancelled =
            race.cancelled() &&
            guards[i]->reason() == GuardResource::kCancelled;
        stats->RecordStrategyLoss(ran[i]->id(), race_cancelled);
      }
    }
  }
  if (!winner.has_value()) return ComposeUnknown(ran, guards, results);

  ContainmentResult r = std::move(results[*winner]);
  r.attr.strategy = ran[*winner]->name();
  RecordRefutation(stats, r);

  // 4. Publish facts: the verdict memo, plus any verified countermodel that
  //    fits the shared (schema, Q) vocabulary layer — sibling disjuncts and
  //    later pairs in the same scope can be refuted by a single Matches().
  if (opts.board != nullptr) {
    if (!opts.scope_key.empty() && r.countermodel.has_value()) {
      opts.board->PublishCountermodel(opts.scope_key, *r.countermodel,
                                      opts.shared_concept_limit,
                                      opts.shared_role_limit, stats);
    }
    if (!opts.disjunct_key.empty()) {
      opts.board->PublishResult(opts.disjunct_key, r,
                                opts.shared_concept_limit,
                                opts.shared_role_limit, stats);
    }
  }
  return r;
}

}  // namespace gqc
