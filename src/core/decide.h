#ifndef GQC_CORE_DECIDE_H_
#define GQC_CORE_DECIDE_H_

#include <chrono>

#include "src/core/strategy.h"
#include "src/util/thread_pool.h"

namespace gqc {

/// How a decision runs its strategies. The guard policy (`race`) is the only
/// difference between the sequential mode and the racing portfolio; both
/// modes run the same disjunct loop (DecideUnion) over the same strategy
/// runner (DecideDisjunct).
struct DecisionPolicy {
  /// Sequential (false): the applicable strategies run in order under ONE
  /// guard shared by the disjunct decision; the first definite verdict wins
  /// and later strategies never start. Race (true): every applicable
  /// strategy gets a FRESH guard from `budget` plus a shared race token; the
  /// first completed definite verdict cancels the rest. A fresh guard per
  /// racer gives each strategy at least the budget it had sequentially, which
  /// makes race definite verdicts a superset of sequential ones (budget
  /// monotonicity + soundness).
  bool race = false;
  /// Runs a race, and the disjuncts of a union, when it has more than one
  /// thread; null or one thread means in order on the calling thread.
  /// Parallel disjuncts require a read-only vocabulary (vocab_shared).
  ThreadPool* pool = nullptr;

  /// Every guard is built from this budget: step and memory budgets are per
  /// guard, so per disjunct decision (per racer in a race); the deadline,
  /// pinned once per pair, and the cancellation token are shared.
  ResourceBudget budget;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  /// Pins `budget.deadline_ms` (if set) relative to `start`, keeping the
  /// tighter of it and an already pinned deadline.
  void PinDeadline(std::chrono::steady_clock::time_point start);
};

/// The strategy runner: decides one connected disjunct `ctx.p` under
/// `policy`. The strategies are ctx.options->strategies, or by default
/// SequentialOrder() (sequential) or AllStrategies() (race); inapplicable
/// ones are skipped. An expired deadline or a cancelled token runs no
/// strategy. The winner is recorded in `Attribution::strategy`; without one
/// the kUnknown carries the most informative guard trip (a budget trip beats
/// race cancellation), or else the last strategy's note with that
/// strategy's phase and reason "caps".
///
/// Soundness under cancellation: losers unwind to kUnknown at their next
/// guard poll and are discarded; a definite verdict is only ever taken from
/// a run that completed, and completed definite verdicts are exact by the
/// Strategy contract.
///
/// Records disjunct, per-strategy win/cancelled/inconclusive, guard and
/// countermodel tallies into ctx.stats.
[[nodiscard]] ContainmentResult DecideDisjunct(const StrategyContext& ctx,
                                               const DecisionPolicy& policy);

/// The disjunct loop: decides P ⊑_T Q one connected disjunct at a time
/// (P ⊑_T Q iff every disjunct is contained). With a pool of more than one
/// thread the disjuncts run in parallel, otherwise in order up to the first
/// kNotContained. Either way the results fold in disjunct order — the first
/// kNotContained wins, any kUnknown poisons kContained — so the pair verdict
/// does not depend on the thread count. `ctx.p` is ignored. Tallies the pair
/// (TallyPair).
[[nodiscard]] ContainmentResult DecideUnion(const Ucrpq& p,
                                            const StrategyContext& ctx,
                                            const DecisionPolicy& policy);

/// Records one decided pair's verdict into `stats`; no-op on a null sink.
void TallyPair(PipelineStats* stats, const ContainmentResult& result);

}  // namespace gqc

#endif  // GQC_CORE_DECIDE_H_
