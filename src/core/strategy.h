#ifndef GQC_CORE_STRATEGY_H_
#define GQC_CORE_STRATEGY_H_

#include <atomic>
#include <string_view>
#include <vector>

#include "src/core/containment.h"
#include "src/core/strategy_id.h"
#include "src/util/result.h"
#include "src/util/sync.h"

namespace gqc {

/// The canonical expansions of the disjunct under decision, enumerated at
/// most once per decision: without a guard, under the configured bounds
/// (ContainmentOptions::countermodel.expansion), on first use. `screen`,
/// `direct` and `reduction` read this one set when their bounds match it;
/// guarded readers replay its guard charges (GuardedExpansions), so they
/// spend and trip exactly as if they had enumerated it themselves. The
/// decision owns it; racing strategies share it.
class DecisionExpansions {
 public:
  DecisionExpansions(const Crpq& p, const ExpansionOptions& bounds);

  DecisionExpansions(const DecisionExpansions&) = delete;
  DecisionExpansions& operator=(const DecisionExpansions&) = delete;

  /// The set if `options` has its bounds (word length and cap), else null.
  /// The first caller builds it; concurrent callers wait for that build.
  const ExpansionSet* For(const ExpansionOptions& options);

 private:
  const Crpq& p_;
  const std::size_t max_word_length_;
  const std::size_t max_expansions_;
  Mutex mu_{kLockRankDecisionExpansions, "decision-expansions"};
  std::atomic<bool> ready_{false};
  /// Written once under mu_ before ready_ is released; read-only after.
  ExpansionSet set_;
};

/// Everything one strategy run may read. All pointers are non-owning; `p`,
/// `q`, `schema`, `options` are required, the rest are optional. The context
/// is shared read-only by every strategy racing one disjunct, so a Run
/// implementation must not mutate anything reachable from it except through
/// the explicitly thread-safe members (`stats`, `caches`, `expansions`).
struct StrategyContext {
  const Crpq* p = nullptr;            // the disjunct under decision
  const Ucrpq* q = nullptr;           // the right-hand query
  const NormalTBox* schema = nullptr; // normalized TBox
  /// Precomputed Tp(T, Q̂) closure, or null. When null, `vocab_shared` is
  /// false and `caches` is set (the ContainmentChecker library path), the
  /// reduction strategy builds one through `caches`, interning fresh names
  /// into `vocab`.
  const TpClosure* closure = nullptr;
  Vocabulary* vocab = nullptr;
  /// Per-checker memo (normalized TBoxes, closures); may be null.
  ContainmentCaches* caches = nullptr;
  const ContainmentOptions* options = nullptr;
  PipelineStats* stats = nullptr;  // may be null
  /// The disjunct's shared expansion set, or null (each strategy then
  /// enumerates its own). Thread-safe.
  DecisionExpansions* expansions = nullptr;
  /// True when `vocab` is shared read-only across concurrent decisions (every
  /// engine decision: parallel disjuncts and races). Strategies must not
  /// intern symbols then; the closure-less reduction is inapplicable under a
  /// shared vocabulary.
  bool vocab_shared = false;
};

/// One pluggable decision procedure for a single connected disjunct p of P
/// against (T, Q), run by DecideDisjunct (src/core/decide.h). The four
/// registered strategies:
///
///   screen     cheap exact screens (P saturated under the schema clashes,
///              Q maps into the saturated P, classical)
///   direct     direct bounded countermodel search against the full TBox
///   witness    refutation-only deep witness search (portfolio extra)
///   reduction  full §3 reduction -> finite entailment
///
/// Contract for Run():
///  - a definite verdict (kContained / kNotContained) must be *exact* — a
///    race publishes whichever definite verdict lands first and cancels the
///    rest, so two sound strategies can never disagree;
///  - kUnknown means "inconclusive, ask someone else" (attr.note may say
///    why); the runner composes the final Unknown attribution itself;
///  - every potentially-exponential loop must poll `guard` (Charge/Recheck)
///    and unwind to kUnknown when it trips — this is how race cancellation
///    reaches a losing strategy (enforced by the strategy-run-guard lint
///    rule, tools/lint/gqc_lint.py);
///  - implementations are stateless singletons: Run must be const and
///    re-entrant (one instance races itself across disjuncts and pairs).
class Strategy {
 public:
  /// Relative cost class, cheapest first; SequentialOrder() runs cheaper
  /// strategies before more expensive ones.
  enum class Cost { kCheap = 0, kModerate, kExpensive };

  virtual ~Strategy() = default;

  virtual StrategyId id() const = 0;
  const char* name() const { return StrategyName(id()); }
  virtual Cost cost() const = 0;

  /// True iff Run could possibly produce a definite verdict for this
  /// context (fragment checks, option gates). Must be cheap.
  virtual bool Applicable(const StrategyContext& ctx) const = 0;

  /// Decides the disjunct, or returns kUnknown. `guard` may be null
  /// (unlimited); when present it is private to this run.
  [[nodiscard]] virtual ContainmentResult Run(const StrategyContext& ctx,
                                              ResourceGuard* guard) const = 0;
};

/// The registered strategy singletons, in StrategyId order.
const std::vector<const Strategy*>& AllStrategies();

/// The sequential priority order: screen, direct, reduction — exactly the
/// former hardwired pipeline, so running these in order with one shared
/// guard reproduces the pre-strategy verdicts bit for bit. The witness
/// strategy is excluded (it re-searches the direct strategy's space more
/// deeply; only a concurrent race can win anything from it). A race runs
/// AllStrategies() by default.
const std::vector<const Strategy*>& SequentialOrder();

/// Looks up a strategy by its StrategyName; null if unknown.
const Strategy* FindStrategy(std::string_view name);

/// Parses a comma-separated strategy list ("screen,direct,reduction");
/// errors on unknown or duplicate names or an empty list.
Result<std::vector<const Strategy*>> ParseStrategyList(std::string_view csv);

/// Trip details for a kUnknown verdict: the guard's reason/phase when it
/// tripped, "caps" when the search gave up on a structural cap instead.
/// Null guard (or a live one) also means "caps".
UnknownInfo UnknownFromGuard(const ResourceGuard* guard);

/// Records countermodel-size stats for a kNotContained result (no-op
/// otherwise or on a null sink). Called by the runner when a refutation
/// becomes the disjunct verdict.
void RecordRefutation(PipelineStats* stats, const ContainmentResult& r);

}  // namespace gqc

#endif  // GQC_CORE_STRATEGY_H_
