#ifndef GQC_CORE_FACTBOARD_H_
#define GQC_CORE_FACTBOARD_H_

#include <optional>
#include <vector>

#include "src/core/lifecycle.h"
#include "src/core/result.h"
#include "src/core/stats.h"
#include "src/graph/graph.h"
#include "src/query/ucrpq.h"
#include "src/util/fingerprint.h"
#include "src/util/sync.h"

namespace gqc {

/// Cross-strategy, cross-pair fact exchange for the portfolio runner — the
/// analogue of shared learned clauses in a racing SAT portfolio. Layered
/// *over* ContainmentCaches: the caches memoize pure (T, Q)-level state
/// (normalized TBoxes, Tp closures); the board shares facts discovered while
/// deciding individual disjuncts:
///
///  - verified countermodels, scoped by a (schema, Q) key: any graph G with
///    G ⊨ T, G ⊭ Q published under a scope refutes p ⊑_T Q for *every*
///    disjunct p it matches — one strategy's witness short-cuts sibling
///    disjuncts and later pairs against the same (T, Q);
///  - definite verdict memos keyed by a full (schema, Q, p) disjunct key —
///    refuted or certified disjuncts recurring across batch items are
///    answered without re-running any strategy.
///
/// Soundness contract: publishers only publish countermodels that were
/// re-verified (G ⊨ T and G ⊭ Q) and only definite verdicts; consumers only
/// reuse a countermodel after re-checking G ⊨ p for *their* p. Unknown
/// verdicts are never shared — they depend on the publisher's budget, not on
/// the instance.
///
/// Symbol-id safety: scope keys identify a (schema, Q) vocabulary layer, and
/// graphs are rejected at publish time unless every concept/role id they use
/// fits inside that shared base layer (`concept_limit`/`role_limit`). A
/// countermodel mentioning P-layer symbols would silently alias differently-
/// named symbols of another pair, so it stays private.
///
/// Lifecycle (DESIGN.md §12): both tables are BoundedTables. Dropping an
/// entry is always sound — a dropped fact is merely re-derived by whichever
/// strategy finds it next.
///
/// All operations are mutex-protected and safe from any thread; query
/// evaluation (the G ⊨ p re-check) runs outside the lock on copies.
class SharedFactBoard {
 public:
  /// Evictions are counted on `stats` when non-null.
  explicit SharedFactBoard(PipelineStats* stats = nullptr)
      : countermodels_(kLockRankFactBoard, "fact-board-countermodels", stats),
        results_(kLockRankFactBoard, "fact-board-results", stats) {}

  /// Max countermodels retained per scope; later publishes are dropped
  /// (counted facts come from early, cheap refutations anyway).
  static constexpr std::size_t kMaxCountermodelsPerScope = 8;

  /// Publishes a verified countermodel for `scope_key` unless the scope is
  /// full or the graph uses symbol ids outside the shared base layer
  /// (ids must satisfy concept < concept_limit, role < role_limit).
  /// Returns true iff the graph was retained. Keys are FpKeys built once per
  /// decision, so board probes never rehash the canonical scope text.
  bool PublishCountermodel(const FpKey& scope_key, const Graph& g,
                           std::size_t concept_limit, std::size_t role_limit,
                           PipelineStats* stats);

  /// Searches the scope's published countermodels for one matching `p`
  /// (G ⊨ p re-checked here); a hit refutes p ⊑_T Q with that graph as
  /// witness. Matching runs on copies outside the board lock.
  std::optional<Graph> FindRefutation(const FpKey& scope_key,
                                      const Crpq& p, PipelineStats* stats) const;

  /// Memoizes a definite verdict for one disjunct key. Unknown verdicts and
  /// results carrying graphs that do not fit the shared base layer are
  /// stored with the graphs stripped (the verdict itself is id-free).
  void PublishResult(const FpKey& disjunct_key, ContainmentResult result,
                     std::size_t concept_limit, std::size_t role_limit,
                     PipelineStats* stats);

  /// Returns the memoized definite verdict for the key, if any.
  std::optional<ContainmentResult> LookupResult(const FpKey& disjunct_key,
                                                PipelineStats* stats) const;

  /// Bounds each table (entries are scopes/verdicts; bytes are resident
  /// estimates; 0 = unbounded). Applies now and to later publishes.
  void SetBudget(const CacheBudget& budget);

  /// Drops ceil(size * pressure) lowest retain-score entries from each table;
  /// returns entries dropped.
  std::size_t Evict(double pressure);

  /// Summed resident-size estimates of every retained fact.
  std::size_t retained_bytes() const;

  void Clear();

  std::size_t countermodel_count() const;
  std::size_t result_count() const { return results_.size(); }

 private:
  /// Mutable so const lookups can refresh retain recency — logical
  /// constness: lookups never change what a key maps to.
  mutable BoundedTable<std::vector<Graph>> countermodels_;
  mutable BoundedTable<ContainmentResult> results_;
};

/// True iff every concept/role id used by `g` (labels and edges) is below
/// the given limits — i.e. the graph is expressible in the shared (schema, Q)
/// base vocabulary layer and safe to reinterpret under any extension of it.
bool GraphFitsVocabulary(const Graph& g, std::size_t concept_limit,
                         std::size_t role_limit);

}  // namespace gqc

#endif  // GQC_CORE_FACTBOARD_H_
