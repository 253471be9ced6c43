#ifndef GQC_ENGINE_ENGINE_CORE_H_
#define GQC_ENGINE_ENGINE_CORE_H_

#include <chrono>
#include <list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/automata/compile_cache.h"
#include "src/core/containment.h"
#include "src/core/lifecycle.h"
#include "src/entailment/compile_memo.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"

namespace gqc {

/// Options for the batch containment engine.
struct EngineOptions {
  /// Total threads deciding pairs (callers included); 0 means
  /// hardware_concurrency, 1 means fully sequential (no pool overhead).
  std::size_t threads = 1;
  /// Per-pair pipeline options. The `stats` field is ignored — the engine
  /// threads its own PipelineStats through every phase. The `strategies`
  /// list (empty = mode default) selects the strategy order in sequential
  /// mode and the racing pool in portfolio mode.
  ContainmentOptions containment;
  /// Portfolio mode: decide each disjunct by racing the applicable
  /// strategies on the pool (first definite verdict cancels the rest)
  /// instead of running them in sequential priority order. Definite
  /// verdicts are identical to sequential mode wherever sequential mode
  /// reaches one (each racer gets a fresh per-strategy budget, so the
  /// portfolio can only answer more); wall-clock and Unknown attributions
  /// differ.
  bool portfolio = false;
  /// Wall-clock deadline for one whole DecideBatch call (0 = none). Pinned
  /// when the batch starts; pairs reaching the front of the queue after it
  /// passes are preempted (Unknown, no searches run). Each pair's effective
  /// deadline is the tighter of this and `containment.resources.deadline_ms`.
  double batch_timeout_ms = 0;
};

/// One containment question, as text. `schema_text` uses the concept syntax
/// (lines with "<=") or the PG-Schema surface syntax, auto-detected; empty
/// means the empty schema. Queries use the UC2RPQ syntax (src/query/parser.h).
struct BatchItem {
  std::string id;
  std::string schema_text;
  std::string p_text;
  std::string q_text;
};

/// The engine's answer for one item. `ok` is false on parse/setup failures
/// (`error` says why); otherwise `verdict` and `attr` are exactly the
/// checker-level ContainmentResult surface (winning strategy, note, kUnknown
/// details — one shared Attribution struct, so the two cannot drift), and
/// `countermodel_nodes` is the size of the returned countermodel (or central
/// part), 0 when there is none.
struct BatchOutcome {
  std::string id;
  bool ok = false;
  std::string error;
  Verdict verdict = Verdict::kUnknown;
  Attribution attr;
  uint64_t countermodel_nodes = 0;
  double wall_ms = 0.0;
};

/// The per-pair decision core of the batch engine: context assembly,
/// the decision policy, guards, cancellation, stats — everything
/// *below* batch orchestration. The Engine facade (src/engine/engine.h)
/// layers batch fan-out on top; the serving layer (src/serve) layers
/// sessions and admission on top of the same core. Both reuse the one
/// decision path, so a pair's verdict cannot depend on which front end
/// asked (DecidePair is a pure function of the item texts given the pinned
/// options; see the determinism contract on Engine).
///
/// Shared memoized state, all keyed by exact input text (or exact canonical
/// serializations below the text level):
///   - schema contexts: schema text -> (vocabulary, normalized TBox)
///   - query contexts: (schema text, Q text) -> (vocabulary, parsed Q, and —
///     when the §3 reduction applies to (T, Q) — the Tp(T, Q̂) closure)
///   - a regex -> semiautomaton compile cache shared across all parses
///   - a compile memo for the per-solve word-mask compilations
///
/// Lifecycle (DESIGN.md §12): each of the five tables above (two context
/// tables, the regex cache, two compile-memo tables) is a BoundedTable —
/// bounded by SetCacheBudget, evictable via Evict(pressure), and measurable
/// via retained_bytes(). Context keys can be exported (ExportSnapshotKeys)
/// and re-imported (WarmStart) to persist cache warmth across process
/// restarts; only *keys* are persisted — values are recomputed on load, so a
/// snapshot can never alter a verdict.
class EngineCore {
 public:
  explicit EngineCore(EngineOptions options = {});

  /// Schema text -> parsed + normalized schema in its own vocabulary.
  struct SchemaContext {
    Vocabulary vocab;
    NormalTBox tbox;
    std::string error;  // non-empty: parse failed, other fields invalid
    /// Rebuilt from a warm-start snapshot (hits count as warmstart_hits).
    bool warm = false;
  };

  /// (schema text, Q text) -> Q parsed in a copy of the schema vocabulary,
  /// plus the precomputed Tp closure when the reduction covers (T, Q).
  struct QueryContext {
    std::shared_ptr<const SchemaContext> schema;
    Vocabulary vocab;
    Ucrpq q;
    /// The only closure pairs against this context use: null when the
    /// reduction does not cover (T, Q) or the build failed, and the
    /// reduction then does not run.
    std::shared_ptr<const TpClosure> closure;
    std::string error;  // non-empty: parse failed, other fields invalid
    bool warm = false;
  };

  /// Per-batch (or per-request) resource control: the deadline pinned at
  /// start plus the cancellation token CancelAll reaches.
  struct BatchControl {
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    CancellationToken cancel;
  };

  using ControlHandle = std::list<CancellationToken>::iterator;

  /// Decides one pair under `control`. Callable concurrently with itself.
  BatchOutcome DecidePair(const BatchItem& item, const BatchControl& control);

  /// Pins a deadline from options().batch_timeout_ms and registers the
  /// control's token with CancelAll; `handle` receives the registration to
  /// pass to FinishControl.
  BatchControl StartControl(ControlHandle* handle) GQC_EXCLUDES(cancel_mu_);
  /// Same, but with an explicit wall-clock budget for this control
  /// (serving: per-request deadlines). timeout_ms <= 0 means
  /// options().batch_timeout_ms.
  BatchControl StartControl(double timeout_ms, ControlHandle* handle)
      GQC_EXCLUDES(cancel_mu_);
  void FinishControl(ControlHandle handle) GQC_EXCLUDES(cancel_mu_);

  /// Cancels every in-flight control: their pairs unwind to
  /// Unknown("cancelled") at the next guard poll. Sticky per control only —
  /// controls started after the call are unaffected. Safe from any thread.
  void CancelAll() GQC_EXCLUDES(cancel_mu_);

  /// Bounds every memoized table (context tables, regex cache, compile
  /// memo) — the budget applies to each table separately, not to their
  /// sum. 0 = unbounded.
  void SetCacheBudget(const CacheBudget& budget);

  /// Drops ceil(size * pressure) lowest retain-score entries from every
  /// table and shrinks the backing arrays. Returns entries dropped; records
  /// lifecycle counters on stats().
  std::size_t Evict(double pressure);

  /// Summed resident-size estimates across every memoized table.
  std::size_t retained_bytes() const;

  /// Canonical keys of the memoized contexts, for snapshot persistence
  /// (src/engine/snapshot.h). Deterministic order (sorted by key text).
  struct SnapshotKeys {
    std::vector<std::string> schemas;
    /// (schema text, Q text) pairs.
    std::vector<std::pair<std::string, std::string>> queries;
  };
  SnapshotKeys ExportSnapshotKeys() const;

  /// Rebuilds contexts for the given keys (values recomputed from scratch —
  /// a snapshot carries no values) and marks them warm. Each query context
  /// is built under the step and memory budget of
  /// options().containment.resources, and one whose build trips it is
  /// dropped as on a live miss, so warm-start cannot alter verdicts. Returns
  /// the number of contexts loaded; already-present and dropped contexts are
  /// not counted.
  std::size_t WarmStart(const SnapshotKeys& keys);

  /// Total threads the core decides pairs with.
  std::size_t threads() const { return pool_.concurrency(); }
  ThreadPool& pool() { return pool_; }
  const EngineOptions& options() const { return options_; }

  PipelineStats& stats() { return stats_; }
  const PipelineStats& stats() const { return stats_; }
  /// Refreshes the lifecycle gauges/memo counters, then exports the stats.
  std::string StatsJson();

  /// Copies the compile-memo counters and the retained-bytes gauge into
  /// stats() (they live in their owners between exports).
  void RefreshLifecycleGauges();

  /// Drops memoized contexts and zeroes the stats (for measurement runs).
  void ResetState();

 private:
  using SchemaTable = BoundedTable<std::shared_ptr<const SchemaContext>>;
  using QueryTable = BoundedTable<std::shared_ptr<const QueryContext>>;

  /// The lookup-or-build path shared by live requests and warm-start. Live
  /// lookups (warm = false) count context hits and misses; warm-start
  /// lookups count nothing here (WarmStart tallies what it loads). `guard`
  /// (optional) governs the closure build on a query-context miss; a context
  /// whose closure build tripped it reflects that caller's budget, not
  /// (schema, Q), and is returned uncached.
  SchemaTable::Lookup LookupSchemaContext(const std::string& schema_text,
                                          bool warm);
  QueryTable::Lookup LookupQueryContext(const std::string& schema_text,
                                        const std::string& q_text,
                                        ResourceGuard* guard, bool warm);
  std::shared_ptr<const SchemaContext> BuildSchemaContext(
      const std::string& schema_text, bool warm);
  std::shared_ptr<const QueryContext> BuildQueryContext(
      const std::string& schema_text, const std::string& q_text,
      ResourceGuard* guard, bool warm);

  EngineOptions options_;
  /// Declared before the tables: every table counts its evictions here.
  PipelineStats stats_;
  ThreadPool pool_;
  RegexCompileCache regex_cache_{&stats_};
  /// Per-solve compiled-artifact memo, wired into every downstream search
  /// through EngineLimits (unless the caller supplied their own).
  CompiledScopeMemo compile_memo_{&stats_};
  /// Memoized contexts; values are built outside the table locks (a racing
  /// double-miss builds the identical context; first insert wins).
  SchemaTable schema_ctxs_{kLockRankEngineContext, "engine-schema-ctx",
                           &stats_};
  QueryTable query_ctxs_{kLockRankEngineContext, "engine-query-ctx",
                         &stats_};

  /// Guards the registry of in-flight control cancellation tokens (the list
  /// CancelAll walks); the tokens themselves are wait-free once copied out.
  Mutex cancel_mu_{kLockRankEngineCancel, "engine-cancel"};
  std::list<CancellationToken> active_controls_ GQC_GUARDED_BY(cancel_mu_);
};

/// Parses one JSON-lines batch item: a flat object with string fields
/// "id", "schema", "p", "q" ("id" and "schema" optional).
Result<BatchItem> ParseBatchItemJson(std::string_view json_line);

/// Serializes an outcome as one JSON line (no trailing newline).
std::string OutcomeToJson(const BatchOutcome& outcome);

}  // namespace gqc

#endif  // GQC_ENGINE_ENGINE_CORE_H_
