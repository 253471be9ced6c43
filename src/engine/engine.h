#ifndef GQC_ENGINE_ENGINE_H_
#define GQC_ENGINE_ENGINE_H_

#include <string>
#include <vector>

#include "src/engine/engine_core.h"

namespace gqc {

/// Batch containment service: decides many (P, Q) pairs against their
/// schemas, in parallel, with shared memoized state and pipeline metrics.
///
/// Engine is the *batch orchestration* layer over EngineCore
/// (src/engine/engine_core.h): it owns batch fan-out, per-batch controls,
/// and input-order result collection, while the core owns the per-pair
/// decision path and every memoized table. The serving front end
/// (src/serve) is a sibling layer over the same core.
///
/// Parallelism: pair-level across the batch on a work-stealing pool, plus
/// disjunct-level inside a pair (a nested ParallelFor; the waiting thread
/// helps run other tasks, so nesting cannot deadlock).
///
/// Determinism: each pair's decision is a pure function of its three texts.
/// Vocabularies are layered — schema symbols first, then Q's, then the
/// closure's fresh concepts, then P's, each layer built once per distinct
/// text and copied, never mutated concurrently — so verdicts are identical
/// for any thread count and any interleaving (1-thread and N-thread runs of
/// the same batch agree bit for bit).
///
/// The engine's PipelineStats aggregates per-phase wall times, cache hit
/// rates, verdict tallies, per-strategy attribution, and countermodel sizes
/// across the batch; StatsJson() exports the snapshot (schema documented in
/// DESIGN.md).
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Decides one item (callable concurrently with itself).
  [[nodiscard]] BatchOutcome DecideOne(const BatchItem& item);

  /// Decides a batch; outcomes are returned in input order. Adds the
  /// end-to-end wall time to stats().batch_wall_ns. With `batch_timeout_ms`
  /// (or after CancelAll) pairs not yet started are preempted and in-flight
  /// pairs unwind at their next guard poll — every item still gets an
  /// outcome, and already-completed verdicts are unaffected.
  [[nodiscard]] std::vector<BatchOutcome> DecideBatch(
      const std::vector<BatchItem>& items);

  /// Cancels every in-flight DecideBatch (and DecideOne) on this engine:
  /// their pairs unwind to Unknown("cancelled") at the next guard poll.
  /// Sticky per batch only — batches started after the call are unaffected.
  /// Safe from any thread.
  void CancelAll() { core_.CancelAll(); }

  /// Total threads the engine decides pairs with.
  std::size_t threads() const { return core_.threads(); }

  PipelineStats& stats() { return core_.stats(); }
  const PipelineStats& stats() const { return core_.stats(); }
  std::string StatsJson() { return core_.StatsJson(); }

  /// The layered decision core (session/serving layers build on it
  /// directly; batch callers rarely need it).
  EngineCore& core() { return core_; }
  const EngineCore& core() const { return core_; }

  /// Drops memoized contexts and zeroes the stats (for measurement runs).
  void ResetState() { core_.ResetState(); }

 private:
  EngineCore core_;
};

}  // namespace gqc

#endif  // GQC_ENGINE_ENGINE_H_
