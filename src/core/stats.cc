#include "src/core/stats.h"

#include "src/util/json.h"

namespace gqc {

void PipelineStats::RecordCountermodel(uint64_t nodes) {
  countermodel_count.fetch_add(1, std::memory_order_relaxed);
  countermodel_nodes_total.fetch_add(nodes, std::memory_order_relaxed);
  uint64_t prev = countermodel_nodes_max.load(std::memory_order_relaxed);
  while (prev < nodes && !countermodel_nodes_max.compare_exchange_weak(
                             prev, nodes, std::memory_order_relaxed)) {
  }
}

void PipelineStats::RecordGuard(const ResourceGuard& guard) {
  guards_total.fetch_add(1, std::memory_order_relaxed);
  switch (guard.reason()) {
    case GuardResource::kNone:
      break;
    case GuardResource::kDeadline:
      budget_deadline.fetch_add(1, std::memory_order_relaxed);
      break;
    case GuardResource::kSteps:
      budget_steps.fetch_add(1, std::memory_order_relaxed);
      break;
    case GuardResource::kMemory:
      budget_memory.fetch_add(1, std::memory_order_relaxed);
      break;
    case GuardResource::kCancelled:
      budget_cancelled.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  for (std::size_t p = 0; p < kGuardPhaseCount; ++p) {
    uint64_t steps = guard.steps_spent(static_cast<GuardPhase>(p));
    std::size_t bucket = 0;
    for (uint64_t s = steps; s > 0 && bucket + 1 < kSpendBuckets; s /= 10) {
      ++bucket;
    }
    spend_hist[p][bucket].fetch_add(1, std::memory_order_relaxed);
  }
}

void PipelineStats::RecordPreempted() {
  pairs_preempted.fetch_add(1, std::memory_order_relaxed);
}

void PipelineStats::RecordStrategyWin(StrategyId id) {
  strategy_wins[static_cast<std::size_t>(id)].fetch_add(
      1, std::memory_order_relaxed);
}

void PipelineStats::RecordStrategyLoss(StrategyId id, bool race_cancelled) {
  auto& arr = race_cancelled ? strategy_cancelled : strategy_inconclusive;
  arr[static_cast<std::size_t>(id)].fetch_add(1, std::memory_order_relaxed);
}

void PipelineStats::Reset() {
  for (std::atomic<uint64_t>* a :
       {&parse_ns, &normalize_ns, &screen_ns, &direct_ns, &entailment_ns,
        &reduction_ns, &batch_wall_ns, &pairs_total, &pairs_contained,
        &pairs_not_contained, &pairs_unknown, &pairs_error, &disjuncts_total,
        &normal_tbox_hits, &normal_tbox_misses, &regex_hits, &regex_misses,
        &closure_hits, &closure_misses, &schema_ctx_hits, &schema_ctx_misses,
        &query_ctx_hits, &query_ctx_misses, &compile_memo_hits,
        &compile_memo_misses, &cache_evictions, &cache_evicted_bytes,
        &cache_retained_bytes, &warmstart_loaded, &warmstart_hits,
        &warmstart_rejected, &requests_shed, &countermodel_count,
        &countermodel_nodes_total, &countermodel_nodes_max, &guards_total,
        &budget_deadline, &budget_steps, &budget_memory, &budget_cancelled,
        &pairs_preempted, &portfolio_races}) {
    a->store(0, std::memory_order_relaxed);
  }
  for (auto* arr : {&strategy_wins, &strategy_cancelled,
                    &strategy_inconclusive}) {
    for (auto& a : *arr) a.store(0, std::memory_order_relaxed);
  }
  for (auto& phase : spend_hist) {
    for (auto& bucket : phase) bucket.store(0, std::memory_order_relaxed);
  }
}

namespace {

double Ms(const std::atomic<uint64_t>& ns) {
  return static_cast<double>(ns.load(std::memory_order_relaxed)) / 1e6;
}

uint64_t V(const std::atomic<uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

void CacheEntry(JsonWriter* w, const char* name, uint64_t hits, uint64_t misses) {
  w->Key(name).BeginObject();
  w->Key("hits").UInt(hits);
  w->Key("misses").UInt(misses);
  uint64_t total = hits + misses;
  w->Key("hit_rate").Double(total == 0 ? 0.0
                                       : static_cast<double>(hits) /
                                             static_cast<double>(total));
  w->EndObject();
}

}  // namespace

std::string PipelineStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();

  w.Key("pairs").BeginObject();
  w.Key("total").UInt(V(pairs_total));
  w.Key("contained").UInt(V(pairs_contained));
  w.Key("not_contained").UInt(V(pairs_not_contained));
  w.Key("unknown").UInt(V(pairs_unknown));
  w.Key("errors").UInt(V(pairs_error));
  w.EndObject();

  w.Key("disjuncts").UInt(V(disjuncts_total));

  w.Key("strategies").BeginObject();
  for (std::size_t i = 0; i < kStrategyCount; ++i) {
    w.Key(StrategyName(static_cast<StrategyId>(i))).BeginObject();
    w.Key("wins").UInt(V(strategy_wins[i]));
    w.Key("cancelled").UInt(V(strategy_cancelled[i]));
    w.Key("inconclusive").UInt(V(strategy_inconclusive[i]));
    w.EndObject();
  }
  w.Key("portfolio_races").UInt(V(portfolio_races));
  w.EndObject();

  w.Key("phases_ms").BeginObject();
  w.Key("parse").Double(Ms(parse_ns));
  w.Key("normalize").Double(Ms(normalize_ns));
  w.Key("screen").Double(Ms(screen_ns));
  w.Key("direct_search").Double(Ms(direct_ns));
  w.Key("entailment").Double(Ms(entailment_ns));
  w.Key("reduction").Double(Ms(reduction_ns));
  w.Key("batch_wall").Double(Ms(batch_wall_ns));
  w.EndObject();

  w.Key("caches").BeginObject();
  CacheEntry(&w, "normal_tbox", V(normal_tbox_hits), V(normal_tbox_misses));
  CacheEntry(&w, "regex", V(regex_hits), V(regex_misses));
  CacheEntry(&w, "closure", V(closure_hits), V(closure_misses));
  CacheEntry(&w, "schema_context", V(schema_ctx_hits), V(schema_ctx_misses));
  CacheEntry(&w, "query_context", V(query_ctx_hits), V(query_ctx_misses));
  CacheEntry(&w, "compile_memo", V(compile_memo_hits), V(compile_memo_misses));
  w.EndObject();

  w.Key("lifecycle").BeginObject();
  w.Key("evictions").UInt(V(cache_evictions));
  w.Key("evicted_bytes").UInt(V(cache_evicted_bytes));
  w.Key("retained_bytes").UInt(V(cache_retained_bytes));
  w.Key("warmstart_loaded").UInt(V(warmstart_loaded));
  w.Key("warmstart_hits").UInt(V(warmstart_hits));
  w.Key("warmstart_rejected").UInt(V(warmstart_rejected));
  w.Key("requests_shed").UInt(V(requests_shed));
  w.EndObject();

  w.Key("countermodels").BeginObject();
  w.Key("count").UInt(V(countermodel_count));
  w.Key("nodes_total").UInt(V(countermodel_nodes_total));
  w.Key("nodes_max").UInt(V(countermodel_nodes_max));
  w.EndObject();

  w.Key("resource_governance").BeginObject();
  w.Key("guards_total").UInt(V(guards_total));
  w.Key("budget_exhausted").BeginObject();
  w.Key("deadline").UInt(V(budget_deadline));
  w.Key("steps").UInt(V(budget_steps));
  w.Key("memory").UInt(V(budget_memory));
  w.Key("cancelled").UInt(V(budget_cancelled));
  w.EndObject();
  w.Key("pairs_preempted").UInt(V(pairs_preempted));
  // spend_hist buckets: [0, 1-9, 10-99, ..., >= 10^6] guard steps.
  w.Key("phase_spend_hist").BeginObject();
  for (std::size_t p = 0; p < kGuardPhaseCount; ++p) {
    w.Key(GuardPhaseName(static_cast<GuardPhase>(p))).BeginArray();
    for (std::size_t b = 0; b < kSpendBuckets; ++b) {
      w.UInt(V(spend_hist[p][b]));
    }
    w.EndArray();
  }
  w.EndObject();
  w.EndObject();

  w.Key("throughput").BeginObject();
  double wall_s = Ms(batch_wall_ns) / 1e3;
  w.Key("pairs_per_sec")
      .Double(wall_s > 0 ? static_cast<double>(V(pairs_total)) / wall_s : 0.0);
  w.EndObject();

  w.EndObject();
  return w.Take();
}

}  // namespace gqc
