// E9: randomized workloads — decision coverage and verdict distribution of
// the full pipeline over generated schema/query-pair instances, split by
// query class (simple vs concatenation). Batch-engine throughput is measured
// end to end by perfbench's batch-portfolio workload.

#include <benchmark/benchmark.h>

#include "src/gqc.h"

namespace {

using namespace gqc;

void RunWorkloadBench(benchmark::State& state, bool simple) {
  WorkloadOptions options;
  options.simple_queries = simple;
  options.query_atoms = static_cast<std::size_t>(state.range(0));
  options.seed = 1000;

  int contained = 0, refuted = 0, unknown = 0;
  for (auto _ : state) {
    contained = refuted = unknown = 0;
    for (const WorkloadInstance& inst : GenerateWorkload(options, 20)) {
      Vocabulary vocab;
      auto schema = ParseTBox(inst.schema_text, &vocab);
      auto p = ParseUcrpq(inst.p_text, &vocab);
      auto q = ParseUcrpq(inst.q_text, &vocab);
      if (!schema.ok() || !p.ok() || !q.ok()) continue;
      ContainmentChecker checker(&vocab);
      switch (checker.Decide(p.value(), q.value(), schema.value()).verdict) {
        case Verdict::kContained:
          ++contained;
          break;
        case Verdict::kNotContained:
          ++refuted;
          break;
        case Verdict::kUnknown:
          ++unknown;
          break;
      }
    }
  }
  state.counters["contained"] = contained;
  state.counters["not_contained"] = refuted;
  state.counters["unknown"] = unknown;
}

void BM_E9_SimpleWorkload(benchmark::State& state) {
  RunWorkloadBench(state, /*simple=*/true);
}
BENCHMARK(BM_E9_SimpleWorkload)->DenseRange(1, 2, 1)->Unit(benchmark::kMillisecond);

void BM_E9_ConcatWorkload(benchmark::State& state) {
  RunWorkloadBench(state, /*simple=*/false);
}
BENCHMARK(BM_E9_ConcatWorkload)->DenseRange(1, 2, 1)->Unit(benchmark::kMillisecond);

}  // namespace
