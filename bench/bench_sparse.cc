// E7: the Theorem 3.2 path — participation-free TBoxes decided through
// sparse countermodels (expansion quotients + label completion) versus the
// same instances with a participation constraint added (which routes through
// witness construction / the §3 reduction). Expected shape: the
// participation-free path is exact and fast; participation adds witness
// construction cost.

#include <benchmark/benchmark.h>

#include "src/core/containment.h"
#include "src/dl/concept_parser.h"
#include "src/query/parser.h"

namespace {

using namespace gqc;

void RunPair(benchmark::State& state, const std::string& schema_text,
             const std::string& p_text, const std::string& q_text) {
  std::string verdict, strategy;
  for (auto _ : state) {
    Vocabulary vocab;
    auto schema = ParseTBox(schema_text, &vocab);
    auto p = ParseUcrpq(p_text, &vocab);
    auto q = ParseUcrpq(q_text, &vocab);
    ContainmentChecker checker(&vocab);
    auto r = checker.Decide(p.value(), q.value(), schema.value());
    verdict = VerdictName(r.verdict);
    strategy = r.attr.strategy;
  }
  state.SetLabel(verdict + " via " + strategy);
}

void BM_E7_NoParticipationContained(benchmark::State& state) {
  RunPair(state,
          "top <= forall r.B\nB <= C",
          "r(x, y)", "r(x, y), C(y)");
}
BENCHMARK(BM_E7_NoParticipationContained)->Unit(benchmark::kMillisecond);

void BM_E7_NoParticipationRefuted(benchmark::State& state) {
  RunPair(state,
          "top <= forall r.B",
          "r(x, y)", "r(x, y), C(y)");
}
BENCHMARK(BM_E7_NoParticipationRefuted)->Unit(benchmark::kMillisecond);

void BM_E7_WithParticipationContained(benchmark::State& state) {
  RunPair(state,
          "A <= exists r.B\ntop <= forall r.B",
          "A(x)", "r(x, y), B(y)");
}
BENCHMARK(BM_E7_WithParticipationContained)->Unit(benchmark::kMillisecond);

void BM_E7_WithParticipationRefuted(benchmark::State& state) {
  RunPair(state,
          "A <= exists r.B",
          "A(x)", "r(x, y), C(y)");
}
BENCHMARK(BM_E7_WithParticipationRefuted)->Unit(benchmark::kMillisecond);

// At-most sweep: the quotient search must merge witnesses as the bound
// tightens.
void BM_E7_AtMostSweep(benchmark::State& state) {
  int bound = static_cast<int>(state.range(0));
  RunPair(state,
          "A <= exists r.B\nA <= atmost " + std::to_string(bound) +
              " r.Any\ntop <= Any",
          "A(x), r(x, y), C(y)", "r(x, y), B(y), C(y)");
}
BENCHMARK(BM_E7_AtMostSweep)->DenseRange(1, 3, 1)->Unit(benchmark::kMillisecond);

}  // namespace
