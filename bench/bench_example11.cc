// E1: the paper's Example 1.1 (Fig. 1). Regenerates the containment matrix
// for q1/q2 with and without the credit-card schema, plus the exactly-decided
// miniature. Expected shape (EXPERIMENTS.md):
//   - without schema: q2 ⊑ q1 (contained: q1 maps into q2), q1 ⋢ q2
//     (counterexample),
//   - with schema: no counterexample in either direction (q1 ≡_S q2),
//   - miniature partner ⊑_S partner ∧ RetailCompany: contained (exact).

#include <benchmark/benchmark.h>

#include "src/core/containment.h"
#include "src/query/parser.h"
#include "src/schema/pg_schema.h"

namespace {

using namespace gqc;

struct Setup {
  Vocabulary vocab;
  Ucrpq q1, q2, mini_p, mini_q;
  TBox schema;
  TBox empty;

  Setup() {
    schema = CreditCardSchema(&vocab);
    q1 = ParseUcrpq("(owns . earns . partner . (partof-)*)(x, y)", &vocab).value();
    q2 = ParseUcrpq(
             "(owns . earns . partner)(x, z), RetailCompany(z), (partof-)*(z, y)",
             &vocab)
             .value();
    mini_p = ParseUcrpq("partner(x, y)", &vocab).value();
    mini_q = ParseUcrpq("partner(x, y), RetailCompany(y)", &vocab).value();
  }
};

void BM_E1_q1_in_q2_no_schema(benchmark::State& state) {
  Setup s;
  std::string verdict;
  for (auto _ : state) {
    ContainmentChecker checker(&s.vocab);
    verdict = VerdictName(checker.Decide(s.q1, s.q2, s.empty).verdict);
  }
  state.SetLabel("q1⊑q2 no-schema: " + verdict + " (expect not-contained)");
}
BENCHMARK(BM_E1_q1_in_q2_no_schema)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_E1_q2_in_q1_no_schema(benchmark::State& state) {
  Setup s;
  std::string verdict;
  for (auto _ : state) {
    ContainmentChecker checker(&s.vocab);
    verdict = VerdictName(checker.Decide(s.q2, s.q1, s.empty).verdict);
  }
  state.SetLabel("q2⊑q1 no-schema: " + verdict + " (expect contained)");
}
BENCHMARK(BM_E1_q2_in_q1_no_schema)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_E1_q1_in_q2_with_schema(benchmark::State& state) {
  Setup s;
  std::string verdict;
  for (auto _ : state) {
    ContainmentChecker checker(&s.vocab);
    verdict = VerdictName(checker.Decide(s.q1, s.q2, s.schema).verdict);
  }
  state.SetLabel("q1⊑_S q2: " + verdict + " (expect no counterexample)");
}
BENCHMARK(BM_E1_q1_in_q2_with_schema)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_E1_miniature_exact(benchmark::State& state) {
  Setup s;
  std::string verdict;
  for (auto _ : state) {
    ContainmentChecker checker(&s.vocab);
    verdict = VerdictName(checker.Decide(s.mini_p, s.mini_q, s.schema).verdict);
  }
  state.SetLabel("partner⊑_S partner∧Retail: " + verdict + " (expect contained)");
}
BENCHMARK(BM_E1_miniature_exact)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_E1_miniature_no_schema(benchmark::State& state) {
  Setup s;
  std::string verdict;
  for (auto _ : state) {
    ContainmentChecker checker(&s.vocab);
    verdict = VerdictName(checker.Decide(s.mini_p, s.mini_q, s.empty).verdict);
  }
  state.SetLabel("partner⊑ partner∧Retail: " + verdict + " (expect not-contained)");
}
BENCHMARK(BM_E1_miniature_no_schema)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
