// E6: end-to-end containment — "who wins" with and without a schema, and a
// constraint-ablation sweep. Expected shape: schemas make strictly more
// containments hold; dropping the responsible constraint flips the verdict
// back to not-contained (the crossover).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/core/containment.h"
#include "src/dl/concept_parser.h"
#include "src/engine/engine.h"
#include "src/query/canonical.h"
#include "src/query/parser.h"

namespace {

using namespace gqc;

// Family: chain typing constraints top ⊑ ∀ri.Li for i < k; query pair asks
// whether the last label is forced.
void BM_E6_TypingChain(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  std::string schema_text;
  std::string p_text = "Start(x0)";
  std::string q_text = "Start(x0)";
  for (int i = 0; i < k; ++i) {
    std::string role = "r" + std::to_string(i);
    std::string label = "L" + std::to_string(i);
    schema_text += "top <= forall " + role + "." + label + "\n";
    p_text += ", " + role + "(x" + std::to_string(i) + ", x" + std::to_string(i + 1) + ")";
    q_text += ", " + role + "(x" + std::to_string(i) + ", x" + std::to_string(i + 1) + ")";
  }
  q_text += ", L" + std::to_string(k - 1) + "(x" + std::to_string(k) + ")";

  std::string with_schema, without_schema;
  for (auto _ : state) {
    Vocabulary vocab;
    auto schema = ParseTBox(schema_text, &vocab);
    auto p = ParseUcrpq(p_text, &vocab);
    auto q = ParseUcrpq(q_text, &vocab);
    ContainmentChecker checker(&vocab);
    with_schema = VerdictName(checker.Decide(p.value(), q.value(), schema.value()).verdict);
    TBox empty;
    without_schema = VerdictName(checker.Decide(p.value(), q.value(), empty).verdict);
  }
  state.SetLabel("with schema: " + with_schema + " / without: " + without_schema);
}
BENCHMARK(BM_E6_TypingChain)->DenseRange(1, 4, 1)->Unit(benchmark::kMillisecond);

// Ablation: drop the one load-bearing constraint and watch the verdict flip.
void BM_E6_Ablation(benchmark::State& state) {
  bool keep_constraint = state.range(0) == 1;
  std::string schema_text = "A <= exists owns.Card\n";
  if (keep_constraint) schema_text += "top <= forall owns.Card\n";
  std::string verdict;
  for (auto _ : state) {
    Vocabulary vocab;
    auto schema = ParseTBox(schema_text, &vocab);
    auto p = ParseUcrpq("owns(x, y)", &vocab);
    auto q = ParseUcrpq("owns(x, y), Card(y)", &vocab);
    ContainmentChecker checker(&vocab);
    verdict = VerdictName(checker.Decide(p.value(), q.value(), schema.value()).verdict);
  }
  state.SetLabel(std::string(keep_constraint ? "typing kept: " : "typing dropped: ") +
                 verdict);
}
BENCHMARK(BM_E6_Ablation)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Participation ablation: the reduction/search must build witnesses.
void BM_E6_ParticipationAblation(benchmark::State& state) {
  bool keep = state.range(0) == 1;
  std::string schema_text = keep ? "A <= exists owns.Card\n" : "A <= A\n";
  std::string verdict;
  for (auto _ : state) {
    Vocabulary vocab;
    auto schema = ParseTBox(schema_text, &vocab);
    auto p = ParseUcrpq("A(x)", &vocab);
    auto q = ParseUcrpq("owns(x, y)", &vocab);
    ContainmentChecker checker(&vocab);
    verdict = VerdictName(checker.Decide(p.value(), q.value(), schema.value()).verdict);
  }
  state.SetLabel(std::string(keep ? "participation kept: " : "dropped: ") + verdict);
}
BENCHMARK(BM_E6_ParticipationAblation)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Checker-level memoization: repeated Decide calls against one schema on one
// long-lived checker, so normalization (and a Tp closure, when the reduction
// runs) is paid once. Counters expose the hit rates; ContainmentCachingTest
// checks that a fresh checker per call answers the same.
void BM_E6_CheckerCaching(benchmark::State& state) {
  Vocabulary vocab;
  // Participation constraint + fragment-eligible Q: the §3 reduction (and so
  // the closure cache) is on the path.
  auto schema = ParseTBox("A <= exists owns.Card\ntop <= forall owns.Card", &vocab);
  auto p = ParseUcrpq("A(x), owns(x, y)", &vocab);
  auto q = ParseUcrpq("owns(x, y), Card(y)", &vocab);

  PipelineStats stats;
  ContainmentOptions options;
  options.stats = &stats;
  ContainmentChecker checker(&vocab, options);
  std::string verdict;
  for (auto _ : state) {
    auto r = checker.Decide(p.value(), q.value(), schema.value());
    verdict = VerdictName(r.verdict);
    benchmark::DoNotOptimize(r);
  }
  auto rate = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses);
  };
  state.counters["normal_tbox_hit_rate"] = rate(stats.normal_tbox_hits, stats.normal_tbox_misses);
  state.counters["closure_hit_rate"] = rate(stats.closure_hits, stats.closure_misses);
  state.counters["normalize_ms_total"] = static_cast<double>(stats.normalize_ns) * 1e-6;
  state.counters["entailment_ms_total"] = static_cast<double>(stats.entailment_ns) * 1e-6;
  state.SetLabel("caching on: " + verdict);
}
BENCHMARK(BM_E6_CheckerCaching)->Unit(benchmark::kMillisecond);

// Sequential pipeline vs racing strategy portfolio on hard pairs — the
// instances where the winning strategy is NOT the one the sequential order
// tries first. Deep participation chains force countermodels near (or past)
// the default search caps: the direct strategy grinds through quotient seeds
// for hundreds of milliseconds (and at depth 13 gives up entirely) while the
// deep witness racer walks straight down the chain in single-digit
// milliseconds. The contained pair rides along to show the race does not
// slow down instances the sequential order already handles well (the winner
// just cancels the rest). Argument: 0 = sequential, 1 = portfolio.
const std::vector<BatchItem>& HardPairs() {
  static const std::vector<BatchItem>* items = [] {
    auto* out = new std::vector<BatchItem>;
    // Participation chains A0 ⊑ ∃r0.A1 ⊑ ... of depth k: P = A0(x) is not
    // contained in Q = B(x), but every countermodel carries the full chain.
    for (int k : {10, 11, 12, 13}) {
      BatchItem item;
      item.id = "deep-chain-" + std::to_string(k);
      for (int i = 0; i < k; ++i) {
        item.schema_text += "A" + std::to_string(i) + " <= exists r" +
                            std::to_string(i) + ".A" + std::to_string(i + 1) +
                            "\n";
      }
      item.p_text = "A0(x)";
      item.q_text = "B(x)";
      out->push_back(std::move(item));
    }
    // A contained pair (participation + typing): direct and reduction both
    // certify in comparable time, so the race is roughly a wash here.
    BatchItem contained;
    contained.id = "contained-typing";
    contained.schema_text = "A <= exists r.B\ntop <= forall r.B\n";
    contained.p_text = "A(x), r(x, y)";
    contained.q_text = "r(x, y), B(y)";
    out->push_back(std::move(contained));
    return out;
  }();
  return *items;
}

void BM_E6_SequentialVsPortfolio(benchmark::State& state) {
  bool portfolio = state.range(0) == 1;
  const std::vector<BatchItem>& items = HardPairs();
  std::size_t definite = 0;
  for (auto _ : state) {
    EngineOptions options;
    options.threads = 8;
    options.portfolio = portfolio;
    Engine engine(options);
    std::vector<BatchOutcome> out = engine.DecideBatch(items);
    definite = 0;
    for (const BatchOutcome& o : out) {
      if (o.ok && o.verdict != Verdict::kUnknown) ++definite;
    }
    benchmark::DoNotOptimize(out);
  }
  state.counters["definite"] = static_cast<double>(definite);
  state.counters["pairs"] = static_cast<double>(items.size());
  state.SetLabel(portfolio ? "portfolio (racing)" : "sequential order");
}
BENCHMARK(BM_E6_SequentialVsPortfolio)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Kernel: P's canonical expansions, which every disjunct decision starts
// from (DESIGN.md §11.5). Arg 0 picks P's path atom — 0 the star over two
// roles that perfbench's generator writes, 1 a star of even-length words —
// and arg 1 the maximal word length (4 is the default; the witness racer
// uses 6).
void BM_E6_CanonicalExpansions(benchmark::State& state) {
  Vocabulary vocab;
  auto p = ParseCrpq(state.range(0) == 0 ? "A(x), ((r1 + r2)*)(x, y), B(y)"
                                         : "A(x), ((r.r)*)(x, y), B(y)",
                     &vocab);
  ExpansionOptions options;
  options.max_word_length = static_cast<std::size_t>(state.range(1));
  std::size_t count = 0;
  for (auto _ : state) {
    ExpansionSet set = CanonicalExpansions(p.value(), options);
    count = set.expansions.size();
    benchmark::DoNotOptimize(set);
  }
  state.counters["expansions"] = static_cast<double>(count);
}
BENCHMARK(BM_E6_CanonicalExpansions)
    ->Args({0, 4})
    ->Args({0, 6})
    ->Args({1, 4})
    ->Args({1, 6})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
