// Strategy API + racing portfolio tests (src/core/decide.h).
//
// The load-bearing property is determinism of DEFINITE verdicts: racing
// strategies with per-strategy budgets and first-definite-wins cancellation
// must agree with the sequential pipeline wherever the sequential pipeline
// is definite, at every thread count (soundness makes all definite verdicts
// equal; per-strategy fresh budgets make the portfolio at least as strong).
// Unknown attributions (who gave up, with which note) are explicitly NOT
// compared — they are scheduling-dependent by design.
//
// Instance sources: the three-oracle cross-validation generator
// (tests/brute_oracle.h) for participation-heavy schema pairs, plus the
// deterministic benchmark workload (src/schema/workload.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/decide.h"
#include "src/core/strategy.h"
#include "src/dl/concept_parser.h"
#include "src/dl/normalize.h"
#include "src/engine/engine.h"
#include "src/query/parser.h"
#include "src/schema/workload.h"
#include "tests/brute_oracle.h"

namespace gqc {
namespace {

using testing_oracle::Generate;
using testing_oracle::GeneratedInstance;

std::size_t TestBatchSize(std::size_t full) {
  const char* env = std::getenv("GQC_ENGINE_TEST_ITEMS");
  if (env == nullptr) return full;
  std::size_t cap = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  return cap == 0 ? full : std::min(cap, full);
}

/// Containment items built from the cross-validation generator: the seeds
/// that exercise the three oracles also exercise every strategy (the TBoxes
/// mix participation constraints with plain inclusions).
std::vector<BatchItem> CrossvalItems(uint64_t first_seed, std::size_t count) {
  std::vector<BatchItem> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    GeneratedInstance inst = Generate(first_seed + i);
    BatchItem item;
    item.id = "xval-" + std::to_string(first_seed + i);
    item.schema_text = inst.tbox_text;
    item.p_text = inst.tau_concept + "(x)";
    item.q_text = inst.query_text;
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<BatchItem> WorkloadItems(std::size_t count, uint64_t seed) {
  WorkloadOptions wopts;
  wopts.seed = seed;
  std::vector<WorkloadInstance> instances = GenerateWorkload(wopts, count);
  std::vector<BatchItem> items;
  items.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    BatchItem item;
    item.id = std::to_string(i);
    item.schema_text = instances[i].schema_text;
    item.p_text = instances[i].p_text;
    item.q_text = instances[i].q_text;
    items.push_back(std::move(item));
  }
  return items;
}

// ------------------------------------------------------------------ registry

TEST(StrategyRegistryTest, NamesRoundTripAndOrdersAreConsistent) {
  ASSERT_EQ(AllStrategies().size(), kStrategyCount);
  for (const Strategy* s : AllStrategies()) {
    EXPECT_EQ(FindStrategy(s->name()), s);
    EXPECT_STREQ(StrategyName(s->id()), s->name());
  }
  EXPECT_EQ(FindStrategy("nope"), nullptr);

  // Sequential order is the former hardwired pipeline: screen, direct,
  // reduction — no witness (it only pays off in a race).
  const auto& seq = SequentialOrder();
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0]->id(), StrategyId::kScreen);
  EXPECT_EQ(seq[1]->id(), StrategyId::kDirect);
  EXPECT_EQ(seq[2]->id(), StrategyId::kReduction);
  // Cheapest first.
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_LE(static_cast<int>(seq[i - 1]->cost()),
              static_cast<int>(seq[i]->cost()));
  }
}

TEST(StrategyRegistryTest, ParseStrategyListAcceptsAndRejects) {
  auto ok = ParseStrategyList("screen,direct,reduction");
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_EQ(ok.value().size(), 3u);
  EXPECT_EQ(ok.value()[1]->id(), StrategyId::kDirect);

  EXPECT_FALSE(ParseStrategyList("").ok());
  EXPECT_FALSE(ParseStrategyList("screen,,direct").ok());
  EXPECT_FALSE(ParseStrategyList("screen,frobnicate").ok());
  EXPECT_FALSE(ParseStrategyList("direct,direct").ok());
}

// ------------------------------------------------- checker-level strategies

TEST(StrategyTest, ExplicitSequentialOrderMatchesDefault) {
  std::vector<BatchItem> items = CrossvalItems(1, TestBatchSize(40));
  for (const BatchItem& item : items) {
    Vocabulary v1, v2;
    auto t1 = ParseTBox(item.schema_text, &v1);
    auto t2 = ParseTBox(item.schema_text, &v2);
    ASSERT_TRUE(t1.ok() && t2.ok());
    auto p1 = ParseUcrpq(item.p_text, &v1);
    auto q1 = ParseUcrpq(item.q_text, &v1);
    auto p2 = ParseUcrpq(item.p_text, &v2);
    auto q2 = ParseUcrpq(item.q_text, &v2);
    ASSERT_TRUE(p1.ok() && q1.ok() && p2.ok() && q2.ok());

    ContainmentChecker implicit_order(&v1);
    ContainmentOptions explicit_opts;
    explicit_opts.strategies = SequentialOrder();
    ContainmentChecker explicit_order(&v2, explicit_opts);

    ContainmentResult a = implicit_order.Decide(p1.value(), q1.value(), t1.value());
    ContainmentResult b = explicit_order.Decide(p2.value(), q2.value(), t2.value());
    SCOPED_TRACE(item.id);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.attr.strategy, b.attr.strategy);
    EXPECT_EQ(a.attr.note, b.attr.note);
  }
}

TEST(StrategyTest, RestrictedStrategyListOnlyRunsListedStrategies) {
  // A pair the screen cannot decide: containment needs a search, so a
  // screen-only checker must answer kUnknown while the default answers
  // definitely.
  Vocabulary vocab;
  auto tbox = ParseTBox("A <= exists r.A\n", &vocab);
  ASSERT_TRUE(tbox.ok());
  auto p = ParseUcrpq("A(x)", &vocab);
  auto q = ParseUcrpq("B(x)", &vocab);
  ASSERT_TRUE(p.ok() && q.ok());

  ContainmentOptions screen_only;
  screen_only.strategies = {FindStrategy("screen")};
  ContainmentChecker restricted(&vocab, screen_only);
  ContainmentResult r = restricted.Decide(p.value(), q.value(), tbox.value());
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_TRUE(r.attr.strategy.empty());

  ContainmentChecker full(&vocab);
  ContainmentResult f = full.Decide(p.value(), q.value(), tbox.value());
  EXPECT_EQ(f.verdict, Verdict::kNotContained);
  EXPECT_FALSE(f.attr.strategy.empty());
}

TEST(StrategyTest, WinningStrategyIsAttributed) {
  std::vector<BatchItem> items = CrossvalItems(50, TestBatchSize(30));
  for (const BatchItem& item : items) {
    Vocabulary vocab;
    auto tbox = ParseTBox(item.schema_text, &vocab);
    ASSERT_TRUE(tbox.ok());
    auto p = ParseUcrpq(item.p_text, &vocab);
    auto q = ParseUcrpq(item.q_text, &vocab);
    ASSERT_TRUE(p.ok() && q.ok());
    ContainmentChecker checker(&vocab);
    ContainmentResult r = checker.Decide(p.value(), q.value(), tbox.value());
    SCOPED_TRACE(item.id);
    if (r.verdict != Verdict::kUnknown) {
      EXPECT_NE(FindStrategy(r.attr.strategy), nullptr)
          << "definite verdict without a registered winning strategy: \""
          << r.attr.strategy << "\"";
    } else {
      EXPECT_TRUE(r.attr.unknown.has_value());
    }
  }
}

// ------------------------------------------------------ portfolio (engine)

/// The acceptance property: portfolio definite verdicts are identical to
/// sequential ones on the cross-validation seeds at 1, 2, and 8 threads —
/// and sequential definites never degrade to portfolio unknowns. Both
/// engines run under the same step budget: the sequential pipeline shares
/// one guard across its strategies while the portfolio hands every racer a
/// fresh guard, so each portfolio strategy sees at least the budget it had
/// sequentially (budget monotonicity) — sequential-definite therefore
/// implies portfolio-definite, and soundness makes the verdicts equal.
/// The finite budget also keeps the deep witness strategy from exhausting
/// its (much larger) seed space on hard unknown instances.
TEST(PortfolioTest, DefiniteVerdictsMatchSequentialAtEveryThreadCount) {
  constexpr uint64_t kSteps = 60000;
  std::vector<BatchItem> items = CrossvalItems(1, TestBatchSize(60));
  {
    std::vector<BatchItem> extra = WorkloadItems(TestBatchSize(20), 11);
    items.insert(items.end(), extra.begin(), extra.end());
  }

  EngineOptions seq_opts;
  seq_opts.threads = 1;
  seq_opts.containment.resources.max_steps = kSteps;
  Engine sequential(seq_opts);
  std::vector<BatchOutcome> base = sequential.DecideBatch(items);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    EngineOptions opts;
    opts.threads = threads;
    opts.portfolio = true;
    opts.containment.resources.max_steps = kSteps;
    Engine portfolio(opts);
    std::vector<BatchOutcome> out = portfolio.DecideBatch(items);
    ASSERT_EQ(base.size(), out.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " item " +
                   items[i].id);
      EXPECT_EQ(base[i].ok, out[i].ok);
      if (!base[i].ok) continue;
      if (base[i].verdict != Verdict::kUnknown) {
        EXPECT_EQ(out[i].verdict, base[i].verdict);
      } else if (out[i].verdict != Verdict::kUnknown) {
        // The portfolio may answer where sequential gave up (fresh budgets,
        // deep witness strategy) but never the other way around — and a new
        // definite answer must come from a real strategy.
        EXPECT_FALSE(out[i].attr.strategy.empty());
      }
      if (out[i].verdict != Verdict::kUnknown) {
        EXPECT_FALSE(out[i].attr.strategy.empty());
      }
    }
  }
}

/// An unknown that no guard tripped names the phase of the strategy that
/// gave up (here the reduction, whose Tp computation hits a cap), in both
/// modes.
TEST(PortfolioTest, CapsUnknownNamesThePhaseThatGaveUp) {
  BatchItem item;
  item.id = "caps";
  item.schema_text = "A <= exists r.A";
  item.p_text = "A(x), (r.r.r.r.r.r.r.r.r.r)(x, y)";
  item.q_text = "B(x)";
  for (bool portfolio : {false, true}) {
    SCOPED_TRACE(portfolio ? "portfolio" : "sequential");
    EngineOptions opts;
    opts.threads = portfolio ? 2 : 1;
    opts.portfolio = portfolio;
    opts.containment.resources.max_steps = 2000;
    Engine engine(opts);
    std::vector<BatchOutcome> out = engine.DecideBatch({item});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].verdict, Verdict::kUnknown);
    EXPECT_EQ(out[0].attr.unknown_reason(), "caps");
    EXPECT_EQ(out[0].attr.unknown_phase(), "reduction");
  }
}

TEST(PortfolioTest, StatsExposeStrategiesAndNoBoardBlock) {
  std::vector<BatchItem> items = CrossvalItems(100, TestBatchSize(30));
  EngineOptions opts;
  opts.threads = 4;
  opts.portfolio = true;
  Engine engine(opts);
  std::vector<BatchOutcome> out = engine.DecideBatch(items);
  ASSERT_EQ(out.size(), items.size());

  const PipelineStats& stats = engine.stats();
  uint64_t wins = 0;
  for (std::size_t i = 0; i < kStrategyCount; ++i) {
    wins += stats.strategy_wins[i].load();
  }
  EXPECT_GT(wins, 0u);

  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"strategies\""), std::string::npos);
  EXPECT_NE(json.find("\"portfolio_races\""), std::string::npos);
  EXPECT_NE(json.find("\"screen\""), std::string::npos);
  EXPECT_NE(json.find("\"witness\""), std::string::npos);
  // Strategies are the one attribution record; there is no methods block,
  // and no pair is answered from another pair's facts, so there is no
  // board block either.
  EXPECT_EQ(json.find("\"methods\""), std::string::npos);
  EXPECT_EQ(json.find("board"), std::string::npos);
}

TEST(PortfolioTest, RestrictedRaceListIsHonored) {
  // Racing only the screen cannot decide a pair that needs a search.
  std::vector<BatchItem> items;
  BatchItem item;
  item.id = "needs-search";
  item.schema_text = "A <= exists r.A\n";
  item.p_text = "A(x)";
  item.q_text = "B(x)";
  items.push_back(item);

  EngineOptions opts;
  opts.threads = 2;
  opts.portfolio = true;
  opts.containment.strategies = {FindStrategy("screen")};
  Engine engine(opts);
  std::vector<BatchOutcome> out = engine.DecideBatch(items);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_TRUE(out[0].ok) << out[0].error;
  EXPECT_EQ(out[0].verdict, Verdict::kUnknown);

  EngineOptions full_opts;
  full_opts.threads = 2;
  full_opts.portfolio = true;
  Engine full(full_opts);
  std::vector<BatchOutcome> full_out = full.DecideBatch(items);
  ASSERT_EQ(full_out.size(), 1u);
  EXPECT_EQ(full_out[0].verdict, Verdict::kNotContained);
}

// ---------------------------------------------------- portfolio (raw runner)

TEST(PortfolioTest, RawRunnerAgreesWithChecker) {
  Vocabulary vocab;
  auto tbox = ParseTBox("A <= exists r.A\n", &vocab);
  ASSERT_TRUE(tbox.ok());
  NormalTBox normal = Normalize(tbox.value(), &vocab);
  auto p = ParseUcrpq("A(x)", &vocab);
  auto q = ParseUcrpq("B(x)", &vocab);
  ASSERT_TRUE(p.ok() && q.ok());

  ContainmentOptions copts;
  PipelineStats stats;
  copts.stats = &stats;
  ContainmentChecker checker(&vocab, copts);
  EXPECT_EQ(checker.Decide(p.value(), q.value(), normal).verdict,
            Verdict::kNotContained);

  StrategyContext ctx;
  ctx.p = &p.value().Disjuncts()[0];
  ctx.q = &q.value();
  ctx.schema = &normal;
  ctx.vocab = &vocab;
  ctx.options = &checker.options();
  ctx.stats = &stats;
  ctx.vocab_shared = true;

  ThreadPool pool(4);
  DecisionPolicy policy;
  policy.race = true;
  policy.pool = &pool;

  uint64_t races_before = stats.portfolio_races.load();
  ContainmentResult raced = DecideDisjunct(ctx, policy);
  EXPECT_EQ(raced.verdict, Verdict::kNotContained);
  EXPECT_FALSE(raced.attr.strategy.empty());
  ASSERT_TRUE(raced.countermodel.has_value());
  EXPECT_EQ(stats.portfolio_races.load(), races_before + 1);
}

/// A pair's verdict depends on its own texts only: deciding it after
/// another pair of the same (schema, Q), before it, or alone gives the same
/// answer at every thread count. Pair a's one-node countermodel (an A node
/// with an r self-loop) also refutes pair b, whose own budgeted search does
/// not find one; nothing one pair learns may answer another.
TEST(PortfolioTest, VerdictsDoNotDependOnBatchOrder) {
  const std::string schema = "A <= exists r.A\n";
  const BatchItem a{"a", schema, "A(x)", "B(x)"};
  const BatchItem b{"b", schema, "A(x), (r.r.r.r.r.r.r.r.r.r)(x, y)", "B(x)"};
  const std::vector<std::vector<BatchItem>> batches = {{a, b}, {b, a}, {b}};
  std::vector<std::string> seen;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const std::vector<BatchItem>& batch : batches) {
      EngineOptions opts;
      opts.threads = threads;
      opts.portfolio = true;
      opts.containment.resources.max_steps = 20000;
      Engine engine(opts);
      std::vector<BatchOutcome> out = engine.DecideBatch(batch);
      ASSERT_EQ(out.size(), batch.size());
      for (const BatchOutcome& o : out) {
        ASSERT_TRUE(o.ok) << o.error;
        if (o.id == "b") seen.push_back(VerdictName(o.verdict));
      }
    }
  }
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[0]) << "run " << i << " of [a, b], [b, a], [b] "
                                << "at 1 then 2 threads";
  }
}

}  // namespace
}  // namespace gqc
