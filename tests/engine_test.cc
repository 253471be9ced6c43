#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/dl/concept_parser.h"
#include "src/engine/engine.h"
#include "src/query/parser.h"
#include "src/schema/workload.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

namespace gqc {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::vector<std::size_t> order;
  pool.ParallelFor(5, [&](std::size_t i) { order.push_back(i); });
  // No workers: the caller runs all iterations, in order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 16;
  std::atomic<int> total{0};
  pool.ParallelFor(kOuter, [&](std::size_t) {
    pool.ParallelFor(kInner, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), static_cast<int>(kOuter * kInner));
}

TEST(ThreadPoolTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(3);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// -------------------------------------------------------------------- Engine

/// Batch size for the workload-driven tests, clamped by GQC_ENGINE_TEST_ITEMS
/// when set. Sanitizer runs (tools/sanitize.sh) shrink the batches this way —
/// TSan's ~10x slowdown makes the full batches blow the ctest timeout, and
/// race coverage needs many threads, not many items.
std::size_t TestBatchSize(std::size_t full) {
  const char* env = std::getenv("GQC_ENGINE_TEST_ITEMS");
  if (env == nullptr) return full;
  std::size_t cap = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  return cap == 0 ? full : std::min(cap, full);
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

TEST(EngineTest, OneAndEightThreadsAgreeBitForBit) {
  std::vector<BatchItem> items = WorkloadItems(TestBatchSize(60), 11);

  EngineOptions opts1;
  opts1.threads = 1;
  Engine sequential(opts1);
  std::vector<BatchOutcome> base = sequential.DecideBatch(items);

  EngineOptions opts8;
  opts8.threads = 8;
  Engine parallel(opts8);
  std::vector<BatchOutcome> out = parallel.DecideBatch(items);

  ASSERT_EQ(base.size(), out.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].id, out[i].id);
    EXPECT_EQ(base[i].ok, out[i].ok) << "item " << i;
    EXPECT_EQ(base[i].error, out[i].error) << "item " << i;
    EXPECT_EQ(base[i].verdict, out[i].verdict) << "item " << i;
    EXPECT_EQ(base[i].attr.strategy, out[i].attr.strategy) << "item " << i;
    EXPECT_EQ(base[i].attr.note, out[i].attr.note) << "item " << i;
    EXPECT_EQ(base[i].countermodel_nodes, out[i].countermodel_nodes)
        << "item " << i;
  }
  EXPECT_EQ(sequential.stats().pairs_total.load(),
            parallel.stats().pairs_total.load());
}

/// OutcomeToJson without its wall-clock field.
std::string OutcomeLine(const BatchOutcome& outcome) {
  std::string line = OutcomeToJson(outcome);
  std::size_t at = line.find(",\"wall_ms\":");
  return at == std::string::npos ? line : line.substr(0, at) + "}";
}

// A union P goes through the one disjunct loop: in order up to the first
// kNotContained on one thread, in parallel on eight, folded the same way.
// Each P joins a not-contained, a budget-unknown and a contained disjunct in
// every order (and the last two alone, where the unknown poisons the
// contained). Sequential outcomes must not depend on the thread count and
// must agree with the checker's verdict and strategy; portfolio mode must
// reach the same definite verdicts.
TEST(EngineTest, UnionDisjunctsAgreeAcrossThreadsModesAndTheChecker) {
  // A participation chain C0 ⊑ ∃r0.C1 ⊑ … : a countermodel of C0(x) carries
  // the whole chain, more than the step budget lets the search build.
  std::string schema;
  for (int l = 0; l < 10; ++l) {
    schema += "C" + std::to_string(l) + " <= exists r" + std::to_string(l) +
              ".C" + std::to_string(l + 1) + "\n";
  }
  const std::string q = "B(x)";
  const std::string refuted = "A(x)";
  const std::string unknown = "C0(x)";
  const std::string contained = "A(y), B(y)";
  constexpr uint64_t kSteps = 10000;

  std::vector<std::vector<std::string>> unions = {
      {refuted, unknown, contained}, {refuted, contained, unknown},
      {unknown, refuted, contained}, {unknown, contained, refuted},
      {contained, refuted, unknown}, {contained, unknown, refuted},
      {unknown, contained},          {contained, unknown}};
  std::vector<BatchItem> items;
  for (const std::vector<std::string>& disjuncts : unions) {
    BatchItem item;
    item.id = std::to_string(items.size());
    item.schema_text = schema;
    item.q_text = q;
    for (const std::string& d : disjuncts) {
      item.p_text += (item.p_text.empty() ? "" : " ; ") + d;
    }
    items.push_back(std::move(item));
  }

  auto decide = [&](std::size_t threads, bool portfolio) {
    EngineOptions opts;
    opts.threads = threads;
    opts.portfolio = portfolio;
    opts.containment.resources.max_steps = kSteps;
    Engine engine(opts);
    return engine.DecideBatch(items);
  };
  std::vector<BatchOutcome> one = decide(1, false);
  std::vector<BatchOutcome> eight = decide(8, false);
  ASSERT_EQ(one.size(), items.size());
  ASSERT_EQ(eight.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE(items[i].p_text);
    ASSERT_TRUE(one[i].ok) << one[i].error;
    EXPECT_EQ(OutcomeLine(one[i]), OutcomeLine(eight[i]));
    if (unions[i].size() == 3) {
      EXPECT_EQ(one[i].verdict, Verdict::kNotContained);
    } else {
      EXPECT_EQ(one[i].verdict, Verdict::kUnknown);
      EXPECT_EQ(one[i].attr.unknown_reason(), "steps");
    }

    Vocabulary vocab;
    auto tbox = ParseTBox(items[i].schema_text, &vocab);
    auto p = ParseUcrpq(items[i].p_text, &vocab);
    auto qq = ParseUcrpq(items[i].q_text, &vocab);
    ASSERT_TRUE(tbox.ok() && p.ok() && qq.ok());
    ContainmentOptions copts;
    copts.resources.max_steps = kSteps;
    ContainmentChecker checker(&vocab, copts);
    ContainmentResult r = checker.Decide(p.value(), qq.value(), tbox.value());
    EXPECT_EQ(r.verdict, one[i].verdict);
    EXPECT_EQ(r.attr.strategy, one[i].attr.strategy);
  }

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("portfolio threads " + std::to_string(threads));
    std::vector<BatchOutcome> raced = decide(threads, true);
    ASSERT_EQ(raced.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (one[i].verdict == Verdict::kUnknown) continue;
      EXPECT_EQ(raced[i].verdict, one[i].verdict) << items[i].p_text;
    }
  }
}

TEST(EngineTest, RepeatedSchemasAndQueriesHitTheCaches) {
  std::vector<BatchItem> items = WorkloadItems(TestBatchSize(20), 3);
  // Duplicate the batch: every second copy must hit the (schema, Q) context
  // caches instead of re-parsing and re-normalizing.
  std::vector<BatchItem> doubled = items;
  doubled.insert(doubled.end(), items.begin(), items.end());

  EngineOptions opts;
  opts.threads = 1;
  Engine engine(opts);
  std::vector<BatchOutcome> out = engine.DecideBatch(doubled);
  ASSERT_EQ(out.size(), doubled.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(out[i].verdict, out[items.size() + i].verdict) << "item " << i;
  }

  const PipelineStats& stats = engine.stats();
  EXPECT_GE(stats.query_ctx_hits.load(), items.size());
  EXPECT_EQ(stats.query_ctx_misses.load(), items.size());
  // Workload queries reuse a small pool of path regexes.
  EXPECT_GT(stats.regex_hits.load(), 0u);
}

TEST(EngineTest, DistinctQueriesAgainstOneSchemaShareTheSchemaContext) {
  const std::string schema = "A <= exists r.B\ntop <= forall r.B";
  std::vector<BatchItem> items;
  for (const char* q : {"A(x)", "B(x)", "r(x, y)"}) {
    BatchItem item;
    item.id = q;
    item.schema_text = schema;
    item.p_text = "A(x), r(x, y), B(y)";
    item.q_text = q;
    items.push_back(std::move(item));
  }
  Engine engine;
  (void)engine.DecideBatch(items);
  const PipelineStats& stats = engine.stats();
  // Three distinct (schema, Q) contexts, but the schema parsed once.
  EXPECT_EQ(stats.query_ctx_misses.load(), 3u);
  EXPECT_EQ(stats.schema_ctx_misses.load(), 1u);
  EXPECT_EQ(stats.schema_ctx_hits.load(), 2u);
}

TEST(EngineTest, ResetStateClearsCachesAndStats) {
  std::vector<BatchItem> items = WorkloadItems(5, 19);
  Engine engine;
  (void)engine.DecideBatch(items);
  ASSERT_GT(engine.stats().pairs_total.load(), 0u);
  engine.ResetState();
  EXPECT_EQ(engine.stats().pairs_total.load(), 0u);
  EXPECT_EQ(engine.stats().schema_ctx_hits.load(), 0u);
  // After reset, the same batch repopulates from scratch (all misses again).
  (void)engine.DecideBatch(items);
  EXPECT_EQ(engine.stats().query_ctx_misses.load(), items.size());
}

TEST(EngineTest, ErrorItemsAreReportedNotFatal) {
  BatchItem bad;
  bad.id = "bad";
  bad.schema_text = "A <= exists r.";  // malformed concept syntax
  bad.p_text = "A(x)";
  bad.q_text = "A(x)";
  BatchItem good;
  good.id = "good";
  good.p_text = "r(x, y)";
  good.q_text = "r(x, y); s(x, y)";

  Engine engine;
  std::vector<BatchOutcome> out = engine.DecideBatch({bad, good});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].ok);
  EXPECT_FALSE(out[0].error.empty());
  EXPECT_TRUE(out[1].ok);
  EXPECT_EQ(out[1].verdict, Verdict::kContained);
  EXPECT_EQ(engine.stats().pairs_error.load(), 1u);
}

TEST(EngineTest, BatchItemJsonRoundTrip) {
  auto item = ParseBatchItemJson(
      R"js({"id": "i-1", "schema": "A <= exists r.B\ntop <= forall r.B",)js"
      R"js( "p": "A(x), r(x, y)", "q": "r(x, \"y\")"})js");
  ASSERT_TRUE(item.ok()) << item.error();
  EXPECT_EQ(item.value().id, "i-1");
  EXPECT_EQ(item.value().schema_text, "A <= exists r.B\ntop <= forall r.B");
  EXPECT_EQ(item.value().p_text, "A(x), r(x, y)");
  EXPECT_EQ(item.value().q_text, "r(x, \"y\")");

  EXPECT_FALSE(ParseBatchItemJson(R"js({"id": "x"})js").ok());
  EXPECT_FALSE(
      ParseBatchItemJson(R"js({"p": "A(x)", "q": "B(x)", "zz": 1})js").ok());
  EXPECT_FALSE(ParseBatchItemJson("not json").ok());
}

TEST(EngineTest, OutcomeJsonIsParseableAndComplete) {
  BatchOutcome outcome;
  outcome.id = "pair \"7\"";
  outcome.ok = true;
  outcome.verdict = Verdict::kNotContained;
  outcome.attr.strategy = "direct";
  outcome.attr.note = "line1\nline2";
  outcome.countermodel_nodes = 3;
  outcome.wall_ms = 1.5;

  std::string json = OutcomeToJson(outcome);
  auto fields = ParseFlatJsonObject(json);
  ASSERT_TRUE(fields.ok()) << fields.error() << "\n" << json;
  std::string id, verdict, strategy, note, nodes;
  for (const JsonField& f : fields.value()) {
    EXPECT_NE(f.key, "method");  // `strategy` and `note` say who and how
    if (f.key == "id") id = f.value;
    if (f.key == "verdict") verdict = f.value;
    if (f.key == "strategy") strategy = f.value;
    if (f.key == "note") note = f.value;
    if (f.key == "countermodel_nodes") nodes = f.value;
  }
  EXPECT_EQ(id, "pair \"7\"");
  EXPECT_EQ(verdict, VerdictName(Verdict::kNotContained));
  EXPECT_EQ(strategy, "direct");
  EXPECT_EQ(note, "line1\nline2");
  EXPECT_EQ(nodes, "3");
}

// Outcome JSON carries the winning strategy when one is attributed (always
// under --portfolio for definite verdicts) and omits the key when the
// strategy layer never ran.
TEST(EngineTest, OutcomeJsonCarriesWinningStrategy) {
  BatchOutcome outcome;
  outcome.id = "p";
  outcome.ok = true;
  outcome.verdict = Verdict::kContained;
  outcome.attr.strategy = "reduction";
  EXPECT_NE(OutcomeToJson(outcome).find("\"strategy\":\"reduction\""),
            std::string::npos);
  outcome.attr.strategy.clear();
  EXPECT_EQ(OutcomeToJson(outcome).find("\"strategy\""),
            std::string::npos);

  // End to end: a portfolio batch attributes every definite outcome.
  std::vector<BatchItem> items = WorkloadItems(TestBatchSize(10), 17);
  EngineOptions opts;
  opts.threads = 4;
  opts.portfolio = true;
  // Finite budget: keeps the deep witness racer from exhausting its seed
  // space on instances that end Unknown anyway.
  opts.containment.resources.max_steps = 20000;
  Engine engine(opts);
  std::vector<BatchOutcome> out = engine.DecideBatch(items);
  ASSERT_EQ(out.size(), items.size());
  bool any_definite = false;
  for (const BatchOutcome& o : out) {
    if (!o.ok || o.verdict == Verdict::kUnknown) continue;
    any_definite = true;
    EXPECT_FALSE(o.attr.strategy.empty()) << o.id;
    EXPECT_NE(OutcomeToJson(o).find("\"strategy\""), std::string::npos)
        << o.id;
  }
  EXPECT_TRUE(any_definite);
}

// ------------------------------------------------- deadlines / cancellation

// A batch whose deadline has already passed when pairs reach the front of
// the queue yields all-Unknown outcomes without running a single search, at
// 1 and at 8 threads, and the stats still account for every item.
TEST(EngineTest, ExpiredBatchDeadlinePreemptsEveryPair) {
  std::vector<BatchItem> items = WorkloadItems(TestBatchSize(12), 31);
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineOptions opts;
    opts.threads = threads;
    // One nanosecond: pinned at batch start, guaranteed past by the time any
    // pair begins.
    opts.batch_timeout_ms = 1e-6;
    Engine engine(opts);
    std::vector<BatchOutcome> out = engine.DecideBatch(items);
    ASSERT_EQ(out.size(), items.size());
    for (const BatchOutcome& o : out) {
      EXPECT_TRUE(o.ok) << o.id;
      EXPECT_EQ(o.verdict, Verdict::kUnknown) << o.id;
      EXPECT_EQ(o.attr.unknown_reason(), "deadline") << o.id;
      EXPECT_NE(o.attr.note.find("preempted"), std::string::npos) << o.id;
    }
    const PipelineStats& stats = engine.stats();
    EXPECT_EQ(stats.pairs_preempted.load(), items.size());
    EXPECT_EQ(stats.pairs_total.load(), items.size());
    EXPECT_EQ(stats.pairs_unknown.load(), items.size());
    // No guarded decision ever started — nothing was parsed or searched.
    EXPECT_EQ(stats.guards_total.load(), 0u);
    EXPECT_EQ(stats.disjuncts_total.load(), 0u);
  }
}

// CancelAll during a running batch: every item still gets an outcome, every
// definite verdict matches an uncancelled reference run (completed work is
// never thrown away or corrupted), and the verdict tallies sum to the item
// count. Exercised at 1 and 8 threads.
TEST(EngineTest, CancelAllMidBatchLeavesCompletedVerdictsIntact) {
  std::vector<BatchItem> items = WorkloadItems(TestBatchSize(40), 11);

  EngineOptions ref_opts;
  ref_opts.threads = 1;
  Engine reference(ref_opts);
  std::vector<BatchOutcome> ref = reference.DecideBatch(items);

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineOptions opts;
    opts.threads = threads;
    Engine engine(opts);
    std::vector<BatchOutcome> out;
    std::thread worker(
        [&] { out = engine.DecideBatch(items); });
    // Let some pairs complete, then cancel mid-flight. If the batch already
    // finished, the assertions below still hold (just with no cancellations).
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    engine.CancelAll();
    worker.join();

    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      SCOPED_TRACE("item " + items[i].id);
      EXPECT_EQ(out[i].ok, ref[i].ok);
      if (!out[i].ok) continue;
      if (out[i].verdict != Verdict::kUnknown) {
        // Completed before the cancellation: must be the true verdict. (The
        // note may legitimately differ — with several disjuncts, the first
        // refuting disjunct in disjunct order can change when an earlier one
        // was cancelled mid-decision.)
        EXPECT_EQ(out[i].verdict, ref[i].verdict);
      } else if (out[i].attr.unknown_reason() != "cancelled") {
        // Unknown for a non-cancellation reason must be Unknown in the
        // reference too (cancellation never invents other Unknowns).
        EXPECT_EQ(ref[i].verdict, Verdict::kUnknown);
      }
    }
    const PipelineStats& stats = engine.stats();
    EXPECT_EQ(stats.pairs_total.load() + stats.pairs_error.load(),
              items.size());
    EXPECT_EQ(stats.pairs_contained.load() + stats.pairs_not_contained.load() +
                  stats.pairs_unknown.load(),
              stats.pairs_total.load());

    // A batch started after CancelAll is unaffected (tokens are per batch).
    std::vector<BatchOutcome> fresh = engine.DecideBatch(items);
    ASSERT_EQ(fresh.size(), items.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (!fresh[i].ok) continue;
      if (fresh[i].verdict != Verdict::kUnknown) {
        EXPECT_EQ(fresh[i].verdict, ref[i].verdict) << "item " << items[i].id;
      }
    }
  }
}

TEST(EngineTest, StatsJsonExports) {
  std::vector<BatchItem> items = WorkloadItems(4, 23);
  Engine engine;
  (void)engine.DecideBatch(items);
  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"pairs\""), std::string::npos);
  EXPECT_NE(json.find("\"phases_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"caches\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput\""), std::string::npos);
}

}  // namespace
}  // namespace gqc
