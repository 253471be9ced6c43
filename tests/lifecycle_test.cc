#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/compile_cache.h"
#include "src/automata/regex_parser.h"
#include "src/core/lifecycle.h"
#include "src/engine/engine.h"
#include "src/engine/snapshot.h"
#include "src/schema/workload.h"

namespace gqc {
namespace {

// ------------------------------------------------------------ unit: policies

TEST(LifecycleTest, RetainScorePrefersHotAndExpensive) {
  RetainMeta hot_expensive{/*touch=*/100, /*cost=*/1000, /*bytes=*/0};
  RetainMeta hot_cheap{/*touch=*/100, /*cost=*/10, /*bytes=*/0};
  RetainMeta cold_expensive{/*touch=*/1, /*cost=*/1000, /*bytes=*/0};
  uint64_t now = 100;
  EXPECT_GT(RetainScore(now, hot_expensive), RetainScore(now, hot_cheap));
  EXPECT_GT(RetainScore(now, hot_expensive), RetainScore(now, cold_expensive));
  // Zero cost is clamped, never a zero score.
  RetainMeta zero{/*touch=*/100, /*cost=*/0, /*bytes=*/0};
  EXPECT_GT(RetainScore(now, zero), 0.0);
}

TEST(LifecycleTest, EvictionCountIsCeilClamped) {
  EXPECT_EQ(EvictionCount(0, 0.5), 0u);
  EXPECT_EQ(EvictionCount(10, 0.0), 0u);
  EXPECT_EQ(EvictionCount(10, -1.0), 0u);
  EXPECT_EQ(EvictionCount(10, 1.0), 10u);
  EXPECT_EQ(EvictionCount(10, 2.0), 10u);
  EXPECT_EQ(EvictionCount(10, 0.5), 5u);
  EXPECT_EQ(EvictionCount(10, 0.01), 1u);  // ceil, not floor
  EXPECT_EQ(EvictionCount(3, 0.34), 2u);
}

TEST(LifecycleTest, OverBudgetDropCountTargetsSlack) {
  CacheBudget unbounded;
  EXPECT_EQ(OverBudgetDropCount(unbounded, 1000, 1 << 30), 0u);

  CacheBudget entries{/*max_entries=*/64, /*max_bytes=*/0};
  EXPECT_EQ(OverBudgetDropCount(entries, 64, 0), 0u);  // at budget: fine
  // One over: drop down to 7/8 of the bound (56), not just back to 64.
  EXPECT_EQ(OverBudgetDropCount(entries, 65, 0), 65u - 56u);

  CacheBudget bytes{/*max_entries=*/0, /*max_bytes=*/8192};
  EXPECT_EQ(OverBudgetDropCount(bytes, 16, 8192), 0u);
  // 16 entries x 1024 bytes, budget 8192: target is 7168, excess 9216,
  // per-entry 1024 -> drop 9 entries.
  EXPECT_EQ(OverBudgetDropCount(bytes, 16, 16 * 1024), 9u);
  // Byte overshoot can never ask for more entries than exist.
  EXPECT_LE(OverBudgetDropCount(bytes, 4, 1 << 28), 4u);
}

TEST(LifecycleTest, EvictLowestScoreDropsColdCheapFirstDeterministically) {
  PipelineStats stats;
  BoundedTable<int> table(kLockRankLeaf, "test-table", &stats);
  // An entry's retain cost is its build's wall time: the expensive builds
  // sleep, the cheap ones return at once.
  auto put = [&](const std::string& key, bool expensive, int value) {
    auto got = table.GetOrBuild(FpKey(key), [&] {
      if (expensive) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return Built{value, std::size_t{100}};
    });
    EXPECT_FALSE(got.hit);
  };
  put("cold-cheap", false, 1);
  put("cold-expensive", true, 2);
  put("hot-cheap", false, 3);
  put("hot-expensive", true, 4);
  // Probes age the cold entries by ~100 ticks and keep the hot ones fresh.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(table.Find(FpKey("hot-cheap")), 3);
    EXPECT_EQ(table.Find(FpKey("hot-expensive")), 4);
  }

  // Each entry holds 100 bytes plus its key text.
  Evicted freed = table.Evict(/*pressure=*/0.5);
  EXPECT_EQ(freed.entries, 2u);
  EXPECT_EQ(freed.bytes, 200 + std::string("cold-cheap").size() +
                             std::string("hot-cheap").size());
  EXPECT_EQ(stats.cache_evictions.load(std::memory_order_relaxed), 2u);
  EXPECT_EQ(stats.cache_evicted_bytes.load(std::memory_order_relaxed),
            freed.bytes);
  EXPECT_EQ(table.size(), 2u);
  // The cold-cheap and hot-cheap entries score lowest; the expensive ones
  // must survive.
  EXPECT_EQ(table.Find(FpKey("cold-expensive")), 2);
  EXPECT_EQ(table.Find(FpKey("hot-expensive")), 4);
  EXPECT_EQ(table.Find(FpKey("cold-cheap")), std::nullopt);

  // Full pressure empties the table; an empty table is a no-op.
  EXPECT_EQ(table.Evict(1.0).entries, 2u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.retained_bytes(), 0u);
  EXPECT_EQ(table.Evict(1.0).entries, 0u);
}

/// Sums key text + value size over the table: the tests below build every
/// value with bytes == value.size(), so this recount must equal the table's
/// running total.
std::size_t RecountBytes(const BoundedTable<std::string>& table) {
  std::size_t total = 0;
  table.ForEach([&](const FpKey& key, const std::string& value) {
    total += key.text().size() + value.size();
  });
  return total;
}

TEST(LifecycleTest, RetainedBytesStaysExactUnderRandomOperations) {
  BoundedTable<std::string> table(kLockRankLeaf, "test-table");
  std::mt19937 rng(20240517);
  auto key_of = [&] { return FpKey("k" + std::to_string(rng() % 24)); };
  for (int step = 0; step < 4000; ++step) {
    switch (rng() % 7) {
      case 0:
      case 1:
      case 2: {  // insert (or hit)
        std::string value(1 + rng() % 40, 'v');
        auto got = table.GetOrBuild(key_of(), [&] {
          return Built{value, value.size()};
        });
        if (!got.hit) {
          EXPECT_EQ(got.value, value);
        }
        break;
      }
      case 3: {  // declined insert: handed back, never cached
        FpKey key = key_of();
        bool present = table.Find(key).has_value();
        auto got = table.GetOrBuild(key, [] {
          return Built{std::string("declined"), 8, /*cache=*/false};
        });
        EXPECT_EQ(got.hit, present);
        if (!present) {
          EXPECT_FALSE(table.Find(key).has_value());
        }
        break;
      }
      case 4:
        table.SetBudget(CacheBudget{rng() % 12, (rng() % 2) * (rng() % 400)});
        break;
      case 5:
        table.Evict(static_cast<double>(rng() % 5) / 4.0);
        break;
      default:
        if (rng() % 16 == 0) table.Clear();
        break;
    }
    ASSERT_EQ(table.retained_bytes(), RecountBytes(table)) << "step " << step;
  }
}

TEST(LifecycleTest, GetOrBuildReturnsItsValueEvenWhenEvictedAtOnce) {
  // With room for one entry, every insert after the first evicts down to
  // one entry, often the one just built. The caller must still get its own
  // value, never a dangling slot (the ASan job runs this).
  PipelineStats stats;
  BoundedTable<std::shared_ptr<const std::string>> table(kLockRankLeaf,
                                                         "test-table", &stats);
  table.SetBudget(CacheBudget{/*max_entries=*/1, /*max_bytes=*/0});
  for (int i = 0; i < 64; ++i) {
    std::string text = "value-" + std::to_string(i);
    auto got = table.GetOrBuild(FpKey("key-" + std::to_string(i)), [&] {
      return Built{std::make_shared<const std::string>(text), text.size()};
    });
    EXPECT_FALSE(got.hit);
    ASSERT_NE(got.value, nullptr);
    EXPECT_EQ(*got.value, text);
    EXPECT_EQ(table.size(), 1u);
  }
  EXPECT_EQ(stats.cache_evictions.load(std::memory_order_relaxed), 63u);
}

TEST(LifecycleTest, RegexCacheCountsInsertEvictions) {
  // Insert-time evictions reach the stats as they happen, with no refresh.
  PipelineStats stats;
  RegexCompileCache cache(&stats);
  cache.SetBudget(CacheBudget{/*max_entries=*/1, /*max_bytes=*/0});
  Vocabulary vocab;
  for (const char* text : {"r", "s*", "r.s"}) {
    auto regex = ParseRegex(text, &vocab);
    ASSERT_TRUE(regex.ok()) << regex.error();
    Semiautomaton target;
    (void)cache.CompileInto(regex.value(), &target, &stats);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(stats.regex_misses.load(std::memory_order_relaxed), 3u);
  EXPECT_EQ(stats.cache_evictions.load(std::memory_order_relaxed), 2u);
  EXPECT_GT(stats.cache_evicted_bytes.load(std::memory_order_relaxed), 0u);
}

// --------------------------------------------------- eviction soundness (e2e)

std::vector<BatchItem> WorkloadBatch(std::size_t count, uint64_t seed) {
  WorkloadOptions wopts;
  wopts.seed = seed;
  std::vector<WorkloadInstance> instances = GenerateWorkload(wopts, count);
  std::vector<BatchItem> items;
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

void ExpectSameOutcomes(const std::vector<BatchOutcome>& base,
                        const std::vector<BatchOutcome>& out) {
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
}

TEST(LifecycleTest, EvictionNeverChangesVerdicts) {
  std::vector<BatchItem> items = WorkloadBatch(24, 7);

  EngineOptions opts;
  opts.threads = 1;
  Engine baseline(opts);
  std::vector<BatchOutcome> expected = baseline.DecideBatch(items);

  // A brutally tight budget (every table capped at 2 entries) forces
  // eviction churn on nearly every pair; interleaved full-pressure Evict
  // calls empty the caches mid-run. Verdicts must not move.
  Engine bounded(opts);
  bounded.core().SetCacheBudget(CacheBudget{/*max_entries=*/2, /*max_bytes=*/0});
  std::vector<BatchOutcome> first = bounded.DecideBatch(items);
  ExpectSameOutcomes(expected, first);

  bounded.core().Evict(/*pressure=*/1.0);
  std::vector<BatchOutcome> second = bounded.DecideBatch(items);
  ExpectSameOutcomes(expected, second);

  bounded.core().RefreshLifecycleGauges();
  EXPECT_GT(bounded.stats().cache_evictions.load(), 0u)
      << "tight budget should actually have evicted";
}

TEST(LifecycleTest, ByteBudgetBoundsRetainedBytes) {
  std::vector<BatchItem> items = WorkloadBatch(20, 13);
  EngineOptions opts;
  opts.threads = 1;
  Engine engine(opts);
  constexpr std::size_t kBudget = 64 * 1024;
  engine.core().SetCacheBudget(CacheBudget{0, kBudget});
  (void)engine.DecideBatch(items);
  // Each table is individually bounded by kBudget; the eviction slack (7/8)
  // keeps steady state under the bound per table. The engine has five
  // tables: schema and query contexts, the regex cache, and the compile
  // memo's two.
  EXPECT_LT(engine.core().retained_bytes(), 8 * kBudget);

  std::size_t before = engine.core().retained_bytes();
  engine.core().Evict(1.0);
  EXPECT_LT(engine.core().retained_bytes(), before);
  EXPECT_EQ(engine.core().retained_bytes(), 0u);
}

// ----------------------------------------------------------------- snapshots

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  EngineCore::SnapshotKeys keys;
  keys.schemas = {"", "A <= exists r.B", "A <= forall s.C\nB <= A"};
  keys.queries = {{"A <= exists r.B", "A(x), r(x, y)"},
                  {"", "r(x, y); s(x, y)"}};
  std::string bytes = EncodeSnapshot(keys);
  auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().schemas, keys.schemas);
  EXPECT_EQ(decoded.value().queries, keys.queries);
}

TEST(SnapshotTest, CorruptionIsRejectedNeverPartiallyLoaded) {
  EngineCore::SnapshotKeys keys;
  keys.schemas = {"A <= exists r.B"};
  keys.queries = {{"A <= exists r.B", "A(x)"}};
  std::string bytes = EncodeSnapshot(keys);

  // Flip one payload byte: the trailing fingerprint no longer matches.
  std::string flipped = bytes;
  flipped[10] ^= 0x40;
  EXPECT_FALSE(DecodeSnapshot(flipped).ok());

  // Truncations anywhere are structural errors.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeSnapshot(std::string_view(bytes).substr(0, cut)).ok())
        << "cut at " << cut;
  }

  // Trailing garbage is rejected (the format is self-delimiting).
  EXPECT_FALSE(DecodeSnapshot(bytes + "x").ok());

  // Wrong magic.
  std::string magic = bytes;
  magic[0] = 'X';
  EXPECT_FALSE(DecodeSnapshot(magic).ok());
}

TEST(SnapshotTest, WarmStartRoundTripThroughDisk) {
  std::vector<BatchItem> items = WorkloadBatch(12, 29);
  EngineOptions opts;
  opts.threads = 1;

  Engine first(opts);
  std::vector<BatchOutcome> expected = first.DecideBatch(items);
  EngineCore::SnapshotKeys keys = first.core().ExportSnapshotKeys();
  EXPECT_FALSE(keys.schemas.empty());
  EXPECT_FALSE(keys.queries.empty());

  std::string path = testing::TempDir() + "/gqc_lifecycle_snapshot.bin";
  auto saved = SaveSnapshot(first.core(), path);
  ASSERT_TRUE(saved.ok()) << saved.error();

  // A fresh process: loads the snapshot, rebuilds the contexts, and the
  // first batch must (a) hit the warmed entries and (b) agree bit-for-bit.
  Engine second(opts);
  auto loaded = LoadSnapshot(&second.core(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), keys.schemas.size() + keys.queries.size());
  EXPECT_EQ(second.stats().warmstart_loaded.load(), loaded.value());

  std::vector<BatchOutcome> warmed = second.DecideBatch(items);
  ExpectSameOutcomes(expected, warmed);
  EXPECT_GT(second.stats().warmstart_hits.load(), 0u)
      << "warm-started contexts should serve the repeat batch";

  // Corrupt the file on disk: the load is rejected, the core untouched.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "GQCSNAP1 this is not a valid snapshot body";
  }
  Engine third(opts);
  auto rejected = LoadSnapshot(&third.core(), path);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(third.stats().warmstart_rejected.load(), 1u);
  EXPECT_EQ(third.core().ExportSnapshotKeys().schemas.size(), 0u);
  std::vector<BatchOutcome> cold = third.DecideBatch(items);
  ExpectSameOutcomes(expected, cold);

  std::remove(path.c_str());
}

/// OutcomeToJson lines without the wall-clock field.
std::vector<std::string> OutcomeLines(const std::vector<BatchOutcome>& outcomes) {
  std::vector<std::string> lines;
  for (BatchOutcome o : outcomes) {
    o.wall_ms = 0;
    lines.push_back(OutcomeToJson(o));
  }
  return lines;
}

TEST(SnapshotTest, WarmStartUnderAStepBudgetMatchesAColdEngine) {
  // Under 2 000 steps the Tp closures for the first two Qs trip a request's
  // guard, so a cold engine decides their pairs without the reduction; an
  // engine with a larger budget builds, and exports, those closures in full.
  const std::string schema = "A and B <= bottom\nA <= B\nA <= exists s.A\n";
  const std::vector<BatchItem> items = {
      {"trips", schema, "A(x), ((r + r)*)(x, y), r(y, z), B(z)",
       "r(y, z), B(z)"},
      {"trips-too", schema, "B(x), r(x, y), A(y), ((s + s)*)(y, z)",
       "A(x), s(x, y), s(y, z)"},
      {"fits", "", "A(x), r(x, y)", "r(x, y)"},
  };
  EngineCore::SnapshotKeys keys;
  for (const BatchItem& item : items) {
    keys.schemas.push_back(item.schema_text);
    keys.queries.emplace_back(item.schema_text, item.q_text);
  }
  std::sort(keys.schemas.begin(), keys.schemas.end());
  keys.schemas.erase(std::unique(keys.schemas.begin(), keys.schemas.end()),
                     keys.schemas.end());

  EngineOptions opts;
  opts.containment.resources.max_steps = 2000;
  Engine cold(opts);
  const std::vector<std::string> expected =
      OutcomeLines(cold.DecideBatch(items));

  // Both schemas and the context that fits load; the two that trip are
  // built and dropped, as on a live miss. Warm-start is not live traffic:
  // before any request, no context counter and no warm-start hit moves.
  Engine warm(opts);
  EXPECT_EQ(warm.core().WarmStart(keys), 3u);
  const PipelineStats& stats = warm.stats();
  EXPECT_EQ(stats.schema_ctx_hits.load(), 0u);
  EXPECT_EQ(stats.schema_ctx_misses.load(), 0u);
  EXPECT_EQ(stats.query_ctx_hits.load(), 0u);
  EXPECT_EQ(stats.query_ctx_misses.load(), 0u);
  EXPECT_EQ(stats.closure_hits.load(), 0u);
  EXPECT_EQ(stats.closure_misses.load(), 0u);
  EXPECT_EQ(stats.warmstart_hits.load(), 0u);
  EXPECT_EQ(OutcomeLines(warm.DecideBatch(items)), expected);
  EXPECT_GT(warm.stats().warmstart_hits.load(), 0u);
}

TEST(SnapshotTest, FailedSaveKeepsThePreviousSnapshot) {
  std::vector<BatchItem> items = WorkloadBatch(6, 31);
  EngineOptions opts;
  opts.threads = 1;
  Engine first(opts);
  (void)first.DecideBatch(items);
  std::string path = testing::TempDir() + "/gqc_lifecycle_atomic.bin";
  auto saved = SaveSnapshot(first.core(), path);
  ASSERT_TRUE(saved.ok()) << saved.error();
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A directory squatting on the temp path makes the next save fail before
  // it writes anything; the previous snapshot must survive intact.
  std::filesystem::create_directory(path + ".tmp");
  Engine other(opts);
  (void)other.DecideBatch(WorkloadBatch(3, 37));
  EXPECT_FALSE(SaveSnapshot(other.core(), path).ok());

  Engine reloaded(opts);
  auto loaded = LoadSnapshot(&reloaded.core(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EngineCore::SnapshotKeys keys = first.core().ExportSnapshotKeys();
  EXPECT_EQ(loaded.value(), keys.schemas.size() + keys.queries.size());
  EXPECT_EQ(reloaded.core().ExportSnapshotKeys().schemas, keys.schemas);
  EXPECT_EQ(reloaded.core().ExportSnapshotKeys().queries, keys.queries);

  std::filesystem::remove(path + ".tmp");
  std::remove(path.c_str());
}

// -------------------------------------------------------------- compile memo

TEST(LifecycleTest, CompileMemoIsHitAndVerdictNeutral) {
  std::vector<BatchItem> items = WorkloadBatch(16, 41);
  // Duplicate the batch so the second half replays identical solves.
  std::vector<BatchItem> doubled = items;
  doubled.insert(doubled.end(), items.begin(), items.end());

  EngineOptions opts;
  opts.threads = 1;
  Engine memoized(opts);
  std::vector<BatchOutcome> out = memoized.DecideBatch(doubled);
  memoized.core().RefreshLifecycleGauges();
  // Any solve that compiled an artifact in the first half must be served by
  // the memo in the duplicated half (no compilations => trivially nothing
  // to hit, e.g. when every pair short-circuits before a witness search).
  if (memoized.stats().compile_memo_misses.load() > 0) {
    EXPECT_GT(memoized.stats().compile_memo_hits.load(), 0u);
  }

  // The memo must at least serve the duplicated half, and a memoized run
  // must agree with a fresh engine deciding the plain batch.
  Engine fresh(opts);
  std::vector<BatchOutcome> expected = fresh.DecideBatch(items);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(out[i].verdict, expected[i].verdict) << "item " << i;
    EXPECT_EQ(out[i].verdict, out[items.size() + i].verdict)
        << "repeat of item " << i;
  }

  // Evicting the memo mid-stream must not change anything either.
  Engine churned(opts);
  churned.core().SetCacheBudget(CacheBudget{2, 0});
  std::vector<BatchOutcome> churn_out = churned.DecideBatch(doubled);
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    EXPECT_EQ(churn_out[i].verdict, out[i].verdict) << "item " << i;
  }
}

}  // namespace
}  // namespace gqc
