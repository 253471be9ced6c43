// Property tests for the hot-path data structures (DESIGN.md §11): the
// open-addressing FlatMap/FlatSet are exercised against std reference
// containers under randomized insert/erase/clear/iterate churn (the erase
// path uses backward-shift deletion, which a forced-collision hasher pins
// down explicitly), MaskIndex and DynamicBitset kernels are checked against
// naive set algebra, and the flat-container-backed shared caches — and the
// BoundedTable they are all built on — are hammered from 8 threads
// (FlatContainerTest is in the tools/sanitize.sh TSan filter — the
// containers themselves are not thread-safe; the point is that the table
// mutexes still cover every probe, insert and eviction).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/automata/compile_cache.h"
#include "src/automata/regex_parser.h"
#include "src/core/caches.h"
#include "src/core/lifecycle.h"
#include "src/dl/concept_parser.h"
#include "src/dl/types.h"
#include "src/query/parser.h"
#include "src/util/arena.h"
#include "src/util/bitset.h"
#include "src/util/fingerprint.h"
#include "src/util/flat_map.h"
#include "src/util/interner.h"

namespace gqc {
namespace {

// -------------------------------------------------- FlatMap vs reference

TEST(FlatContainerTest, MapMatchesReferenceUnderChurn) {
  std::mt19937_64 rng(0xC0FFEEu);
  FlatMap<uint64_t, int> flat;
  std::unordered_map<uint64_t, int> ref;
  // Small key universe so inserts, duplicate inserts, hits, and misses all
  // occur; periodic Clear() exercises the rebuild-from-empty path.
  std::uniform_int_distribution<uint64_t> key_dist(0, 255);
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = key_dist(rng);
    switch (step % 5) {
      case 0:
      case 1: {  // insert-if-absent
        auto [slot, inserted] = flat.TryEmplace(key, step);
        auto [it, ref_inserted] = ref.try_emplace(key, step);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*slot, it->second);
        break;
      }
      case 2: {  // overwrite via operator[]
        flat[key] = step;
        ref[key] = step;
        break;
      }
      case 3: {  // erase
        ASSERT_EQ(flat.Erase(key), ref.erase(key) == 1);
        break;
      }
      case 4: {  // lookup
        int* found = flat.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    if (step % 4096 == 4095) {
      flat.Clear();
      ref.clear();
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full-content comparison via iteration, both directions.
  std::size_t visited = 0;
  flat.ForEach([&](uint64_t k, int v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "flat map holds unexpected key " << k;
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatContainerTest, StringMapMatchesReferenceUnderChurn) {
  std::mt19937_64 rng(0xBEEFu);
  FlatMap<std::string, uint64_t> flat;
  std::unordered_map<std::string, uint64_t> ref;
  std::uniform_int_distribution<int> key_dist(0, 127);
  for (int step = 0; step < 8000; ++step) {
    std::string key = "key-" + std::to_string(key_dist(rng));
    if (step % 3 == 0) {
      ASSERT_EQ(flat.Erase(key), ref.erase(key) == 1);
    } else {
      auto [slot, inserted] = flat.TryEmplace(key, step);
      auto [it, ref_inserted] = ref.try_emplace(key, step);
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*slot, it->second);
    }
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(flat.Contains(key), ref.count(key) == 1);
  }
}

TEST(FlatContainerTest, SetMatchesReferenceUnderChurn) {
  std::mt19937_64 rng(0xFEEDu);
  FlatSet<uint64_t> flat;
  std::set<uint64_t> ref;
  std::uniform_int_distribution<uint64_t> key_dist(0, 511);
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = key_dist(rng);
    if (step % 3 == 0) {
      ASSERT_EQ(flat.Erase(key), ref.erase(key) == 1);
    } else {
      ASSERT_EQ(flat.Insert(key), ref.insert(key).second);
    }
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(flat.Contains(key), ref.count(key) == 1);
  }
  std::vector<uint64_t> flat_keys;
  flat.ForEach([&](uint64_t k) { flat_keys.push_back(k); });
  std::sort(flat_keys.begin(), flat_keys.end());
  EXPECT_EQ(flat_keys, std::vector<uint64_t>(ref.begin(), ref.end()));
}

TEST(FlatContainerTest, ShrinkToFitReleasesCapacityAndKeepsEntries) {
  FlatMap<uint64_t, int> flat;
  for (uint64_t k = 0; k < 1000; ++k) flat.TryEmplace(k, static_cast<int>(k));
  std::size_t grown = flat.capacity();
  // Erase/Clear deliberately retain capacity; only ShrinkToFit gives it back.
  for (uint64_t k = 10; k < 1000; ++k) flat.Erase(k);
  EXPECT_EQ(flat.capacity(), grown);
  flat.ShrinkToFit();
  EXPECT_LT(flat.capacity(), grown);
  EXPECT_EQ(flat.size(), 10u);
  for (uint64_t k = 0; k < 10; ++k) {
    int* found = flat.Find(k);
    ASSERT_NE(found, nullptr) << "key " << k << " lost by shrink rehash";
    EXPECT_EQ(*found, static_cast<int>(k));
  }
  // Shrinking an already-tight map is a no-op; an emptied map frees all.
  std::size_t tight = flat.capacity();
  flat.ShrinkToFit();
  EXPECT_EQ(flat.capacity(), tight);
  flat.Clear();
  flat.ShrinkToFit();
  EXPECT_EQ(flat.capacity(), 0u);
  // And the empty-shrunk map still accepts inserts.
  EXPECT_TRUE(flat.TryEmplace(uint64_t{42}, 42).second);
  EXPECT_NE(flat.Find(uint64_t{42}), nullptr);
}

TEST(FlatContainerTest, SetShrinkToFitMirrorsMap) {
  FlatSet<uint64_t> flat;
  for (uint64_t k = 0; k < 500; ++k) flat.Insert(k);
  for (uint64_t k = 5; k < 500; ++k) flat.Erase(k);
  std::size_t before = flat.capacity();
  flat.ShrinkToFit();
  EXPECT_LT(flat.capacity(), before);
  for (uint64_t k = 0; k < 5; ++k) EXPECT_TRUE(flat.Contains(k));
  EXPECT_EQ(flat.size(), 5u);
}

// Forces every key into one probe chain so Erase must backward-shift later
// entries across the hole (a tombstone-free open table that fails to do this
// loses reachable keys — exactly the bug class this pins down).
struct CollidingHash {
  uint64_t operator()(const uint64_t&) const { return 7; }
};

TEST(FlatContainerTest, BackwardShiftKeepsChainReachable) {
  FlatMap<uint64_t, int, CollidingHash> flat;
  for (uint64_t k = 0; k < 9; ++k) flat.TryEmplace(k, static_cast<int>(k));
  // Erase from the middle, the head, and the tail of the chain; every
  // surviving key must stay findable after each shift.
  for (uint64_t gone : {uint64_t{4}, uint64_t{0}, uint64_t{8}}) {
    ASSERT_TRUE(flat.Erase(gone));
    ASSERT_FALSE(flat.Contains(gone));
  }
  EXPECT_EQ(flat.size(), 6u);
  for (uint64_t k : {1u, 2u, 3u, 5u, 6u, 7u}) {
    int* found = flat.Find(k);
    ASSERT_NE(found, nullptr) << "key " << k << " lost after backward shift";
    EXPECT_EQ(*found, static_cast<int>(k));
  }
  for (uint64_t k : {0u, 4u, 8u}) EXPECT_EQ(flat.Find(k), nullptr);
}

TEST(FlatContainerTest, FingerprintedKeysProbeByFingerprint) {
  FlatMap<FpKey, int, FpKeyHash> flat;
  // FpKey equality is fingerprint-then-text; two distinct texts must land in
  // distinct entries even after growth rehashes (stored hashes are reused).
  for (int i = 0; i < 200; ++i) {
    flat.TryEmplace(FpKey("scope/" + std::to_string(i)), i);
  }
  EXPECT_EQ(flat.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    int* found = flat.Find(FpKey("scope/" + std::to_string(i)));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, i);
  }
  EXPECT_EQ(flat.Find(FpKey("scope/200")), nullptr);
}

TEST(FlatContainerTest, VectorKeysSupportVisitedSets) {
  // The witness search keys its visited set on frontier signatures
  // (vector<uint64_t>); dedup must be exact, not hash-only.
  FlatSet<std::vector<uint64_t>> visited;
  EXPECT_TRUE(visited.Insert(std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(visited.Insert(std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(visited.Insert(std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(visited.Insert(std::vector<uint64_t>{}));
  EXPECT_FALSE(visited.Insert(std::vector<uint64_t>{}));
  EXPECT_EQ(visited.size(), 3u);
}

// ------------------------------------------------------ interning layers

TEST(FlatContainerTest, ArenaKeepsViewsStableAcrossGrowth) {
  StringArena arena;
  std::vector<std::string_view> views;
  std::vector<std::string> expected;
  for (int i = 0; i < 5000; ++i) {
    expected.push_back("symbol-" + std::to_string(i));
    views.push_back(arena.Intern(expected.back()));
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(views[i], expected[i]) << "arena view " << i << " moved";
  }
}

TEST(FlatContainerTest, InternerCopyIsIndependent) {
  Interner a;
  uint32_t x = a.Intern("alpha");
  uint32_t y = a.Intern("beta");
  Interner b = a;  // deep copy: rebuilt arena + index
  EXPECT_EQ(b.Intern("alpha"), x);
  EXPECT_EQ(b.Intern("beta"), y);
  uint32_t z_b = b.Intern("gamma");
  uint32_t z_a = a.Intern("gamma");
  EXPECT_EQ(z_a, z_b);  // same insertion order, same ids
  EXPECT_EQ(a.NameOf(x), "alpha");
  EXPECT_EQ(b.NameOf(z_b), "gamma");
}

// ------------------------------------------------- index/bitset kernels

TEST(FlatContainerTest, MaskIndexRoundTripsAndRejectsStrangers) {
  std::vector<uint64_t> masks = {0, 3, 4, 9, 17, 1u << 20};
  MaskIndex index(masks);
  ASSERT_EQ(index.size(), masks.size());
  for (std::size_t i = 0; i < masks.size(); ++i) {
    EXPECT_EQ(index.MaskAt(i), masks[i]);
    EXPECT_EQ(index.IndexOf(masks[i]), i);
  }
  for (uint64_t stranger : {1u, 5u, 18u, 1u << 19}) {
    EXPECT_EQ(index.IndexOf(stranger), MaskIndex::npos);
  }
}

TEST(FlatContainerTest, BitsetAlgebraMatchesSetAlgebra) {
  std::mt19937_64 rng(0xABCDu);
  constexpr std::size_t kBits = 300;  // multiple words + a partial tail word
  std::uniform_int_distribution<std::size_t> bit_dist(0, kBits - 1);
  DynamicBitset a(kBits), b(kBits);
  std::set<std::size_t> ra, rb;
  for (int i = 0; i < 120; ++i) {
    std::size_t bit = bit_dist(rng);
    a.Set(bit);
    ra.insert(bit);
    bit = bit_dist(rng);
    b.Set(bit);
    rb.insert(bit);
  }
  DynamicBitset inter = a & b;
  DynamicBitset uni = a | b;
  DynamicBitset diff = a - b;
  std::vector<std::size_t> r_inter, r_uni, r_diff;
  std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::back_inserter(r_inter));
  std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                 std::back_inserter(r_uni));
  std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                      std::back_inserter(r_diff));
  auto indices = [](const DynamicBitset& s) {
    return s.ToIndices();
  };
  EXPECT_EQ(indices(inter), r_inter);
  EXPECT_EQ(indices(uni), r_uni);
  EXPECT_EQ(indices(diff), r_diff);
  EXPECT_EQ(inter.Count(), r_inter.size());
  EXPECT_TRUE(inter.IsSubsetOf(a));
  EXPECT_TRUE(inter.IsSubsetOf(b));
  EXPECT_TRUE(diff.IsDisjointWith(b));
  // FindNext walks exactly the reference order.
  std::vector<std::size_t> walked;
  for (std::size_t i = uni.FindFirst(); i < uni.size(); i = uni.FindNext(i + 1)) {
    walked.push_back(i);
  }
  EXPECT_EQ(walked, r_uni);
}

// ------------------------------------------- 8-thread shared-cache stress

// The flat containers replaced std::unordered_map inside these shared
// components; the components' own mutexes must still serialize every probe
// and rehash. Run under TSan via tools/sanitize.sh.

TEST(FlatContainerTest, RegexCacheStress) {
  RegexCompileCache cache;
  Vocabulary vocab;
  std::vector<RegexPtr> regexes;
  for (int i = 0; i < 4; ++i) {
    auto parsed = ParseRegex("r" + std::to_string(i) + "*", &vocab);
    ASSERT_TRUE(parsed.ok());
    regexes.push_back(parsed.value());
  }
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        Semiautomaton target;
        CompiledRef ref = cache.CompileInto(regexes[(t + i) % regexes.size()],
                                            &target, nullptr);
        // r* accepts the empty word; a torn cache entry would break this.
        EXPECT_TRUE(ref.nullable);
        if (i % 64 == 63 && t == 0) cache.Clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), regexes.size());
}

TEST(FlatContainerTest, ContainmentCachesStress) {
  ContainmentCaches caches;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Thread-private, structurally identical vocabulary: the cache key is
      // the canonical TBox text, so all threads hit the same flat-map entry
      // while interning stays thread-local (the cache's documented contract).
      Vocabulary vocab;
      auto tbox = ParseTBox("A <= exists r.A\n", &vocab);
      ASSERT_TRUE(tbox.ok());
      for (int i = 0; i < 100; ++i) {
        auto normalized = caches.GetNormalized(tbox.value(), &vocab, nullptr);
        ASSERT_NE(normalized, nullptr);
        (void)caches.normalized_count();
        if (i % 32 == 31 && t == 0) caches.Clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(FlatContainerTest, BoundedTableHammerWithTinyBudget) {
  // Every operation of the one table from 8 threads at once, with a budget
  // so small that nearly every insert evicts, while two threads also evict
  // and clear. Values must never tear and the byte total must stay exact.
  PipelineStats stats;
  BoundedTable<std::shared_ptr<const std::string>> table(kLockRankLeaf,
                                                         "hammer", &stats);
  table.SetBudget(CacheBudget{/*max_entries=*/3, /*max_bytes=*/0});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        std::string name = "key-" + std::to_string((t * 7 + i) % 11);
        auto got = table.GetOrBuild(FpKey(name), [&] {
          return Built{std::make_shared<const std::string>("value-of-" + name),
                       std::size_t{16}};
        });
        ASSERT_NE(got.value, nullptr);
        EXPECT_EQ(*got.value, "value-of-" + name);
        if (auto found = table.Find(FpKey(name))) {
          EXPECT_EQ(**found, "value-of-" + name);
        }
        (void)table.retained_bytes();
        if (t == 0 && i % 16 == 0) table.Evict(0.5);
        if (t == 1 && i % 64 == 63) table.Clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::size_t recount = 0;
  table.ForEach([&](const FpKey& key, const auto&) {
    recount += key.text().size() + 16;
  });
  EXPECT_EQ(table.retained_bytes(), recount);
  EXPECT_LE(table.size(), 3u);
  EXPECT_GT(stats.cache_evictions.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace gqc
