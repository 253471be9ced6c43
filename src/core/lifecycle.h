#ifndef GQC_CORE_LIFECYCLE_H_
#define GQC_CORE_LIFECYCLE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/stats.h"
#include "src/util/fingerprint.h"
#include "src/util/flat_map.h"
#include "src/util/sync.h"

namespace gqc {

/// Cache-lifecycle primitives for long-running serving (DESIGN.md §12).
///
/// A batch run fills the shared caches and exits; a persistent server must
/// keep them *useful under a memory bound*. Every memo table is one
/// BoundedTable: it attaches a RetainMeta to each entry, scores entries by
/// recency × recompute-cost (the vlog GBGraph cache-retain discipline: drop
/// what is cheap to rebuild and cold, keep what is expensive and hot), and
/// evicts the lowest-scoring entries when over budget or when an explicit
/// Evict(pressure) hook fires.
///
/// Eviction is *lifecycle only*: a cache stores pure functions of its keys,
/// so dropping an entry can never change a verdict — the next request
/// recomputes the identical value (the eviction-soundness test pins this).

/// Per-table bounds. 0 = unbounded on that axis. Entry budgets are exact;
/// byte budgets compare against the table's resident-size *estimates*
/// (documented per owner), so they bound growth, not precise RSS.
struct CacheBudget {
  std::size_t max_entries = 0;
  std::size_t max_bytes = 0;

  bool bounded() const { return max_entries > 0 || max_bytes > 0; }
};

/// Retain bookkeeping attached to every table entry.
struct RetainMeta {
  uint64_t touch = 0;     ///< table tick at the last hit or insert
  uint64_t cost = 1;      ///< recompute cost (build wall ns, clamped >= 1)
  std::size_t bytes = 0;  ///< resident-size estimate, key text included
};

/// Retain score: recompute-cost discounted by age in ticks. Higher = more
/// worth keeping; eviction drops the lowest-scoring entries first. A just-hit
/// expensive entry maximizes the score; a cold cheap one minimizes it.
inline double RetainScore(uint64_t now_tick, const RetainMeta& m) {
  double age = static_cast<double>(now_tick - m.touch) + 1.0;
  return static_cast<double>(m.cost == 0 ? 1 : m.cost) / age;
}

/// How many entries an Evict(pressure) pass drops: ceil(size * pressure),
/// clamped to [0, size]. pressure >= 1 empties the table.
inline std::size_t EvictionCount(std::size_t size, double pressure) {
  if (size == 0 || pressure <= 0.0) return 0;
  if (pressure >= 1.0) return size;
  auto n = static_cast<std::size_t>(
      static_cast<double>(size) * pressure + 0.999999);
  return std::min(n, size);
}

/// Entries to drop to bring (`entries`, `bytes`) back under `budget` with
/// slack: targets 7/8 of each bound so one insert does not immediately
/// re-trigger eviction. Returns 0 when within budget or unbounded.
inline std::size_t OverBudgetDropCount(const CacheBudget& budget,
                                       std::size_t entries,
                                       std::size_t bytes) {
  std::size_t drop = 0;
  if (budget.max_entries > 0 && entries > budget.max_entries) {
    std::size_t target = budget.max_entries - budget.max_entries / 8;
    drop = std::max(drop, entries - target);
  }
  if (budget.max_bytes > 0 && bytes > budget.max_bytes && entries > 0) {
    // Approximate bytes-per-entry to convert the byte overshoot into a
    // deterministic entry count.
    std::size_t per_entry = std::max<std::size_t>(1, bytes / entries);
    std::size_t target_bytes = budget.max_bytes - budget.max_bytes / 8;
    std::size_t excess = bytes - target_bytes;
    drop = std::max(drop, std::min(entries, (excess + per_entry - 1) / per_entry));
  }
  return drop;
}

/// What a BoundedTable build returns: the value, its resident-size estimate
/// beyond the key text (the table charges the key itself), and whether the
/// value may be cached at all — one that reflects the caller's budget rather
/// than the key is handed back uncached.
template <typename V>
struct Built {
  V value;
  std::size_t bytes = 0;
  bool cache = true;
};

/// Entries and estimated bytes one eviction pass released.
struct Evicted {
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// One bounded, retain-scored memo table: FpKey -> V behind its own Mutex,
/// with its own budget, tick and running byte total. Probes compare the
/// key's fingerprint first and its exact text only on a match (FlatMap over
/// FpKey), so no collision can alias two keys.
///
/// Every value leaves the table as an owned copy (V is a shared_ptr or a
/// small value in practice): no caller ever holds a slot pointer, so budget
/// enforcement may evict and rehash at any insert without invalidating
/// anything a caller sees. Thread-safe; builds run outside the lock.
template <typename V>
class BoundedTable {
 public:
  /// An owned lookup result; `hit` says it came from the table rather than
  /// from this call's build (a lost insert race counts as a miss).
  struct Lookup {
    V value;
    bool hit = false;
  };

  /// `rank` and `name` label the table's mutex (src/util/sync.h). Every
  /// eviction is counted on `stats` (cache_evictions, cache_evicted_bytes)
  /// as it happens, when non-null.
  BoundedTable(uint32_t rank, const char* name, PipelineStats* stats = nullptr)
      : mu_(rank, name), stats_(stats) {}

  /// The value under `key`, refreshing its recency; nullopt on a miss.
  std::optional<V> Find(const FpKey& key) GQC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    Entry* hit = map_.Find(key);
    if (hit == nullptr) return std::nullopt;
    hit->meta.touch = ++tick_;
    return hit->value;
  }

  /// Lookup-or-build. A miss runs `build()` — returning a Built — outside
  /// the lock and times it as the entry's recompute cost; the value is then
  /// inserted unless the build declined it or a racing build inserted first
  /// (first insert wins, and its value is returned). Budget enforcement may
  /// evict the new entry at once; the caller still gets the value it built.
  template <typename Build>
  Lookup GetOrBuild(FpKey key, Build&& build) GQC_EXCLUDES(mu_) {
    if (std::optional<V> hit = Find(key)) return {std::move(*hit), true};
    auto start = std::chrono::steady_clock::now();
    auto built = build();
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    if (!built.cache) return {std::move(built.value), false};
    std::size_t bytes = key.text().size() + built.bytes;
    MutexLock lock(&mu_);
    auto [slot, inserted] = map_.TryEmplace(std::move(key));
    if (!inserted) return {slot->value, false};
    slot->value = built.value;
    slot->meta = {++tick_, ns <= 0 ? 1 : static_cast<uint64_t>(ns), bytes};
    bytes_ += bytes;
    EnforceBudgetLocked();
    return {std::move(built.value), false};
  }

  /// Bounds the table (0 = unbounded); applies now and to every later insert.
  void SetBudget(const CacheBudget& budget) GQC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    budget_ = budget;
    EnforceBudgetLocked();
  }

  /// Drops the ceil(size × pressure) lowest-scoring entries.
  Evicted Evict(double pressure) GQC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return EvictLocked(EvictionCount(map_.size(), pressure));
  }

  /// Summed resident-size estimates of the retained entries (a running
  /// total, not a walk).
  std::size_t retained_bytes() const GQC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return bytes_;
  }

  std::size_t size() const GQC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return map_.size();
  }

  /// Drops every entry (not counted as evictions) and resets the tick.
  void Clear() GQC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    map_.Clear();
    bytes_ = 0;
    tick_ = 0;
  }

  /// Visits every (key, value) under the lock, in unspecified order; `fn`
  /// must not reenter the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const GQC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    map_.ForEach([&](const FpKey& key, const Entry& e) { fn(key, e.value); });
  }

 private:
  struct Entry {
    V value{};
    RetainMeta meta;
  };

  void EnforceBudgetLocked() GQC_REQUIRES(mu_) {
    EvictLocked(OverBudgetDropCount(budget_, map_.size(), bytes_));
  }

  /// Drops the `drop` lowest-scoring entries, ties broken by key text. Keys
  /// are unique, so the order is total and nth_element picks the same set a
  /// full sort would.
  Evicted EvictLocked(std::size_t drop) GQC_REQUIRES(mu_) {
    drop = std::min(drop, map_.size());
    if (drop == 0) return {};
    struct Scored {
      double score;
      const FpKey* key;
      std::size_t bytes;
    };
    const uint64_t now = tick_;
    std::vector<Scored> scored;
    scored.reserve(map_.size());
    map_.ForEach([&](const FpKey& key, const Entry& e) {
      scored.push_back({RetainScore(now, e.meta), &key, e.meta.bytes});
    });
    std::nth_element(scored.begin(), scored.begin() + drop, scored.end(),
                     [](const Scored& a, const Scored& b) {
                       if (a.score != b.score) return a.score < b.score;
                       return a.key->text() < b.key->text();
                     });
    // Copy the doomed keys out first: Erase moves the slots the scoreboard
    // borrows its key pointers from.
    Evicted out{drop, 0};
    std::vector<FpKey> doomed;
    doomed.reserve(drop);
    for (std::size_t i = 0; i < drop; ++i) {
      doomed.push_back(*scored[i].key);
      out.bytes += scored[i].bytes;
    }
    for (const FpKey& key : doomed) map_.Erase(key);
    map_.ShrinkToFit();
    bytes_ -= out.bytes;
    if (stats_ != nullptr) {
      stats_->cache_evictions.fetch_add(out.entries,
                                        std::memory_order_relaxed);
      stats_->cache_evicted_bytes.fetch_add(out.bytes,
                                            std::memory_order_relaxed);
    }
    return out;
  }

  mutable Mutex mu_;
  PipelineStats* const stats_;
  CacheBudget budget_ GQC_GUARDED_BY(mu_);
  uint64_t tick_ GQC_GUARDED_BY(mu_) = 0;
  std::size_t bytes_ GQC_GUARDED_BY(mu_) = 0;
  FlatMap<FpKey, Entry, FpKeyHash> map_ GQC_GUARDED_BY(mu_);
};

}  // namespace gqc

#endif  // GQC_CORE_LIFECYCLE_H_
