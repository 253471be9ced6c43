#ifndef GQC_UTIL_FLAT_MAP_H_
#define GQC_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/fingerprint.h"
#include "src/util/invariant.h"

namespace gqc {

/// Open-addressing hash containers for the reasoning hot paths.
///
/// FlatMap/FlatSet replace std::unordered_map/set where probe cost matters:
/// one contiguous slot array (power-of-two capacity, linear probing) plus a
/// parallel array of 64-bit hashes, so a probe compares 8 bytes per step and
/// touches the key itself only on a hash match. With fingerprinted keys
/// (FpKey) the stored hash IS the precomputed content fingerprint — lookups
/// never rehash the key bytes, and the exact-equality fallback preserves the
/// "no fingerprint collision can alias" guarantee of the shared caches.
///
/// Erase uses backward-shift deletion (no tombstones), so probe chains never
/// degrade under churn. Requirements: Key and Value default-constructible and
/// move-assignable. NOT thread-safe — callers guard with their own Mutex
/// (BoundedTable and SessionRegistry do).

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Default hasher: stable, well-mixed 64-bit hashes. Integers go through
/// SplitMix64; strings through FNV-1a; integer vectors through a mix chain.
template <typename T, typename Enable = void>
struct FlatHash;

template <typename T>
struct FlatHash<T, std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>>> {
  uint64_t operator()(const T& v) const {
    return SplitMix64(static_cast<uint64_t>(v));
  }
};

template <>
struct FlatHash<std::string> {
  uint64_t operator()(std::string_view v) const { return Fnv1a64(v); }
};

template <>
struct FlatHash<std::string_view> {
  uint64_t operator()(std::string_view v) const { return Fnv1a64(v); }
};

template <typename T>
struct FlatHash<std::vector<T>, std::enable_if_t<std::is_integral_v<T>>> {
  uint64_t operator()(const std::vector<T>& v) const {
    uint64_t h = SplitMix64(v.size());
    for (const T& x : v) {
      h = SplitMix64(h ^ static_cast<uint64_t>(x));
    }
    return h;
  }
};

template <typename Key, typename Value, typename Hash = FlatHash<Key>>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot-array capacity (0 before the first insert). Stays put across
  /// Clear()/Erase(); only ShrinkToFit() gives memory back.
  std::size_t capacity() const { return hashes_.size(); }

  void Clear() {
    hashes_.clear();
    slots_.clear();
    size_ = 0;
  }

  /// Releases slot memory a shrinking map retains: rehashes down to the
  /// smallest power-of-two capacity holding the current entries within the
  /// load-factor bound, or frees everything when empty. Clear()/Erase()
  /// deliberately keep capacity (steady-state workloads re-fill); a
  /// long-lived process calls this after eviction storms so RSS drops.
  void ShrinkToFit() {
    if (size_ == 0) {
      std::vector<uint64_t>().swap(hashes_);
      std::vector<Slot>().swap(slots_);
      return;
    }
    std::size_t target = NormalizeCapacity(size_);
    if (target < hashes_.size()) Rehash(target);
  }

  /// Grows capacity so `n` entries fit without rehashing.
  void Reserve(std::size_t n) {
    std::size_t needed = NormalizeCapacity(n);
    if (needed > hashes_.size()) Rehash(needed);
  }

  Value* Find(const Key& key) {
    std::size_t idx = FindSlot(key);
    return idx == kNoSlot ? nullptr : &slots_[idx].value;
  }
  const Value* Find(const Key& key) const {
    std::size_t idx = FindSlot(key);
    return idx == kNoSlot ? nullptr : &slots_[idx].value;
  }
  bool Contains(const Key& key) const { return FindSlot(key) != kNoSlot; }

  /// Inserts `key` with a Value built from `args` unless present; returns
  /// the value slot and whether an insert happened (std::map::try_emplace
  /// contract).
  template <typename K, typename... Args>
  std::pair<Value*, bool> TryEmplace(K&& key, Args&&... args) {
    GrowIfNeeded();
    uint64_t h = HashOf(key);
    std::size_t mask = hashes_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(h) & mask;
    while (hashes_[idx] != kEmpty) {
      if (hashes_[idx] == h && slots_[idx].key == key) {
        return {&slots_[idx].value, false};
      }
      idx = (idx + 1) & mask;
    }
    hashes_[idx] = h;
    slots_[idx].key = Key(std::forward<K>(key));
    slots_[idx].value = Value(std::forward<Args>(args)...);
    ++size_;
    return {&slots_[idx].value, true};
  }

  Value& operator[](const Key& key) { return *TryEmplace(key).first; }

  /// Removes `key`; returns whether it was present. Backward-shift deletion
  /// keeps every surviving entry reachable without tombstones.
  bool Erase(const Key& key) {
    std::size_t hole = FindSlot(key);
    if (hole == kNoSlot) return false;
    std::size_t mask = hashes_.size() - 1;
    std::size_t next = (hole + 1) & mask;
    while (hashes_[next] != kEmpty) {
      std::size_t home = static_cast<std::size_t>(hashes_[next]) & mask;
      // The entry at `next` may fill the hole iff its probe chain passes
      // through the hole: hole ∈ [home, next) in cyclic probe order.
      if (((hole - home) & mask) < ((next - home) & mask)) {
        hashes_[hole] = hashes_[next];
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    hashes_[hole] = kEmpty;
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] != kEmpty) fn(slots_[i].key, slots_[i].value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] != kEmpty) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
  };

  static constexpr uint64_t kEmpty = 0;
  static constexpr std::size_t kNoSlot = SIZE_MAX;
  static constexpr std::size_t kMinCapacity = 16;

  template <typename K>
  uint64_t HashOf(const K& key) const {
    uint64_t h = Hash{}(key);
    return h == kEmpty ? uint64_t{1} : h;  // reserve 0 for empty slots
  }

  static std::size_t NormalizeCapacity(std::size_t n) {
    // Keep load factor at or below 3/4.
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;
    return cap;
  }

  template <typename K>
  std::size_t FindSlot(const K& key) const {
    if (hashes_.empty()) return kNoSlot;
    uint64_t h = HashOf(key);
    std::size_t mask = hashes_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(h) & mask;
    while (hashes_[idx] != kEmpty) {
      if (hashes_[idx] == h && slots_[idx].key == key) return idx;
      idx = (idx + 1) & mask;
    }
    return kNoSlot;
  }

  void GrowIfNeeded() {
    if (hashes_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > hashes_.size() * 3) {
      Rehash(hashes_.size() * 2);
    }
  }

  void Rehash(std::size_t new_capacity) {
    GQC_DCHECK((new_capacity & (new_capacity - 1)) == 0);
    std::vector<uint64_t> old_hashes = std::move(hashes_);
    std::vector<Slot> old_slots = std::move(slots_);
    hashes_.assign(new_capacity, kEmpty);
    slots_.assign(new_capacity, Slot{});
    std::size_t mask = new_capacity - 1;
    for (std::size_t i = 0; i < old_hashes.size(); ++i) {
      if (old_hashes[i] == kEmpty) continue;
      // Stored hashes are reused verbatim — rehashing never re-reads keys.
      std::size_t idx = static_cast<std::size_t>(old_hashes[i]) & mask;
      while (hashes_[idx] != kEmpty) idx = (idx + 1) & mask;
      hashes_[idx] = old_hashes[i];
      slots_[idx] = std::move(old_slots[i]);
    }
  }

  std::vector<uint64_t> hashes_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Set counterpart of FlatMap; same probing, storage, and guarantees.
template <typename Key, typename Hash = FlatHash<Key>>
class FlatSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  std::size_t capacity() const { return map_.capacity(); }
  void Clear() { map_.Clear(); }
  void Reserve(std::size_t n) { map_.Reserve(n); }
  void ShrinkToFit() { map_.ShrinkToFit(); }

  bool Contains(const Key& key) const { return map_.Contains(key); }

  /// Returns true iff `key` was newly inserted.
  template <typename K>
  bool Insert(K&& key) {
    return map_.TryEmplace(std::forward<K>(key)).second;
  }

  bool Erase(const Key& key) { return map_.Erase(key); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&](const Key& k, const Monostate&) { fn(k); });
  }

 private:
  struct Monostate {};
  FlatMap<Key, Monostate, Hash> map_;
};

}  // namespace gqc

#endif  // GQC_UTIL_FLAT_MAP_H_
