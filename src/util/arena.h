#ifndef GQC_UTIL_ARENA_H_
#define GQC_UTIL_ARENA_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace gqc {

/// Append-only byte arena handing out stable string_views.
///
/// Canonical cache keys and interned vocabulary names are written once and
/// read many times; storing each in its own std::string pays one heap
/// allocation per string and scatters them across the heap. The arena packs
/// them into blocks that double from 512 bytes to 64 KiB: one allocation per
/// ~64 KiB of text once an arena is large, little slack while it is small,
/// and the returned views stay valid until Clear() (blocks are never
/// reallocated or shrunk).
class StringArena {
 public:
  StringArena() = default;
  StringArena(StringArena&&) = default;
  StringArena& operator=(StringArena&&) = default;

  /// Copies `s` into the arena; the returned view is stable until Clear().
  std::string_view Intern(std::string_view s);

  /// Drops every block. Invalidates all previously returned views.
  void Clear();

  /// Total bytes interned (not counting block slack).
  std::size_t bytes() const { return bytes_; }

 private:
  static constexpr std::size_t kFirstBlockSize = 512;
  static constexpr std::size_t kBlockSize = 64 * 1024;

  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  std::vector<Block> blocks_;
  std::size_t bytes_ = 0;
};

}  // namespace gqc

#endif  // GQC_UTIL_ARENA_H_
