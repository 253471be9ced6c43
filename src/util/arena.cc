#include "src/util/arena.h"

#include <algorithm>
#include <cstring>

namespace gqc {

std::string_view StringArena::Intern(std::string_view s) {
  if (s.empty()) return std::string_view{};
  if (blocks_.empty() ||
      blocks_.back().used + s.size() > blocks_.back().capacity) {
    // Blocks double from kFirstBlockSize up to kBlockSize: every query
    // context copies a vocabulary of a few dozen names, and a whole first
    // 64 KiB block per interner would dwarf everything else it holds.
    std::size_t next = blocks_.empty()
                           ? kFirstBlockSize
                           : std::min(2 * blocks_.back().capacity, kBlockSize);
    Block block;
    block.capacity = std::max(s.size(), next);
    block.data = std::make_unique<char[]>(block.capacity);
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_.back();
  char* dst = block.data.get() + block.used;
  std::memcpy(dst, s.data(), s.size());
  block.used += s.size();
  bytes_ += s.size();
  return std::string_view(dst, s.size());
}

void StringArena::Clear() {
  blocks_.clear();
  bytes_ = 0;
}

}  // namespace gqc
