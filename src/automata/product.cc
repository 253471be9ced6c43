#include "src/automata/product.h"

#include <algorithm>

namespace gqc {

void AtomTargetsInto(const Graph& g, const Semiautomaton& a, uint32_t s,
                     uint32_t t, bool allow_empty, NodeId u,
                     ProductBuffers* buffers, uint64_t* out) {
  const std::size_t states = a.StateCount();
  const std::size_t row_words = (g.NodeCount() + 63) / 64;
  std::fill(out, out + row_words, uint64_t{0});
  std::vector<uint64_t>& visited = buffers->visited;
  visited.assign((g.NodeCount() * states + 63) / 64, 0);
  std::vector<std::pair<NodeId, uint32_t>>& queue = buffers->queue;
  queue.clear();

  auto set_target = [out](NodeId v) { out[v >> 6] |= uint64_t{1} << (v & 63); };
  // Marks (v, q) visited; false if it already was.
  auto visit = [&visited, states](NodeId v, uint32_t q) {
    const std::size_t i = std::size_t{v} * states + q;
    const uint64_t bit = uint64_t{1} << (i & 63);
    if (visited[i >> 6] & bit) return false;
    visited[i >> 6] |= bit;
    return true;
  };

  visit(u, s);
  queue.emplace_back(u, s);
  if (s == t || allow_empty) set_target(u);

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [v, q] = queue[head];
    for (const auto& [sym, q2] : a.Out(q)) {
      if (sym.is_test()) {
        if (g.SatisfiesLiteral(v, sym.literal()) && visit(v, q2)) {
          if (q2 == t) set_target(v);
          queue.emplace_back(v, q2);
        }
      } else {
        g.ForEachSuccessor(v, sym.role(), [&](NodeId w) {
          if (!visit(w, q2)) return;
          if (q2 == t) set_target(w);
          queue.emplace_back(w, q2);
        });
      }
    }
  }
}

DynamicBitset AtomTargets(const Graph& g, const Semiautomaton& a, uint32_t s,
                          uint32_t t, bool allow_empty, NodeId u) {
  ProductBuffers buffers;
  std::vector<uint64_t> row((g.NodeCount() + 63) / 64);
  AtomTargetsInto(g, a, s, t, allow_empty, u, &buffers, row.data());
  DynamicBitset targets(g.NodeCount());
  for (std::size_t v = 0; v < g.NodeCount(); ++v) {
    if ((row[v >> 6] >> (v & 63)) & 1) targets.Set(v);
  }
  return targets;
}

std::vector<DynamicBitset> AtomRelation(const Graph& g, const Semiautomaton& a,
                                        uint32_t s, uint32_t t, bool allow_empty) {
  std::vector<DynamicBitset> relation;
  relation.reserve(g.NodeCount());
  for (NodeId u = 0; u < g.NodeCount(); ++u) {
    relation.push_back(AtomTargets(g, a, s, t, allow_empty, u));
  }
  return relation;
}

bool AtomHolds(const Graph& g, const Semiautomaton& a, uint32_t s, uint32_t t,
               bool allow_empty, NodeId u, NodeId v) {
  return AtomTargets(g, a, s, t, allow_empty, u).Test(v);
}

}  // namespace gqc
