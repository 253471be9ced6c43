#include "src/frames/span.h"

#include <algorithm>
#include <deque>
#include <set>
#include <tuple>

namespace gqc {

namespace {

/// A position in the represented graph G_F: (frame node, component node).
struct Position {
  uint32_t f;
  NodeId v;
  auto operator<=>(const Position&) const = default;
};

/// One traversal step available to an R*-path, with the frame-edge balance
/// delta it incurs (0 for in-component steps, ±1 for frame edges).
struct Move {
  Position to;
  int delta;
};

/// Builds the R-step adjacency of G_F at the frame level of detail.
std::vector<std::vector<Move>> BuildMoves(const ConcreteFrame& frame,
                                          const std::vector<Role>& roles,
                                          std::vector<Position>* positions) {
  // Index positions densely.
  std::vector<std::size_t> offset(frame.ComponentCount() + 1, 0);
  // lint: bounded(one offset per component)
  for (uint32_t f = 0; f < frame.ComponentCount(); ++f) {
    offset[f + 1] = offset[f] + frame.Component(f).graph.NodeCount();
  }
  positions->clear();
  // lint: bounded(linear in the frame positions)
  for (uint32_t f = 0; f < frame.ComponentCount(); ++f) {
    // lint: bounded(linear in the component nodes)
    for (NodeId v = 0; v < frame.Component(f).graph.NodeCount(); ++v) {
      positions->push_back({f, v});
    }
  }
  auto index = [&](Position p) { return offset[p.f] + p.v; };

  std::vector<std::vector<Move>> moves(positions->size());
  // In-component steps.
  // lint: bounded(linear in the frame positions)
  for (uint32_t f = 0; f < frame.ComponentCount(); ++f) {
    const Graph& g = frame.Component(f).graph;
    // lint: bounded(linear in the component nodes)
    for (NodeId v = 0; v < g.NodeCount(); ++v) {
      // lint: bounded(linear in the role alphabet)
      for (Role r : roles) {
        g.ForEachSuccessor(v, r, [&](NodeId w) {
          moves[index({f, v})].push_back({{f, w}, 0});
        });
      }
    }
  }
  // Frame-edge steps: the assembled edge connects (e.from, e.source_node)
  // with (e.to, point of e.to); a step across it moves between the two
  // components, with balance +1 when moving from e.from to e.to.
  // lint: bounded(linear in the frame edges)
  for (const auto& e : frame.Edges()) {
    Position src{e.from, e.source_node};
    Position dst{e.to, frame.Component(e.to).point};
    // The concrete G_F edge direction: src --e.role--> dst for forward
    // roles, dst --name--> src for inverse roles.
    Position tail = e.role.is_inverse() ? dst : src;
    Position head = e.role.is_inverse() ? src : dst;
    uint32_t name = e.role.name_id();
    // lint: bounded(linear in the role alphabet)
    for (Role r : roles) {
      if (r.name_id() != name) continue;
      // Traversing with role r: forward r goes tail -> head, inverse r goes
      // head -> tail.
      Position from = r.is_inverse() ? head : tail;
      Position to = r.is_inverse() ? tail : head;
      int delta = (from.f == e.from) ? +1 : -1;
      moves[index(from)].push_back({to, delta});
    }
  }
  return moves;
}

}  // namespace

bool StarAtomSpanExceeds(const ConcreteFrame& frame, const std::vector<Role>& roles,
                         std::size_t k, ResourceGuard* guard) {
  std::vector<Position> positions;
  auto moves = BuildMoves(frame, roles, &positions);
  std::vector<std::size_t> offset(frame.ComponentCount() + 1, 0);
  // lint: bounded(one offset per component)
  for (uint32_t f = 0; f < frame.ComponentCount(); ++f) {
    offset[f + 1] = offset[f] + frame.Component(f).graph.NodeCount();
  }
  auto index = [&](Position p) { return offset[p.f] + p.v; };

  // State: (position, balance - min_balance, max_balance - balance); the
  // span so far is (bal - min) + (max - bal). Every prefix of a witnessing
  // path is a witnessing path (R* is prefix-closed), so the search may stop
  // as soon as any state exceeds k.
  struct State {
    std::size_t pos;
    int below;  // bal - min  >= 0
    int above;  // max - bal  >= 0
    auto operator<=>(const State&) const = default;
  };
  std::set<State> seen;
  std::deque<State> queue;
  // lint: bounded(one seed state per position)
  for (std::size_t p = 0; p < positions.size(); ++p) {
    State s{p, 0, 0};
    seen.insert(s);
    queue.push_back(s);
  }
  while (!queue.empty()) {
    // A guard trip returns true — "may exceed" is the conservative answer
    // (callers widen windows or refuse, never shrink them).
    if (guard != nullptr && guard->Charge(GuardPhase::kFrames)) return true;
    State s = queue.front();
    queue.pop_front();
    // lint: bounded(bounded by the move fan-out of one state)
    for (const Move& m : moves[s.pos]) {
      int below = s.below + m.delta;
      int above = s.above - m.delta;
      if (below < 0) below = 0;  // new minimum
      if (above < 0) above = 0;  // new maximum
      if (static_cast<std::size_t>(below + above) > k) return true;
      State next{index(m.to), below, above};
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
  return false;
}

std::size_t StarAtomSpan(const ConcreteFrame& frame, const std::vector<Role>& roles,
                         std::size_t cap, ResourceGuard* guard) {
  // lint: bounded(k is capped; each span check polls the guard internally)
  for (std::size_t k = 0; k <= cap; ++k) {
    if (!StarAtomSpanExceeds(frame, roles, k, guard)) return k;
  }
  return cap + 1;
}

}  // namespace gqc
