#include "src/graph/homomorphism.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/util/hash.h"

namespace gqc {

namespace {

/// Backtracking homomorphism search shared by plain and locally-injective
/// variants. Nodes are assigned in a connectivity-friendly order; edge
/// consistency with already-assigned neighbours is checked incrementally.
class HomSearch {
 public:
  HomSearch(const Graph& g, const Graph& target, bool locally_injective)
      : g_(g), target_(target), locally_injective_(locally_injective) {}

  std::optional<NodeMapping> Run() {
    const std::size_t n = g_.NodeCount();
    mapping_.assign(n, kNoNode);
    // Precompute candidate sets: label sets must match exactly.
    candidates_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < target_.NodeCount(); ++v) {
        if (g_.Labels(u) == target_.Labels(v)) candidates_[u].push_back(v);
      }
      if (candidates_[u].empty()) return std::nullopt;
    }
    order_ = ConnectivityOrder();
    if (Assign(0)) return mapping_;
    return std::nullopt;
  }

 private:
  /// BFS-ish order so each node (after the first of its component) has an
  /// already-assigned neighbour, making edge checks prune early.
  std::vector<NodeId> ConnectivityOrder() const {
    const std::size_t n = g_.NodeCount();
    std::vector<NodeId> order;
    std::vector<bool> seen(n, false);
    for (NodeId start = 0; start < n; ++start) {
      if (seen[start]) continue;
      std::vector<NodeId> queue{start};
      seen[start] = true;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        NodeId u = queue[i];
        order.push_back(u);
        for (const auto& [r, v] : g_.OutEdges(u)) {
          if (!seen[v]) {
            seen[v] = true;
            queue.push_back(v);
          }
        }
        for (const auto& [r, v] : g_.InEdges(u)) {
          if (!seen[v]) {
            seen[v] = true;
            queue.push_back(v);
          }
        }
      }
    }
    return order;
  }

  bool ConsistentAt(NodeId u, NodeId image) const {
    for (const auto& [r, v] : g_.OutEdges(u)) {
      if (mapping_[v] != kNoNode && !target_.HasEdge(image, r, mapping_[v])) {
        return false;
      }
    }
    for (const auto& [r, v] : g_.InEdges(u)) {
      if (mapping_[v] != kNoNode && !target_.HasEdge(mapping_[v], r, image)) {
        return false;
      }
    }
    if (locally_injective_ && !LocallyInjectiveAt(u, image)) return false;
    return true;
  }

  /// Checks that mapping u to `image` keeps the map injective on the
  /// r-neighbourhoods (both directions) of every assigned neighbour of u.
  bool LocallyInjectiveAt(NodeId u, NodeId image) const {
    // For each assigned node w adjacent to u, u is an r-successor (or
    // r-inverse-successor) of w; no sibling successor may share the image.
    auto check_siblings = [&](NodeId w, Role r) {
      bool injective = true;
      g_.ForEachSuccessor(w, r, [&](NodeId sibling) {
        if (sibling != u && mapping_[sibling] == image) injective = false;
      });
      return injective;
    };
    for (const auto& [r, w] : g_.InEdges(u)) {
      // u is a forward-r successor of w.
      if (mapping_[w] != kNoNode && !check_siblings(w, Role::Forward(r))) return false;
    }
    for (const auto& [r, w] : g_.OutEdges(u)) {
      // u is an r-inverse successor of w.
      if (mapping_[w] != kNoNode && !check_siblings(w, Role::Inverse(r))) return false;
    }
    return true;
  }

  bool Assign(std::size_t idx) {
    if (idx == order_.size()) return true;
    NodeId u = order_[idx];
    for (NodeId image : candidates_[u]) {
      if (!ConsistentAt(u, image)) continue;
      mapping_[u] = image;
      if (Assign(idx + 1)) return true;
      mapping_[u] = kNoNode;
    }
    return false;
  }

  const Graph& g_;
  const Graph& target_;
  const bool locally_injective_;
  NodeMapping mapping_;
  std::vector<std::vector<NodeId>> candidates_;
  std::vector<NodeId> order_;
};

}  // namespace

std::optional<NodeMapping> FindHomomorphism(const Graph& g, const Graph& target) {
  return HomSearch(g, target, /*locally_injective=*/false).Run();
}

bool IsHomomorphism(const Graph& g, const Graph& target, const NodeMapping& h) {
  if (h.size() != g.NodeCount()) return false;
  for (NodeId u = 0; u < g.NodeCount(); ++u) {
    if (h[u] >= target.NodeCount()) return false;
    if (!(g.Labels(u) == target.Labels(h[u]))) return false;
  }
  bool ok = true;
  g.ForEachEdge([&](const Edge& e) {
    if (!target.HasEdge(h[e.from], e.role, h[e.to])) ok = false;
  });
  return ok;
}

bool IsLocalEmbedding(const Graph& g, const Graph& target, const NodeMapping& h) {
  if (!IsHomomorphism(g, target, h)) return false;
  for (NodeId u = 0; u < g.NodeCount(); ++u) {
    for (bool inverse : {false, true}) {
      // Group successors by role and check image-injectivity.
      std::map<uint32_t, std::vector<NodeId>> by_role;
      const auto& adj = inverse ? g.InEdges(u) : g.OutEdges(u);
      for (const auto& [r, v] : adj) by_role[r].push_back(v);
      for (const auto& [r, succ] : by_role) {
        std::vector<NodeId> images;
        for (NodeId v : succ) images.push_back(h[v]);
        std::sort(images.begin(), images.end());
        if (std::adjacent_find(images.begin(), images.end()) != images.end()) {
          return false;
        }
      }
    }
  }
  return true;
}

std::optional<NodeMapping> FindLocalEmbedding(const Graph& g, const Graph& target) {
  return HomSearch(g, target, /*locally_injective=*/true).Run();
}

namespace {

/// One round of 1-WL colour refinement; returns per-node colour ids.
/// Colour ids are assigned in sorted signature order so that isomorphic
/// graphs receive identical colourings regardless of node numbering.
std::vector<uint64_t> RefineColours(const Graph& g, const std::vector<uint64_t>& in) {
  std::vector<std::vector<uint64_t>> sigs(g.NodeCount());
  for (NodeId v = 0; v < g.NodeCount(); ++v) {
    std::vector<uint64_t>& sig = sigs[v];
    sig.push_back(in[v]);
    std::vector<uint64_t> neigh;
    for (const auto& [r, w] : g.OutEdges(v)) {
      neigh.push_back((uint64_t{r} << 33) | (in[w] << 1));
    }
    for (const auto& [r, w] : g.InEdges(v)) {
      neigh.push_back((uint64_t{r} << 33) | (in[w] << 1) | 1);
    }
    std::sort(neigh.begin(), neigh.end());
    sig.insert(sig.end(), neigh.begin(), neigh.end());
  }
  std::map<std::vector<uint64_t>, uint64_t> signature_ids;
  for (const auto& sig : sigs) signature_ids.emplace(sig, 0);
  uint64_t next = 0;
  for (auto& [sig, id] : signature_ids) id = next++;
  std::vector<uint64_t> out(g.NodeCount());
  for (NodeId v = 0; v < g.NodeCount(); ++v) out[v] = signature_ids[sigs[v]];
  return out;
}

}  // namespace

std::string PointedFingerprint(const PointedGraph& pg) {
  const Graph& g = pg.graph;
  // Initial colours: node label sets (plus a marker for the point), with ids
  // assigned in sorted key order for numbering-independence.
  std::map<std::pair<std::size_t, bool>, uint64_t> init_ids;
  for (NodeId v = 0; v < g.NodeCount(); ++v) {
    init_ids.emplace(std::make_pair(g.Labels(v).Hash(), v == pg.point), 0);
  }
  uint64_t next_init = 0;
  for (auto& [key, id] : init_ids) id = next_init++;
  std::vector<uint64_t> colour(g.NodeCount());
  for (NodeId v = 0; v < g.NodeCount(); ++v) {
    colour[v] = init_ids[std::make_pair(g.Labels(v).Hash(), v == pg.point)];
  }
  for (std::size_t round = 0; round < g.NodeCount(); ++round) {
    auto next = RefineColours(g, colour);
    if (next == colour) break;
    colour = next;
  }
  // Serialize the colour multiset plus point colour plus sizes.
  std::vector<uint64_t> sorted = colour;
  std::sort(sorted.begin(), sorted.end());
  std::string out = std::to_string(g.NodeCount()) + ":" + std::to_string(g.EdgeCount()) +
                    ":" + (g.NodeCount() ? std::to_string(colour[pg.point]) : "-") + ":";
  for (uint64_t c : sorted) out += std::to_string(c) + ",";
  return out;
}

bool ArePointedIsomorphic(const PointedGraph& a, const PointedGraph& b) {
  const Graph& ga = a.graph;
  const Graph& gb = b.graph;
  if (ga.NodeCount() != gb.NodeCount() || ga.EdgeCount() != gb.EdgeCount()) return false;
  if (ga.NodeCount() == 0) return true;
  if (!(ga.Labels(a.point) == gb.Labels(b.point))) return false;

  // Backtracking injective homomorphism a -> b with point pinned; since edge
  // counts match and edges map injectively, a full assignment is an iso.
  std::vector<NodeId> mapping(ga.NodeCount(), kNoNode);
  std::vector<bool> used(gb.NodeCount(), false);

  // Assignment order: point first, then BFS.
  std::vector<NodeId> order;
  std::vector<bool> seen(ga.NodeCount(), false);
  std::vector<NodeId> queue{a.point};
  seen[a.point] = true;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    NodeId u = queue[i];
    order.push_back(u);
    for (const auto& [r, v] : ga.OutEdges(u)) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
    for (const auto& [r, v] : ga.InEdges(u)) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  for (NodeId v = 0; v < ga.NodeCount(); ++v) {
    if (!seen[v]) order.push_back(v);
  }

  std::function<bool(std::size_t)> assign = [&](std::size_t idx) -> bool {
    if (idx == order.size()) return true;
    NodeId u = order[idx];
    for (NodeId image = 0; image < gb.NodeCount(); ++image) {
      if (used[image]) continue;
      if ((u == a.point) != (image == b.point)) continue;
      if (!(ga.Labels(u) == gb.Labels(image))) continue;
      if (ga.Degree(u) != gb.Degree(image)) continue;
      bool ok = true;
      for (const auto& [r, v] : ga.OutEdges(u)) {
        if (mapping[v] != kNoNode && !gb.HasEdge(image, r, mapping[v])) ok = false;
      }
      for (const auto& [r, v] : ga.InEdges(u)) {
        if (mapping[v] != kNoNode && !gb.HasEdge(mapping[v], r, image)) ok = false;
      }
      if (!ok) continue;
      mapping[u] = image;
      used[image] = true;
      if (assign(idx + 1)) return true;
      mapping[u] = kNoNode;
      used[image] = false;
    }
    return false;
  };
  return assign(0);
}

}  // namespace gqc
