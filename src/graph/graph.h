#ifndef GQC_GRAPH_GRAPH_H_
#define GQC_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/type.h"
#include "src/graph/vocabulary.h"

namespace gqc {

using NodeId = uint32_t;
constexpr NodeId kNoNode = UINT32_MAX;

/// A directed edge: from --role--> to, with `role` a forward role-name id.
struct Edge {
  NodeId from;
  uint32_t role;
  NodeId to;

  bool operator==(const Edge&) const = default;
};

/// A finite graph database in the paper's sense (§2): nodes carry sets of
/// labels from Γ, edges carry exactly one label from Σ, parallel edges are
/// allowed only with distinct labels (edge set semantics).
class Graph {
 public:
  Graph() = default;

  /// Adds an unlabelled node; returns its id (dense from 0).
  NodeId AddNode() { return AddNode(LabelSet{}); }
  NodeId AddNode(LabelSet labels);
  /// Removes the last node, which must have no incident edges.
  void PopNode();

  std::size_t NodeCount() const { return labels_.size(); }
  std::size_t EdgeCount() const { return edge_count_; }

  const LabelSet& Labels(NodeId v) const { return labels_[v]; }
  LabelSet& MutableLabels(NodeId v) { return labels_[v]; }

  bool HasLabel(NodeId v, uint32_t concept_id) const { return labels_[v].Has(concept_id); }
  void AddLabel(NodeId v, uint32_t concept_id) { labels_[v].Add(concept_id); }
  void RemoveLabel(NodeId v, uint32_t concept_id) { labels_[v].Remove(concept_id); }

  /// True if node `v` satisfies literal `l` (complement labels per §2).
  bool SatisfiesLiteral(NodeId v, Literal l) const {
    bool has = HasLabel(v, l.concept_id());
    return l.is_negative() ? !has : has;
  }

  /// True if node `v` is of type `t` (satisfies all literals of `t`).
  bool HasType(NodeId v, const Type& t) const;

  /// Adds edge u --role--> v (idempotent). Returns true if newly added.
  bool AddEdge(NodeId u, uint32_t role_id, NodeId v);
  /// Adds an edge in the direction given by `r` (inverse roles flip u/v).
  bool AddEdge(NodeId u, Role r, NodeId v) {
    return r.is_inverse() ? AddEdge(v, r.name_id(), u) : AddEdge(u, r.name_id(), v);
  }

  bool HasEdge(NodeId u, uint32_t role_id, NodeId v) const;
  bool HasEdge(NodeId u, Role r, NodeId v) const {
    return r.is_inverse() ? HasEdge(v, r.name_id(), u) : HasEdge(u, r.name_id(), v);
  }

  /// Removes edge u --role--> v if present; returns true if removed.
  bool RemoveEdge(NodeId u, uint32_t role_id, NodeId v);

  /// Calls `fn(w)` for every successor w of `u` along `r`, walking the
  /// adjacency list in place: forward roles follow out-edges, inverse roles
  /// follow in-edges, and only edges named r.name_id() count.
  template <typename Fn>
  void ForEachSuccessor(NodeId u, Role r, Fn&& fn) const {
    const auto& adj = r.is_inverse() ? in_[u] : out_[u];
    for (const auto& [role, w] : adj) {
      if (role == r.name_id()) fn(w);
    }
  }

  /// All out-edges of `u` as (role id, target).
  const std::vector<std::pair<uint32_t, NodeId>>& OutEdges(NodeId u) const {
    return out_[u];
  }
  /// All in-edges of `u` as (role id, source).
  const std::vector<std::pair<uint32_t, NodeId>>& InEdges(NodeId u) const {
    return in_[u];
  }

  /// Total degree (in + out) of `u`.
  std::size_t Degree(NodeId u) const { return out_[u].size() + in_[u].size(); }

  /// Invokes `fn(edge)` for every edge.
  void ForEachEdge(const std::function<void(const Edge&)>& fn) const;
  /// All edges, in insertion-independent (from, role, to) order.
  std::vector<Edge> AllEdges() const;

  /// Appends a disjoint copy of `other`; returns the id offset (node v of
  /// `other` becomes offset + v here).
  NodeId DisjointUnion(const Graph& other);

  /// Subgraph induced by `nodes`; `old_to_new` (optional) receives the node
  /// renaming (kNoNode for dropped nodes).
  Graph InducedSubgraph(const std::vector<NodeId>& nodes,
                        std::vector<NodeId>* old_to_new = nullptr) const;

  /// Copy of this graph with every edge labelled `role_id` removed.
  Graph WithoutRole(uint32_t role_id) const;

  /// Adds `concept_id` to every node's label set.
  void AddLabelEverywhere(uint32_t concept_id);

  bool operator==(const Graph& other) const;

 private:
  std::vector<LabelSet> labels_;
  std::vector<std::vector<std::pair<uint32_t, NodeId>>> out_;
  std::vector<std::vector<std::pair<uint32_t, NodeId>>> in_;
  std::size_t edge_count_ = 0;
};

/// A graph with a distinguished node (§4).
struct PointedGraph {
  Graph graph;
  NodeId point = 0;
};

}  // namespace gqc

#endif  // GQC_GRAPH_GRAPH_H_
