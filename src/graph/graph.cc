#include "src/graph/graph.h"

#include <algorithm>

#include "src/util/invariant.h"

namespace gqc {

NodeId Graph::AddNode(LabelSet labels) {
  NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(std::move(labels));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

void Graph::PopNode() {
  GQC_DCHECK(!labels_.empty() && out_.back().empty() && in_.back().empty());
  labels_.pop_back();
  out_.pop_back();
  in_.pop_back();
}

bool Graph::HasType(NodeId v, const Type& t) const {
  for (Literal l : t.Literals()) {
    if (!SatisfiesLiteral(v, l)) return false;
  }
  return true;
}

bool Graph::AddEdge(NodeId u, uint32_t role_id, NodeId v) {
  if (HasEdge(u, role_id, v)) return false;
  out_[u].emplace_back(role_id, v);
  in_[v].emplace_back(role_id, u);
  ++edge_count_;
  return true;
}

bool Graph::HasEdge(NodeId u, uint32_t role_id, NodeId v) const {
  for (const auto& [r, t] : out_[u]) {
    if (r == role_id && t == v) return true;
  }
  return false;
}

bool Graph::RemoveEdge(NodeId u, uint32_t role_id, NodeId v) {
  auto out_it = std::find(out_[u].begin(), out_[u].end(), std::make_pair(role_id, v));
  if (out_it == out_[u].end()) return false;
  out_[u].erase(out_it);
  auto in_it = std::find(in_[v].begin(), in_[v].end(), std::make_pair(role_id, u));
  in_[v].erase(in_it);
  --edge_count_;
  return true;
}

void Graph::ForEachEdge(const std::function<void(const Edge&)>& fn) const {
  for (NodeId u = 0; u < out_.size(); ++u) {
    for (const auto& [role, v] : out_[u]) fn(Edge{u, role, v});
  }
}

std::vector<Edge> Graph::AllEdges() const {
  std::vector<Edge> edges;
  edges.reserve(edge_count_);
  ForEachEdge([&](const Edge& e) { edges.push_back(e); });
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.from, a.role, a.to) < std::tie(b.from, b.role, b.to);
  });
  return edges;
}

NodeId Graph::DisjointUnion(const Graph& other) {
  NodeId offset = static_cast<NodeId>(NodeCount());
  for (NodeId v = 0; v < other.NodeCount(); ++v) {
    AddNode(other.Labels(v));
  }
  other.ForEachEdge(
      [&](const Edge& e) { AddEdge(offset + e.from, e.role, offset + e.to); });
  return offset;
}

Graph Graph::InducedSubgraph(const std::vector<NodeId>& nodes,
                             std::vector<NodeId>* old_to_new) const {
  Graph g;
  std::vector<NodeId> mapping(NodeCount(), kNoNode);
  for (NodeId v : nodes) {
    mapping[v] = g.AddNode(labels_[v]);
  }
  ForEachEdge([&](const Edge& e) {
    if (mapping[e.from] != kNoNode && mapping[e.to] != kNoNode) {
      g.AddEdge(mapping[e.from], e.role, mapping[e.to]);
    }
  });
  if (old_to_new != nullptr) *old_to_new = std::move(mapping);
  return g;
}

Graph Graph::WithoutRole(uint32_t role_id) const {
  Graph g;
  for (NodeId v = 0; v < NodeCount(); ++v) g.AddNode(labels_[v]);
  ForEachEdge([&](const Edge& e) {
    if (e.role != role_id) g.AddEdge(e.from, e.role, e.to);
  });
  return g;
}

void Graph::AddLabelEverywhere(uint32_t concept_id) {
  for (auto& ls : labels_) ls.Add(concept_id);
}

bool Graph::operator==(const Graph& other) const {
  if (NodeCount() != other.NodeCount() || EdgeCount() != other.EdgeCount()) return false;
  for (NodeId v = 0; v < NodeCount(); ++v) {
    if (!(labels_[v] == other.labels_[v])) return false;
  }
  return AllEdges() == other.AllEdges();
}

}  // namespace gqc
