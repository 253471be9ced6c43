#include <gtest/gtest.h>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/homomorphism.h"
#include "src/graph/vocabulary.h"

namespace gqc {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  Vocabulary vocab_;
};

std::vector<NodeId> SuccessorList(const Graph& g, NodeId u, Role r) {
  std::vector<NodeId> out;
  g.ForEachSuccessor(u, r, [&](NodeId w) { out.push_back(w); });
  return out;
}

TEST_F(GraphTest, AddNodesAndEdges) {
  Graph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  uint32_t r = vocab_.RoleId("r");
  EXPECT_TRUE(g.AddEdge(a, r, b));
  EXPECT_FALSE(g.AddEdge(a, r, b)) << "edges have set semantics";
  EXPECT_TRUE(g.HasEdge(a, r, b));
  EXPECT_FALSE(g.HasEdge(b, r, a));
  EXPECT_EQ(g.NodeCount(), 2u);
  EXPECT_EQ(g.EdgeCount(), 1u);
}

TEST_F(GraphTest, ParallelEdgesDistinctLabelsAllowed) {
  Graph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  uint32_t r = vocab_.RoleId("r");
  uint32_t s = vocab_.RoleId("s");
  EXPECT_TRUE(g.AddEdge(a, r, b));
  EXPECT_TRUE(g.AddEdge(a, s, b));
  EXPECT_EQ(g.EdgeCount(), 2u);
}

TEST_F(GraphTest, InverseRoleSuccessors) {
  Graph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  uint32_t r = vocab_.RoleId("r");
  g.AddEdge(a, r, b);
  EXPECT_EQ(SuccessorList(g, a, Role::Forward(r)), std::vector<NodeId>{b});
  EXPECT_EQ(SuccessorList(g, b, Role::Inverse(r)), std::vector<NodeId>{a});
  EXPECT_TRUE(SuccessorList(g, b, Role::Forward(r)).empty());
}

TEST_F(GraphTest, AddEdgeWithInverseRoleFlipsDirection) {
  Graph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  uint32_t r = vocab_.RoleId("r");
  g.AddEdge(a, Role::Inverse(r), b);
  EXPECT_TRUE(g.HasEdge(b, r, a));
  EXPECT_TRUE(g.HasEdge(a, Role::Inverse(r), b));
}

TEST_F(GraphTest, LiteralsAndTypes) {
  Graph g;
  uint32_t person = vocab_.ConceptId("Person");
  uint32_t admin = vocab_.ConceptId("Admin");
  LabelSet labels;
  labels.Add(person);
  NodeId v = g.AddNode(labels);
  EXPECT_TRUE(g.SatisfiesLiteral(v, Literal::Positive(person)));
  EXPECT_TRUE(g.SatisfiesLiteral(v, Literal::Negative(admin)));
  EXPECT_FALSE(g.SatisfiesLiteral(v, Literal::Negative(person)));

  Type t;
  ASSERT_TRUE(t.AddLiteral(Literal::Positive(person)));
  ASSERT_TRUE(t.AddLiteral(Literal::Negative(admin)));
  EXPECT_TRUE(g.HasType(v, t));
  Type t2;
  ASSERT_TRUE(t2.AddLiteral(Literal::Positive(admin)));
  EXPECT_FALSE(g.HasType(v, t2));
}

TEST_F(GraphTest, TypeRejectsContradiction) {
  Type t;
  uint32_t a = vocab_.ConceptId("A");
  ASSERT_TRUE(t.AddLiteral(Literal::Positive(a)));
  EXPECT_FALSE(t.AddLiteral(Literal::Negative(a)));
  EXPECT_TRUE(t.HasLiteral(Literal::Positive(a)));
}

TEST_F(GraphTest, RemoveEdge) {
  Graph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  uint32_t r = vocab_.RoleId("r");
  g.AddEdge(a, r, b);
  EXPECT_TRUE(g.RemoveEdge(a, r, b));
  EXPECT_FALSE(g.RemoveEdge(a, r, b));
  EXPECT_EQ(g.EdgeCount(), 0u);
  EXPECT_TRUE(SuccessorList(g, b, Role::Inverse(r)).empty());
}

TEST_F(GraphTest, PopNodeRemovesIsolatedLastNode) {
  Graph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  uint32_t r = vocab_.RoleId("r");
  g.AddEdge(a, r, b);
  NodeId c = g.AddNode();
  g.AddLabel(c, vocab_.ConceptId("A"));
  g.PopNode();
  EXPECT_EQ(g.NodeCount(), 2u);
  EXPECT_EQ(g.EdgeCount(), 1u);
  EXPECT_EQ(SuccessorList(g, a, Role::Forward(r)), std::vector<NodeId>{b});
  // A node added after the pop starts unlabelled and unconnected.
  NodeId d = g.AddNode();
  EXPECT_EQ(d, c);
  EXPECT_TRUE(g.Labels(d).Empty());
  EXPECT_EQ(g.Degree(d), 0u);
}

TEST_F(GraphTest, DisjointUnionOffsets) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = PathGraph(3, r);
  Graph h = CycleGraph(2, r);
  NodeId offset = g.DisjointUnion(h);
  EXPECT_EQ(offset, 3u);
  EXPECT_EQ(g.NodeCount(), 5u);
  EXPECT_TRUE(g.HasEdge(3, r, 4));
  EXPECT_TRUE(g.HasEdge(4, r, 3));
  EXPECT_FALSE(g.HasEdge(2, r, 3));
}

TEST_F(GraphTest, InducedSubgraph) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = PathGraph(4, r);
  std::vector<NodeId> old_to_new;
  Graph sub = g.InducedSubgraph({1, 2}, &old_to_new);
  EXPECT_EQ(sub.NodeCount(), 2u);
  EXPECT_EQ(sub.EdgeCount(), 1u);
  EXPECT_EQ(old_to_new[0], kNoNode);
  EXPECT_TRUE(sub.HasEdge(old_to_new[1], r, old_to_new[2]));
}

TEST_F(GraphTest, WithoutRole) {
  uint32_t r = vocab_.RoleId("r");
  uint32_t s = vocab_.RoleId("s");
  Graph g;
  NodeId a = g.AddNode(), b = g.AddNode();
  g.AddEdge(a, r, b);
  g.AddEdge(a, s, b);
  Graph g2 = g.WithoutRole(r);
  EXPECT_FALSE(g2.HasEdge(a, r, b));
  EXPECT_TRUE(g2.HasEdge(a, s, b));
}

TEST_F(GraphTest, ConnectivityAndComponents) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = PathGraph(3, r);
  EXPECT_TRUE(IsConnected(g));
  g.AddNode();
  EXPECT_FALSE(IsConnected(g));
  std::size_t count = 0;
  auto comp = ConnectedComponents(g, &count);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST_F(GraphTest, StronglyConnectedComponents) {
  uint32_t r = vocab_.RoleId("r");
  // Cycle 0->1->2->0 plus tail 2->3.
  Graph g = CycleGraph(3, r);
  NodeId tail = g.AddNode();
  g.AddEdge(2, r, tail);
  std::size_t count = 0;
  auto scc = StronglyConnectedComponents(g, &count);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(scc[0], scc[1]);
  EXPECT_EQ(scc[1], scc[2]);
  EXPECT_NE(scc[2], scc[3]);
}

TEST_F(GraphTest, CSparse) {
  uint32_t r = vocab_.RoleId("r");
  Graph path = PathGraph(5, r);  // 5 nodes, 4 edges
  EXPECT_TRUE(IsCSparse(path, -1));
  Graph cycle = CycleGraph(5, r);  // 5 nodes, 5 edges
  EXPECT_FALSE(IsCSparse(cycle, -1));
  EXPECT_TRUE(IsCSparse(cycle, 0));
}

TEST_F(GraphTest, TreeCheck) {
  uint32_t r = vocab_.RoleId("r");
  EXPECT_TRUE(IsUndirectedTree(BalancedTree(3, 2, r)));
  EXPECT_FALSE(IsUndirectedTree(CycleGraph(4, r)));
}

TEST_F(GraphTest, HomomorphismPathIntoCycleSameLength) {
  uint32_t r = vocab_.RoleId("r");
  Graph path = PathGraph(3, r);
  Graph cycle = CycleGraph(3, r);
  auto h = FindHomomorphism(path, cycle);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(IsHomomorphism(path, cycle, *h));
}

TEST_F(GraphTest, NoHomomorphismCycleIntoPath) {
  uint32_t r = vocab_.RoleId("r");
  Graph cycle = CycleGraph(3, r);
  Graph path = PathGraph(5, r);
  EXPECT_FALSE(FindHomomorphism(cycle, path).has_value());
}

TEST_F(GraphTest, HomomorphismPreservesLabelAbsence) {
  // Paper §2: homomorphisms preserve absence of node labels, so a node
  // without label A cannot map to a node with label A.
  uint32_t a = vocab_.ConceptId("A");
  Graph g;
  g.AddNode();  // unlabelled
  Graph target;
  LabelSet with_a;
  with_a.Add(a);
  target.AddNode(with_a);
  EXPECT_FALSE(FindHomomorphism(g, target).has_value());
  target.AddNode();  // unlabelled node makes it possible
  EXPECT_TRUE(FindHomomorphism(g, target).has_value());
}

TEST_F(GraphTest, LocalEmbeddingRejectsSiblingMerging) {
  uint32_t r = vocab_.RoleId("r");
  // g: one node with two r-children; target: one node with one r-child.
  Graph g;
  NodeId root = g.AddNode();
  NodeId c1 = g.AddNode();
  NodeId c2 = g.AddNode();
  g.AddEdge(root, r, c1);
  g.AddEdge(root, r, c2);
  Graph target;
  NodeId troot = target.AddNode();
  NodeId tc = target.AddNode();
  target.AddEdge(troot, r, tc);

  auto hom = FindHomomorphism(g, target);
  ASSERT_TRUE(hom.has_value()) << "plain homomorphism may merge siblings";
  EXPECT_FALSE(IsLocalEmbedding(g, target, *hom));
  EXPECT_FALSE(FindLocalEmbedding(g, target).has_value());
}

TEST_F(GraphTest, PointedIsomorphism) {
  uint32_t r = vocab_.RoleId("r");
  PointedGraph a{CycleGraph(4, r), 0};
  PointedGraph b{CycleGraph(4, r), 2};
  EXPECT_TRUE(ArePointedIsomorphic(a, b));
  PointedGraph c{CycleGraph(5, r), 0};
  EXPECT_FALSE(ArePointedIsomorphic(a, c));
  EXPECT_EQ(PointedFingerprint(a), PointedFingerprint(b));
  EXPECT_NE(PointedFingerprint(a), PointedFingerprint(c));
}

TEST_F(GraphTest, PointedIsomorphismRespectsPoint) {
  uint32_t r = vocab_.RoleId("r");
  Graph path = PathGraph(3, r);
  PointedGraph at_start{path, 0};
  PointedGraph at_end{path, 2};
  EXPECT_FALSE(ArePointedIsomorphic(at_start, at_end));
  EXPECT_TRUE(ArePointedIsomorphic(at_start, PointedGraph{path, 0}));
}

}  // namespace
}  // namespace gqc
