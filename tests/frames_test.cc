#include <gtest/gtest.h>

#include "src/dl/concept_parser.h"
#include "src/dl/model_check.h"
#include "src/dl/normalize.h"
#include "src/frames/abstract_frame.h"
#include "src/frames/alternating.h"
#include "src/frames/concrete_frame.h"
#include "src/graph/coil.h"
#include "src/graph/generators.h"
#include "src/graph/homomorphism.h"
#include "src/query/eval.h"
#include "src/query/factorize.h"
#include "src/query/parser.h"

namespace gqc {
namespace {

class FramesTest : public ::testing::Test {
 protected:
  Ucrpq U(const std::string& text) {
    auto r = ParseUcrpq(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }

  PointedGraph LabelledNode(std::initializer_list<const char*> labels) {
    PointedGraph p;
    NodeId v = p.graph.AddNode();
    for (const char* l : labels) p.graph.AddLabel(v, vocab_.ConceptId(l));
    p.point = v;
    return p;
  }

  Vocabulary vocab_;
};

TEST_F(FramesTest, AssembleAndConnector) {
  uint32_t r = vocab_.RoleId("r");
  ConcreteFrame frame;
  uint32_t f0 = frame.AddComponent({PathGraph(2, r), 0});
  uint32_t f1 = frame.AddComponent(LabelledNode({"B"}));
  frame.AddEdge(f0, 1, Role::Forward(r), f1);

  Graph g = frame.Assemble();
  EXPECT_EQ(g.NodeCount(), 3u);
  EXPECT_EQ(g.EdgeCount(), 2u);
  EXPECT_TRUE(Matches(g, U("r(x, y), r(y, z), B(z)")));

  PointedGraph conn = frame.Connector(f0, 1);
  EXPECT_EQ(conn.graph.NodeCount(), 2u);
  EXPECT_TRUE(Matches(conn.graph, U("r(x, y), B(y)")));
  PointedGraph empty_conn = frame.Connector(f0, 0);
  EXPECT_EQ(empty_conn.graph.NodeCount(), 1u);
}

TEST_F(FramesTest, InverseRoleFrameEdgeFlipsDirection) {
  uint32_t r = vocab_.RoleId("r");
  ConcreteFrame frame;
  uint32_t f0 = frame.AddComponent(LabelledNode({"A"}));
  uint32_t f1 = frame.AddComponent(LabelledNode({"B"}));
  frame.AddEdge(f0, 0, Role::Inverse(r), f1);
  Graph g = frame.Assemble();
  // The actual edge runs from the target component's point into (f0, 0).
  EXPECT_TRUE(Matches(g, U("B(x), r(x, y), A(y)")));
}

TEST_F(FramesTest, Lemma41TreeWeakRefutationIsActual) {
  // A tree frame that weakly refutes Q also actually refutes it (Lemma 4.1).
  uint32_t r = vocab_.RoleId("r");
  auto f = FactorizeSimpleUcrpq(U("A(x), (r*)(x, y), B(y)"), &vocab_);
  ASSERT_TRUE(f.ok());

  uint32_t a = vocab_.FindConcept("A");
  uint32_t b = vocab_.FindConcept("B");
  // Components: B -> root, A -> leaf (wrong direction: B cannot be reached
  // from A), arranged as a tree, truly labelled.
  Graph root_g;
  NodeId rn = root_g.AddNode();
  root_g.AddLabel(rn, b);
  Graph leaf_g;
  NodeId ln = leaf_g.AddNode();
  leaf_g.AddLabel(ln, a);

  ConcreteFrame frame;
  // Apply the true labelling per component after assembling them as parts of
  // the would-be whole; for this shape, per-part true labelling suffices.
  uint32_t fr = frame.AddComponent({ApplyTrueLabelling(root_g, f.value()), rn});
  uint32_t fl = frame.AddComponent({ApplyTrueLabelling(leaf_g, f.value()), ln});
  // Edge from leaf's A-node backwards into the tree root: A -> B would need
  // B reachable from A; point the edge from root to leaf instead.
  frame.AddEdge(fr, rn, Role::Forward(r), fl);

  // The assembled graph has B -r-> A: the query A ~> B is refuted.
  ASSERT_FALSE(Matches(frame.Assemble(), U("A(x), (r*)(x, y), B(y)")));
  EXPECT_TRUE(frame.WeaklyRefutes(f.value().q_hat, f.value().q_hat));
  EXPECT_TRUE(frame.ActuallyRefutes(f.value().q_hat));
}

TEST_F(FramesTest, FrameCoilLocallyIsomorphic) {
  uint32_t r = vocab_.RoleId("r");
  ConcreteFrame frame;
  uint32_t f0 = frame.AddComponent(LabelledNode({"A"}));
  uint32_t f1 = frame.AddComponent(LabelledNode({"B"}));
  frame.AddEdge(f0, 0, Role::Forward(r), f1);
  frame.AddEdge(f1, 0, Role::Forward(r), f0);  // 2-cycle of components

  ConcreteFrame coiled = FrameCoil(frame, 3).value();
  EXPECT_GT(coiled.ComponentCount(), frame.ComponentCount());
  EXPECT_EQ(coiled.LocalSignature(), frame.LocalSignature())
      << "Lemma 4.3: the coil is locally isomorphic to the frame";

  // The coil unravels cycles: the frame's 2-cycle gives a long r-path in the
  // assembled graph; coil graphs map homomorphically onto the original.
  Graph original = frame.Assemble();
  Graph unrolled = coiled.Assemble();
  EXPECT_TRUE(FindHomomorphism(unrolled, original).has_value());
}

TEST_F(FramesTest, CoilBreaksShortCycles) {
  // The assembled 2-cycle satisfies a "returns to start in 2 steps" pattern
  // concretely; after coiling with a large window the pattern of going
  // around k times still matches (coil preserves satisfaction via h), but
  // the coil has strictly more components, demonstrating the unravelling.
  uint32_t r = vocab_.RoleId("r");
  ConcreteFrame frame;
  uint32_t f0 = frame.AddComponent(LabelledNode({"A"}));
  uint32_t f1 = frame.AddComponent(LabelledNode({"B"}));
  frame.AddEdge(f0, 0, Role::Forward(r), f1);
  frame.AddEdge(f1, 0, Role::Forward(r), f0);

  ConcreteFrame coiled = FrameCoil(frame, 2).value();
  Graph g = coiled.Assemble();
  // Every node still has an outgoing r-edge (Property 1: h is a surjective
  // homomorphism and the construction preserves out-degrees).
  for (NodeId v = 0; v < g.NodeCount(); ++v) {
    std::size_t successors = 0;
    g.ForEachSuccessor(v, Role::Forward(r), [&](NodeId) { ++successors; });
    EXPECT_GT(successors, 0u);
  }
}

TEST_F(FramesTest, AlternatingFrameCheck) {
  uint32_t r = vocab_.RoleId("r");
  uint32_t fwd = vocab_.ConceptId("Cfwd");
  ConcreteFrame frame;
  uint32_t fb = frame.AddComponent(LabelledNode({"B"}));          // backward
  uint32_t ff = frame.AddComponent(LabelledNode({"A", "Cfwd"}));  // forward
  // Edge from backward component's node to the forward component: actual
  // edge direction backward -> forward.
  frame.AddEdge(fb, 0, Role::Forward(r), ff);
  EXPECT_TRUE(IsAlternating(frame, fwd));
  EXPECT_TRUE(ComponentsAreDirectional(frame, fwd));

  ConcreteFrame bad;
  uint32_t g1 = bad.AddComponent(LabelledNode({"A", "Cfwd"}));
  uint32_t g2 = bad.AddComponent(LabelledNode({"B"}));
  bad.AddEdge(g1, 0, Role::Forward(r), g2);  // forward -> backward: wrong
  EXPECT_FALSE(IsAlternating(bad, fwd));
}

TEST_F(FramesTest, RoleAlternatingFrameCheck) {
  uint32_t r = vocab_.RoleId("r");
  uint32_t s = vocab_.RoleId("s");
  uint32_t cr = vocab_.ConceptId("Cr");
  uint32_t cs = vocab_.ConceptId("Cs");
  std::map<uint32_t, uint32_t> markers{{r, cr}, {s, cs}};
  std::vector<uint32_t> order{r, s};

  ConcreteFrame frame;
  // r-banned component (edges may use s inside; none here).
  uint32_t f0 = frame.AddComponent(LabelledNode({"Cr"}));
  uint32_t f1 = frame.AddComponent(LabelledNode({"Cs"}));
  frame.AddEdge(f0, 0, Role::Forward(r), f1);  // banned role to next component
  EXPECT_TRUE(IsRoleAlternating(frame, markers, order));

  ConcreteFrame bad = frame;
  uint32_t f2 = bad.AddComponent(LabelledNode({"Cr"}));
  bad.AddEdge(f1, 0, Role::Forward(r), f2);  // s-component must emit s-edges
  EXPECT_FALSE(IsRoleAlternating(bad, markers, order));
}

TEST_F(FramesTest, AbstractFrameWitnessAndRepresent) {
  uint32_t r = vocab_.RoleId("r");
  auto tb = ParseTBox("A <= exists r.B", &vocab_);
  ASSERT_TRUE(tb.ok());
  NormalTBox tbox = Normalize(tb.value(), &vocab_);

  AbstractComponent comp;
  comp.distinguished.AddLiteral(Literal::Positive(vocab_.ConceptId("A")));
  comp.tbox = tbox;
  comp.avoid = U("C(x)");

  AbstractFrame frame;
  uint32_t f0 = frame.AddComponent(comp);
  EXPECT_TRUE(frame.RealizesType(comp.distinguished));

  // A witnessing graph: A -> B.
  PointedGraph w;
  NodeId a = w.graph.AddNode();
  NodeId b = w.graph.AddNode();
  w.graph.AddLabel(a, vocab_.ConceptId("A"));
  w.graph.AddLabel(b, vocab_.ConceptId("B"));
  w.graph.AddEdge(a, r, b);
  w.point = a;
  EXPECT_TRUE(frame.IsWitness(f0, w));

  PointedGraph bad = w;
  bad.graph.AddLabel(b, vocab_.ConceptId("C"));
  EXPECT_FALSE(frame.IsWitness(f0, bad)) << "matches the avoid query";

  ConcreteFrame concrete = frame.Represent({w});
  EXPECT_EQ(concrete.ComponentCount(), 1u);
  EXPECT_TRUE(Satisfies(concrete.Assemble(), tbox));
}

}  // namespace
}  // namespace gqc
