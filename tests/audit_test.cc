// Corrupted-fixture coverage for the invariant-audit layer: each Validate()
// routine must trip on a deliberately broken structure and stay silent on a
// healthy one. The validators are always compiled (only the GQC_AUDIT call
// sites are build-flavor gated), so these tests run in every build flavor.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/automata/regex_parser.h"
#include "src/automata/validate.h"
#include "src/core/validate.h"
#include "src/dl/concept_parser.h"
#include "src/dl/normalize.h"
#include "src/dl/validate.h"
#include "src/frames/concrete_frame.h"
#include "src/frames/validate.h"
#include "src/graph/coil.h"
#include "src/graph/generators.h"
#include "src/graph/validate.h"
#include "src/query/parser.h"
#include "src/query/query_containment.h"
#include "src/util/fingerprint.h"

namespace gqc {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  Ucrpq U(const std::string& text) {
    auto r = ParseUcrpq(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }

  Crpq C(const std::string& text) {
    auto r = ParseCrpq(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }

  Vocabulary vocab_;
};

// ----------------------------------------------------------------- graphs

TEST_F(AuditTest, WellFormedGraphPasses) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = CycleGraph(3, r);
  g.AddLabel(0, vocab_.ConceptId("A"));
  EXPECT_FALSE(ValidateGraph(g).has_value());
  EXPECT_FALSE(ValidateGraph(g, vocab_).has_value());
}

TEST_F(AuditTest, UninternedLabelTripsGraphValidator) {
  Graph g;
  NodeId v = g.AddNode();
  g.AddLabel(v, 12345);  // never interned in vocab_
  auto violation = ValidateGraph(g, vocab_);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("label"), std::string::npos) << *violation;
}

TEST_F(AuditTest, UninternedRoleTripsGraphValidator) {
  Graph g;
  NodeId u = g.AddNode();
  NodeId v = g.AddNode();
  g.AddEdge(u, 999, v);  // role id 999 never interned
  auto violation = ValidateGraph(g, vocab_);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("role"), std::string::npos) << *violation;
}

TEST_F(AuditTest, PointOutOfBoundsTripsPointedGraphValidator) {
  PointedGraph pg;
  pg.graph.AddNode();
  pg.point = 7;  // only node 0 exists
  EXPECT_TRUE(ValidatePointedGraph(pg).has_value());
  pg.point = 0;
  EXPECT_FALSE(ValidatePointedGraph(pg).has_value());
}

// -------------------------------------------------------------- automata

TEST_F(AuditTest, SemiautomatonWithinAlphabetPasses) {
  uint32_t r = vocab_.RoleId("r");
  Semiautomaton a;
  uint32_t s0 = a.AddState();
  uint32_t s1 = a.AddState();
  a.AddTransition(s0, Symbol::FromRole(Role::Forward(r)), s1);
  std::vector<Symbol> alphabet{Symbol::FromRole(Role::Forward(r))};
  EXPECT_FALSE(ValidateSemiautomaton(a).has_value());
  EXPECT_FALSE(ValidateSemiautomaton(a, alphabet).has_value());
}

TEST_F(AuditTest, OutOfAlphabetTransitionTripsValidator) {
  uint32_t r = vocab_.RoleId("r");
  uint32_t s = vocab_.RoleId("s");
  Semiautomaton a;
  uint32_t s0 = a.AddState();
  uint32_t s1 = a.AddState();
  a.AddTransition(s0, Symbol::FromRole(Role::Forward(s)), s1);
  // The declared alphabet only contains r; the s-transition is a leak.
  std::vector<Symbol> alphabet{Symbol::FromRole(Role::Forward(r))};
  auto violation = ValidateSemiautomaton(a, alphabet);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("alphabet"), std::string::npos) << *violation;
}

TEST_F(AuditTest, WordPastTheBoundTripsWordLengthValidator) {
  // (r.r)* has no word of length 5 but has r^6: a bound of 4 is wrong even
  // though the next length is empty. A plain r.r.r.r has nothing past 4.
  auto star = ParseRegex("(r.r)*", &vocab_);
  auto word = ParseRegex("r.r.r.r", &vocab_);
  ASSERT_TRUE(star.ok() && word.ok());
  CompiledRegex periodic = CompileRegex(star.value());
  CompiledRegex finite = CompileRegex(word.value());
  auto violation = ValidateWordLengthBound(periodic.automaton, periodic.start,
                                           periodic.end, 4);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("length 6"), std::string::npos) << *violation;
  EXPECT_FALSE(
      ValidateWordLengthBound(finite.automaton, finite.start, finite.end, 4)
          .has_value());
  EXPECT_TRUE(
      ValidateWordLengthBound(finite.automaton, finite.start, finite.end, 3)
          .has_value());
}

TEST_F(AuditTest, UninternedSymbolTripsVocabularyValidator) {
  Semiautomaton a;
  uint32_t s0 = a.AddState();
  uint32_t s1 = a.AddState();
  a.AddTransition(s0, Symbol::FromRole(Role::Forward(4242)), s1);
  EXPECT_TRUE(ValidateSemiautomaton(a, vocab_).has_value());
}

// -------------------------------------------------------------------- dl

TEST_F(AuditTest, NormalizedTBoxPasses) {
  auto tbox = ParseTBox(
      "A <= exists r.B\n"
      "B and C <= forall r.A\n"
      "top <= atmost 2 r.C\n",
      &vocab_);
  ASSERT_TRUE(tbox.ok()) << tbox.error();
  NormalTBox normal = Normalize(tbox.value(), &vocab_);
  EXPECT_FALSE(ValidateNormalTBox(normal).has_value());
  EXPECT_FALSE(ValidateNormalTBox(normal, vocab_).has_value());
}

TEST_F(AuditTest, AtLeastZeroTripsNormalFormValidator) {
  // ≥0 r.B is ⊤ and must have been rewritten away by Normalize; a surviving
  // n = 0 at-least is an un-normalized axiom.
  NormalCi ci;
  ci.kind = NormalCi::Kind::kAtLeast;
  ci.lhs = {Literal::Positive(vocab_.ConceptId("A"))};
  ci.role = Role::Forward(vocab_.RoleId("r"));
  ci.n = 0;
  ci.rhs_lit = Literal::Positive(vocab_.ConceptId("B"));
  NormalTBox tbox;
  tbox.Add(ci);
  auto violation = ValidateNormalTBox(tbox);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("at-least"), std::string::npos) << *violation;
}

TEST_F(AuditTest, ForallWithBooleanRhsTripsNormalFormValidator) {
  // A ⊑ ∀r.B must carry its filler in rhs_lit; a populated Boolean rhs
  // means the CI mixes two normal forms.
  NormalCi ci;
  ci.kind = NormalCi::Kind::kForall;
  ci.lhs = {Literal::Positive(vocab_.ConceptId("A"))};
  ci.role = Role::Forward(vocab_.RoleId("r"));
  ci.rhs_lit = Literal::Positive(vocab_.ConceptId("B"));
  ci.rhs = {Literal::Positive(vocab_.ConceptId("C"))};
  NormalTBox tbox;
  tbox.Add(ci);
  EXPECT_TRUE(ValidateNormalTBox(tbox).has_value());
}

// ------------------------------------------------------------------ coils

TEST_F(AuditTest, FreshCoilPasses) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = CycleGraph(3, r);
  auto coil = Coil(g, 2);
  ASSERT_TRUE(coil.ok()) << coil.error();
  EXPECT_FALSE(ValidateCoil(g, coil.value()).has_value());
}

TEST_F(AuditTest, CorruptedCoilLevelTripsValidator) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = CycleGraph(3, r);
  auto coil = Coil(g, 2);
  ASSERT_TRUE(coil.ok()) << coil.error();
  CoilResult broken = coil.value();
  ASSERT_FALSE(broken.level.empty());
  // Push one node's level outside {0, ..., n}: the ℓ' ≡ ℓ+1 (mod n+1)
  // discipline of Property 1 cannot hold any more.
  broken.level[0] = static_cast<uint32_t>(broken.n) + 5;
  EXPECT_TRUE(ValidateCoil(g, broken).has_value());
}

TEST_F(AuditTest, CorruptedCoilHomomorphismTripsValidator) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = PathGraph(3, r);
  auto coil = Coil(g, 2);
  ASSERT_TRUE(coil.ok()) << coil.error();
  CoilResult broken = coil.value();
  ASSERT_GE(broken.base_node.size(), 2u);
  // Remap one coil node to a different base node: h_G stops being a
  // homomorphism (or the labels stop matching the path's last node).
  broken.base_node[1] = broken.base_node[1] == 0 ? 1 : 0;
  EXPECT_TRUE(ValidateCoil(g, broken).has_value());
}

// ----------------------------------------------------------------- frames

TEST_F(AuditTest, WellFormedFramePasses) {
  uint32_t r = vocab_.RoleId("r");
  ConcreteFrame frame;
  uint32_t f0 = frame.AddComponent({PathGraph(2, r), 0});
  uint32_t f1 = frame.AddComponent({PathGraph(1, r), 0});
  frame.AddEdge(f0, 1, Role::Forward(r), f1);
  EXPECT_FALSE(ValidateConcreteFrame(frame).has_value());
}

TEST_F(AuditTest, FrameEdgeToMissingComponentTripsValidator) {
  uint32_t r = vocab_.RoleId("r");
  ConcreteFrame frame;
  uint32_t f0 = frame.AddComponent({PathGraph(2, r), 0});
  // Component 5 does not exist; the edge dangles.
  frame.AddEdge(f0, 0, Role::Forward(r), 5);
  auto violation = ValidateConcreteFrame(frame);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("edge"), std::string::npos) << *violation;
}

TEST_F(AuditTest, FrameComponentWithBadPointTripsValidator) {
  uint32_t r = vocab_.RoleId("r");
  ConcreteFrame frame;
  PointedGraph bad{PathGraph(2, r), 9};  // point outside the 2-node graph
  frame.AddComponent(std::move(bad));
  EXPECT_TRUE(ValidateConcreteFrame(frame).has_value());
}

TEST_F(AuditTest, FrameCoilLocalSignatureMismatchTripsValidator) {
  uint32_t r = vocab_.RoleId("r");
  ConcreteFrame base;
  base.AddComponent({PathGraph(2, r), 0});

  // A structurally valid frame that is NOT locally isomorphic to `base`
  // (different component shape), passed off as its coil.
  ConcreteFrame impostor;
  impostor.AddComponent({CycleGraph(3, r), 0});
  auto violation = ValidateFrameCoil(base, impostor);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("signature"), std::string::npos) << *violation;

  // The genuine FrameCoil passes.
  auto coil = FrameCoil(base, 2);
  ASSERT_TRUE(coil.ok()) << coil.error();
  EXPECT_FALSE(ValidateFrameCoil(base, coil.value()).has_value());
}

// ------------------------------------------------------------- cache keys

TEST_F(AuditTest, CacheKeyRoundTripPasses) {
  std::string key = JoinKeyParts("schema text", "q(x) :- A(x)");
  EXPECT_FALSE(ValidateCacheKey(key, {"schema text", "q(x) :- A(x)"}).has_value());
}

TEST_F(AuditTest, CacheKeyPartMismatchTrips) {
  std::string key = JoinKeyParts("alpha", "beta");
  EXPECT_TRUE(ValidateCacheKey(key, {"alpha", "gamma"}).has_value());
  EXPECT_TRUE(ValidateCacheKey(key, {"alpha"}).has_value());
}

TEST_F(AuditTest, MalformedCacheKeyTrips) {
  EXPECT_TRUE(ValidateCacheKey("no-length-prefix", {"no-length-prefix"}).has_value());
  // Declared length overruns the payload.
  EXPECT_FALSE(SplitKeyParts("13:hello, world").has_value());
  auto parts = SplitKeyParts(JoinKeyParts("a", "", "c"));
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(*parts, (std::vector<std::string>{"a", "", "c"}));
  EXPECT_FALSE(SplitKeyParts("999:short").has_value());
}

// ----------------------------------------------------------- countermodels

TEST_F(AuditTest, GenuineCountermodelPasses) {
  auto tbox_src = ParseTBox("A <= exists r.B", &vocab_);
  ASSERT_TRUE(tbox_src.ok());
  NormalTBox tbox = Normalize(tbox_src.value(), &vocab_);

  // G: an A-node with an r-edge to a B-node. Satisfies T, matches p, and
  // does not match q = C(x).
  Graph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  g.AddLabel(a, vocab_.ConceptId("A"));
  g.AddLabel(b, vocab_.ConceptId("B"));
  g.AddEdge(a, vocab_.RoleId("r"), b);

  EXPECT_FALSE(ValidateCountermodel(g, C("A(x)"), U("C(x)"), tbox).has_value());
}

TEST_F(AuditTest, StaleCountermodelTrips) {
  NormalTBox empty_tbox;
  Graph g;
  NodeId v = g.AddNode();
  g.AddLabel(v, vocab_.ConceptId("A"));

  // Claims to refute p ⊑ q but actually satisfies q: not a countermodel.
  EXPECT_TRUE(ValidateCountermodel(g, C("A(x)"), U("A(x)"), empty_tbox).has_value());
  // Claims to witness p but does not match it.
  EXPECT_TRUE(ValidateCountermodel(g, C("B(x)"), U("C(x)"), empty_tbox).has_value());
}

// ---------------------------------------------------- mapping certificates

// P = A(x), r(x, y), (s*)(y, z), B(z), t(x, z); Q = A(x), (r . s*)(x, z),
// B(z). Q maps into P by x -> x, z -> z, its atom sent to the path
// r(x, y), (s*)(y, z).
class MappingCertificateAuditTest : public AuditTest {
 protected:
  void SetUp() override {
    p_ = C("A(x), r(x, y), (s*)(y, z), B(z), t(x, z)");
    q_ = U("A(x), (r . s*)(x, z), B(z)");
    std::optional<MappingCertificate> cert = MapsInto(p_, q_);
    ASSERT_TRUE(cert.has_value());
    cert_ = *cert;
    ASSERT_EQ(cert_.paths.size(), 1u);
    ASSERT_EQ(cert_.paths[0].size(), 2u);
  }

  /// The validator's violation, or "" if it passes.
  std::string Audit() {
    return ValidateMappingCertificate(p_, q_, cert_).value_or("");
  }

  Crpq p_;
  Ucrpq q_;
  MappingCertificate cert_;
};

TEST_F(MappingCertificateAuditTest, GenuineCertificatePasses) {
  EXPECT_EQ(Audit(), "");
}

TEST_F(MappingCertificateAuditTest, WrongVariableTrips) {
  // x -> y: y does not carry A.
  cert_.var_map[0] = 1;
  EXPECT_NE(Audit().find("literal"), std::string::npos) << Audit();
}

TEST_F(MappingCertificateAuditTest, DisconnectedPathTrips) {
  // (s*)(y, z) alone does not start at h(x) = x.
  cert_.paths[0] = {PathStep{1, false}};
  EXPECT_NE(Audit().find("not connected"), std::string::npos) << Audit();
}

TEST_F(MappingCertificateAuditTest, NonIncludedPathTrips) {
  // t(x, z) connects x to z, but t is not a word of r . s*.
  cert_.paths[0] = {PathStep{2, false}};
  EXPECT_NE(Audit().find("not in the Q atom's language"), std::string::npos)
      << Audit();
}

class SaturationCertificateAuditTest : public AuditTest {
 protected:
  void SetUp() override {
    auto tbox = ParseTBox("A <= B\nB and C <= bottom\ntop <= forall r.D",
                          &vocab_);
    ASSERT_TRUE(tbox.ok());
    tbox_ = Normalize(tbox.value(), &vocab_);
    // B on x by A ⊑ B; D on y along s.r by ⊤ ⊑ ∀r.D.
    typed_p_ = C("A(x), (s . r)(x, y)");
    typed_ = SaturateUnderSchema(typed_p_, tbox_);
    ASSERT_FALSE(typed_.certificate.clash);
    // B on x, then B ⊓ C ⊑ ⊥ clashes.
    clash_p_ = C("A(x), C(x)");
    clash_ = SaturateUnderSchema(clash_p_, tbox_);
    ASSERT_TRUE(clash_.certificate.clash);
  }

  /// The validator's violation, or "" if it passes.
  std::string Audit(const Crpq& p, const Saturation& s) {
    return ValidateSaturationCertificate(p, tbox_, s).value_or("");
  }

  /// The index of the first step of `s` on P's variables by `rule`.
  static std::size_t StepBy(const Saturation& s, SaturationStep::Rule rule) {
    const auto& steps = s.certificate.steps;
    return static_cast<std::size_t>(
        std::find_if(steps.begin(), steps.end(),
                     [&](const SaturationStep& step) {
                       return step.rule == rule && !step.clash;
                     }) -
        steps.begin());
  }

  NormalTBox tbox_;
  Crpq typed_p_;
  Saturation typed_;
  Crpq clash_p_;
  Saturation clash_;
};

TEST_F(SaturationCertificateAuditTest, GenuineCertificatesPass) {
  EXPECT_EQ(Audit(typed_p_, typed_), "");
  EXPECT_EQ(Audit(clash_p_, clash_), "");
}

TEST_F(SaturationCertificateAuditTest, StepWhoseLhsIsNotOnTheVariableTrips) {
  // A ⊑ B applied on y, which does not carry A.
  const std::size_t i = StepBy(typed_, SaturationStep::Rule::kBoolean);
  ASSERT_LT(i, typed_.certificate.steps.size());
  typed_.certificate.steps[i].var = 1;
  EXPECT_NE(Audit(typed_p_, typed_).find("lhs is not on the node"),
            std::string::npos)
      << Audit(typed_p_, typed_);
}

TEST_F(SaturationCertificateAuditTest, ClashLeavingALiteralOpenTrips) {
  // A ⊑ B "clashes" on x, but its B is open there.
  const std::size_t i = StepBy(clash_, SaturationStep::Rule::kBoolean);
  ASSERT_LT(i, clash_.certificate.steps.size());
  clash_.certificate.steps.back().ci = clash_.certificate.steps[i].ci;
  EXPECT_NE(Audit(clash_p_, clash_).find("leaves an rhs literal open"),
            std::string::npos)
      << Audit(clash_p_, clash_);
}

TEST_F(SaturationCertificateAuditTest, DerivedLiteralWithoutAStepTrips) {
  // D stays on y in the saturated P, but the step that put it there is gone.
  auto& steps = typed_.certificate.steps;
  const std::size_t i = StepBy(typed_, SaturationStep::Rule::kForallPath);
  ASSERT_LT(i, steps.size());
  steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(i));
  EXPECT_NE(Audit(typed_p_, typed_).find("that no step concludes"),
            std::string::npos)
      << Audit(typed_p_, typed_);
}

}  // namespace
}  // namespace gqc
