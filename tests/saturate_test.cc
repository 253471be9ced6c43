// The schema saturation of P (SaturateUnderSchema, src/core/saturate.h) in
// the screen: the clashes and schema-typed maps it must certify, the near
// misses it must leave alone, and a differential check that nothing it
// certifies is ever refuted — neither by the countermodel search under the
// pair's schema nor by a brute-force enumeration of the schema's small
// models that shares no code with the saturation.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/containment.h"
#include "src/core/saturate.h"
#include "src/core/strategy.h"
#include "src/core/validate.h"
#include "src/dl/concept_parser.h"
#include "src/dl/normalize.h"
#include "src/query/parser.h"
#include "tests/brute_oracle.h"
#include "tests/differential_pairs.h"

namespace gqc {
namespace {

constexpr const char* kUnsatisfiable = "p is unsatisfiable modulo the schema";
constexpr const char* kTyped = "Q maps into p saturated under the schema";

class SaturationTest : public ::testing::Test {
 protected:
  Ucrpq U(const std::string& text) {
    auto r = ParseUcrpq(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }
  TBox T(const std::string& text) {
    auto r = ParseTBox(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }

  /// The sequential decision at the serving budget of 2 000 steps.
  ContainmentResult Decide(const std::string& schema, const std::string& p,
                           const std::string& q) {
    ContainmentOptions options;
    options.resources.max_steps = 2000;
    ContainmentChecker checker(&vocab_, options);
    return checker.Decide(U(p), U(q), T(schema));
  }

  /// The saturation of p, which must pass the audit.
  Saturation Saturate(const std::string& schema, const std::string& p) {
    tbox_ = Normalize(T(schema), &vocab_);
    p_ = U(p).Disjuncts()[0];
    Saturation s = SaturateUnderSchema(p_, tbox_);
    AuditResult audit = ValidateSaturationCertificate(p_, tbox_, s);
    EXPECT_FALSE(audit.has_value()) << *audit;
    return s;
  }

  /// True if the saturated p carries `literal` on its variable `var`.
  bool Carries(const Saturation& s, const std::string& var,
               const std::string& literal) {
    const Crpq& sat = s.saturated;
    return std::any_of(
        sat.UnaryAtoms().begin(), sat.UnaryAtoms().end(),
        [&](const UnaryAtom& u) {
          return sat.VarName(u.var) == var &&
                 vocab_.LiteralString(u.literal) == literal;
        });
  }

  Vocabulary vocab_;
  NormalTBox tbox_;
  Crpq p_;
};

void ExpectScreened(const ContainmentResult& r, const char* note) {
  EXPECT_EQ(r.verdict, Verdict::kContained);
  EXPECT_EQ(r.attr.strategy, "screen");
  EXPECT_EQ(r.attr.note, note);
}

// ------------------------------------------------------------ certified

TEST_F(SaturationTest, GridClashesWithAStarAtom) {
  // The serve grid's unknowns: a star keeps P's expansions non-exhaustive,
  // so the search can never answer, but P's K is unsatisfiable.
  ExpectScreened(Decide("K and J <= bottom\nK <= J\nK <= exists s.K",
                        "A(x), r(x, y), J(y), (r*)(y, z), K(z)",
                        "J(x), r(x, y), K(y), (r*)(y, z)"),
                 kUnsatisfiable);
  ExpectScreened(Decide("K and K <= bottom\ntop <= forall s.A\n"
                        "K <= atmost 1 s.A",
                        "K(x), r(x, y), J(y), (s*)(y, z)",
                        "J(x), r(x, y), r(y, z), A(z)"),
                 kUnsatisfiable);
  Saturation s = Saturate("K and J <= bottom\nK <= J", "(r*)(x, y), K(y)");
  ASSERT_TRUE(s.certificate.clash);
  EXPECT_EQ(s.certificate.steps.back().rule, SaturationStep::Rule::kBoolean);
  EXPECT_TRUE(s.certificate.steps.back().clash);
}

TEST_F(SaturationTest, TypingAlongAConcatenation) {
  // Every word of s.r ends with r, so ⊤ ⊑ ∀r.D puts D on y.
  ExpectScreened(Decide("top <= forall r.D", "(s . r)(x, y)", "D(y)"), kTyped);
  Saturation s = Saturate("top <= forall r.D", "(s . r)(x, y)");
  EXPECT_FALSE(s.certificate.clash);
  EXPECT_TRUE(Carries(s, "y", "D"));
  EXPECT_FALSE(Carries(s, "x", "D"));
  // With a star the search cannot answer; the saturation still can.
  ExpectScreened(Decide("top <= forall r.D", "A(x), (s* . r)(x, y)",
                        "A(x), D(y)"),
                 kTyped);
  // Every word starting with r⁻ puts D on x.
  EXPECT_TRUE(
      Carries(Saturate("top <= forall r.D", "(r- . s*)(x, y)"), "x", "D"));
  // Along a one-letter atom the lhs need only hold on its source.
  Saturation edge = Saturate("A <= forall r.D\nD <= E", "A(x), r(x, y)");
  EXPECT_TRUE(Carries(edge, "y", "D"));
  EXPECT_TRUE(Carries(edge, "y", "E"));
  EXPECT_TRUE(Carries(Saturate("A <= forall r-.D", "r(x, y), A(y)"), "x", "D"));
}

TEST_F(SaturationTest, ParticipationFillerClashes) {
  ExpectScreened(Decide("A <= exists r.B\nB <= bottom", "A(x)", "C(x)"),
                 kUnsatisfiable);
  Saturation s = Saturate("A <= exists r.B\nB <= bottom", "A(x)");
  ASSERT_TRUE(s.certificate.clash);
  const SaturationStep& last = s.certificate.steps.back();
  EXPECT_EQ(last.rule, SaturationStep::Rule::kFiller);
  ASSERT_EQ(last.seeds.size(), 1u);
  EXPECT_EQ(vocab_.LiteralString(last.seeds[0]), "B");
  // The ∀r literals A passes to its filler clash with the filler's own,
  // one filler further down.
  EXPECT_TRUE(Saturate("A <= exists r.B\nB <= exists r.C\nB <= forall r.E\n"
                       "C and E <= bottom",
                       "A(x)")
                  .certificate.clash);
  // A filler that repeats itself is explored once.
  EXPECT_FALSE(Saturate("A <= exists r.A", "A(x)").certificate.clash);
}

// ------------------------------------------------------------ near misses

TEST_F(SaturationTest, NearMissesStayUncertified) {
  // Two rhs literals stay open: nothing is concluded.
  Saturation open = Saturate("A <= B or C", "A(x)");
  EXPECT_FALSE(open.certificate.clash);
  EXPECT_FALSE(Carries(open, "x", "B"));
  EXPECT_EQ(Decide("A <= B or C", "A(x)", "B(x)").verdict,
            Verdict::kNotContained);
  // A nullable atom ending in r may be the empty word: y may be x.
  EXPECT_FALSE(
      Carries(Saturate("top <= forall r.D", "(s* . r*)(x, y)"), "y", "D"));
  EXPECT_EQ(Decide("top <= forall r.D", "(s* . r*)(x, y)", "D(y)").verdict,
            Verdict::kNotContained);
  // The last r of s.r leaves the middle node, which need not carry A.
  EXPECT_FALSE(
      Carries(Saturate("A <= forall r.D", "A(x), (s . r)(x, y)"), "y", "D"));
  EXPECT_EQ(Decide("A <= forall r.D", "A(x), (s . r)(x, y)", "D(y)").verdict,
            Verdict::kNotContained);
  // Words ending in r or s fix neither letter.
  EXPECT_FALSE(Carries(Saturate("top <= forall r.D", "(r + s)(x, y)"), "y", "D"));
}

// ------------------------------------------------------------ differential

using testing_oracle::DifferentialPairs;
using testing_oracle::Pair;
using testing_oracle::Union;

TEST(SaturationDifferentialTest, CertifiedPairsAreNeverRefuted) {
  const std::vector<Pair> pairs = DifferentialPairs();
  ASSERT_GE(pairs.size(), 500u);
  std::size_t clashes = 0;
  std::size_t typed = 0;
  for (const Pair& pair : pairs) {
    SCOPED_TRACE(pair.label + ": " + pair.p + "  ⊑  " + pair.q);
    Vocabulary vocab;
    auto tbox = ParseTBox(pair.schema, &vocab);
    auto p = ParseUcrpq(pair.p, &vocab);
    auto q = ParseUcrpq(pair.q, &vocab);
    ASSERT_TRUE(tbox.ok() && p.ok() && q.ok());
    ASSERT_EQ(p.value().size(), 1u);
    const Crpq& disjunct = p.value().Disjuncts()[0];
    const NormalTBox normal = Normalize(tbox.value(), &vocab);
    const Saturation s = SaturateUnderSchema(disjunct, normal);
    std::optional<MappingCertificate> cert;
    if (!s.certificate.clash) {
      // Pairs Q maps into without the schema are the mapping suite's.
      if (MapsInto(disjunct, q.value()).has_value()) continue;
      cert = MapsInto(s.saturated, q.value());
      if (!cert.has_value()) continue;
    }
    ++(cert.has_value() ? typed : clashes);
    AuditResult audit = ValidateSaturationCertificate(disjunct, normal, s);
    EXPECT_FALSE(audit.has_value()) << *audit;
    if (cert.has_value()) {
      audit = ValidateMappingCertificate(s.saturated, q.value(), *cert);
      EXPECT_FALSE(audit.has_value()) << *audit;
    }

    // The countermodel search alone, under the pair's schema.
    ContainmentOptions options;
    options.strategies = {FindStrategy("direct"), FindStrategy("reduction")};
    options.resources.max_steps = 20000;
    ContainmentChecker checker(&vocab, options);
    ContainmentResult searched = checker.Decide(p.value(), q.value(), tbox.value());
    EXPECT_NE(searched.verdict, Verdict::kNotContained);

    // Every model of the schema of at most two nodes over the pair's and
    // the schema's symbols.
    std::optional<Graph> refutation = testing_oracle::BruteForceRefutation(
        p.value(), q.value(), tbox.value(),
        Union(Union(p.value().MentionedConcepts(),
                    q.value().MentionedConcepts()),
              tbox.value().ConceptIds()),
        Union(Union(p.value().MentionedRoles(), q.value().MentionedRoles()),
              tbox.value().RoleIds()),
        2);
    EXPECT_FALSE(refutation.has_value());
  }
  // Neither outcome is checked vacuously (98 clashes and 4 maps).
  EXPECT_GE(clashes, 50u);
  EXPECT_GE(typed, 4u);
}

}  // namespace
}  // namespace gqc
