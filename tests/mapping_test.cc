// The homomorphism screen (MapsInto, src/query/query_containment.h): the
// shapes it must certify, the near misses it must leave alone, and a
// differential check that nothing it certifies is ever refuted — neither by
// the countermodel search under the pair's schema nor by a brute-force
// enumeration of small graphs that shares no code with the screen.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/containment.h"
#include "src/core/strategy.h"
#include "src/core/validate.h"
#include "src/dl/concept_parser.h"
#include "src/query/parser.h"
#include "tests/brute_oracle.h"
#include "tests/differential_pairs.h"

namespace gqc {
namespace {

class MappingTest : public ::testing::Test {
 protected:
  Crpq Q(const std::string& text) {
    auto r = ParseCrpq(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }
  Ucrpq U(const std::string& text) {
    auto r = ParseUcrpq(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }

  /// MapsInto's certificate for p ⊑ q, which must also pass the audit.
  std::optional<MappingCertificate> Certify(const std::string& p,
                                            const std::string& q) {
    Crpq pc = Q(p);
    Ucrpq qu = U(q);
    std::optional<MappingCertificate> cert = MapsInto(pc, qu);
    if (cert.has_value()) {
      AuditResult audit = ValidateMappingCertificate(pc, qu, *cert);
      EXPECT_FALSE(audit.has_value()) << *audit;
    }
    return cert;
  }

  Vocabulary vocab_;
};

// ------------------------------------------------------------ certified

TEST_F(MappingTest, EmptyWordMapsTwoVariablesToOne) {
  // Q's x needs B, which P's x lacks: x and y both land on P's y, and Q's
  // star is met by its empty word there.
  auto cert = Certify("A(x), ((r + s)*)(x, y), B(y), r(y, z), B(z)",
                      "B(x), ((r + s)*)(x, y), r(y, z), B(z)");
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->var_map[0], 1u);
  EXPECT_EQ(cert->var_map[1], 1u);
  EXPECT_TRUE(cert->paths[0].empty());
}

TEST_F(MappingTest, ReversedTraversalInvertsTheRoles) {
  auto cert = Certify("(r . s*)(x, y)", "((s-)* . r-)(y, x)");
  ASSERT_TRUE(cert.has_value());
  ASSERT_EQ(cert->paths[0].size(), 1u);
  EXPECT_TRUE(cert->paths[0][0].reversed);
  EXPECT_FALSE(Certify("(r . s*)(x, y)", "((s)* . r)(y, x)").has_value());
}

TEST_F(MappingTest, ConcatenationAcrossTwoAtoms) {
  auto cert = Certify("r(x, y), (s . s*)(y, z)", "(r . s^+)(x, z)");
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->paths[0].size(), 2u);
  // A nullable atom on the path contributes its empty word too.
  EXPECT_TRUE(Certify("r(x, y), (s*)(y, z)", "(r . s*)(x, z)").has_value());
  EXPECT_FALSE(Certify("r(x, y), (s*)(y, z)", "(r . s^+)(x, z)").has_value());
}

TEST_F(MappingTest, UnionQMapsThroughOneDisjunct) {
  auto cert = Certify("A(x), b(x, y)", "a(x, y) ; A(x), (b + c)(x, y)");
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->disjunct, 1u);
}

// ------------------------------------------------------------ near misses

TEST_F(MappingTest, NearMissesStayUncertified) {
  // The ends are pinned by A and B, so no Q atom can shrink to the empty
  // word. Even-length words against words of length 0, 2 and 4 only:
  EXPECT_FALSE(Certify("A(x), ((r.r)*)(x, y), B(y)",
                       "A(x), (eps + r.r + r.r.r.r)(x, y), B(y)")
                   .has_value());
  EXPECT_FALSE(Certify("A(x), (r*)(x, y), B(y)", "A(x), r(x, y), B(y)")
                   .has_value());
  EXPECT_FALSE(Certify("A(x), (r.s)(x, y), B(y)", "A(x), (s.r)(x, y), B(y)")
                   .has_value());
  // A test letter is matched as a letter: [C].r is not a word of r.
  EXPECT_FALSE(Certify("A(x), ([C] . r)(x, y), B(y)", "A(x), r(x, y), B(y)")
                   .has_value());
  // A nullable Q atom is met by its empty word alone when nothing pins it.
  EXPECT_TRUE(Certify("((r.r)*)(x, y)", "(eps + r.r + r.r.r.r)(x, y)")
                  .has_value());
  // Literals must sit on the image.
  EXPECT_FALSE(Certify("A(x), r(x, y)", "r(x, y), A(y)").has_value());
  EXPECT_FALSE(Certify("A(x), r(x, y)", "!A(x), r(x, y)").has_value());
}

// ------------------------------------------------------------ differential

using testing_oracle::DifferentialPairs;
using testing_oracle::Pair;
using testing_oracle::Union;

TEST(MappingDifferentialTest, CertifiedPairsAreNeverRefuted) {
  const std::vector<Pair> pairs = DifferentialPairs();
  ASSERT_GE(pairs.size(), 500u);
  std::size_t certified = 0;
  std::size_t certified_sub = 0;
  std::size_t sub = 0;
  for (const Pair& pair : pairs) {
    SCOPED_TRACE(pair.label + ": " + pair.p + "  ⊑  " + pair.q);
    Vocabulary vocab;
    auto tbox = ParseTBox(pair.schema, &vocab);
    auto p = ParseUcrpq(pair.p, &vocab);
    auto q = ParseUcrpq(pair.q, &vocab);
    ASSERT_TRUE(tbox.ok() && p.ok() && q.ok());
    const bool is_sub = pair.label.rfind("sub-", 0) == 0;
    sub += is_sub ? 1 : 0;
    ASSERT_EQ(p.value().size(), 1u);
    const Crpq& disjunct = p.value().Disjuncts()[0];
    std::optional<MappingCertificate> cert = MapsInto(disjunct, q.value());
    if (!cert.has_value()) continue;
    ++certified;
    certified_sub += is_sub ? 1 : 0;
    AuditResult audit = ValidateMappingCertificate(disjunct, q.value(), *cert);
    EXPECT_FALSE(audit.has_value()) << *audit;

    // The countermodel search alone, under the pair's schema.
    ContainmentOptions options;
    options.strategies = {FindStrategy("direct"), FindStrategy("reduction")};
    options.resources.max_steps = 20000;
    ContainmentChecker checker(&vocab, options);
    ContainmentResult searched = checker.Decide(p.value(), q.value(), tbox.value());
    EXPECT_NE(searched.verdict, Verdict::kNotContained);

    // Every graph of at most two nodes over the pair's symbols.
    std::optional<Graph> refutation = testing_oracle::BruteForceRefutation(
        p.value(), q.value(), TBox(),
        Union(p.value().MentionedConcepts(), q.value().MentionedConcepts()),
        Union(p.value().MentionedRoles(), q.value().MentionedRoles()), 2);
    EXPECT_FALSE(refutation.has_value());
  }
  // Every question contained by construction is certified, and the check
  // is not vacuous.
  EXPECT_EQ(certified_sub, sub);
  EXPECT_GE(certified, 300u);
}

}  // namespace
}  // namespace gqc
