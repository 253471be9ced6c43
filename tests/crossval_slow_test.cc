// Deep differential-oracle sweep (ctest label: slow): the same three-oracle
// cross-validation as crossval_test.cc, but with the brute-force enumerator
// bound raised to 3 nodes — 8^3 labelings x 2^9 edge sets = 262144 candidate
// graphs per instance, which is why this lives in the slow suite. The larger
// bound catches refutation bugs that only 3-node models expose (e.g. a
// counting constraint forcing two distinct successors).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/saturate.h"
#include "src/dl/concept_parser.h"
#include "src/dl/normalize.h"
#include "src/entailment/alcq_simple.h"
#include "src/entailment/witness_search.h"
#include "src/query/factorize.h"
#include "src/query/parser.h"
#include "src/query/query_containment.h"
#include "tests/brute_oracle.h"
#include "tests/differential_pairs.h"

namespace gqc {
namespace {

using testing_oracle::BruteForceAnswer;
using testing_oracle::BruteForceRealizable;
using testing_oracle::Generate;
using testing_oracle::GeneratedInstance;
using testing_oracle::IsValidWitness;

constexpr std::size_t kDeepNodeBound = 3;

class DeepCrossValidationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeepCrossValidationTest, BruteForceAgreesAtBoundThree) {
  GeneratedInstance inst = Generate(GetParam());
  SCOPED_TRACE("tbox:\n" + inst.tbox_text + "query: " + inst.query_text +
               "\ntau: " + inst.tau_concept);

  Vocabulary vocab;
  auto tbox_or = ParseTBox(inst.tbox_text, &vocab);
  ASSERT_TRUE(tbox_or.ok()) << tbox_or.error();
  NormalTBox tbox = Normalize(tbox_or.value(), &vocab);
  auto q = ParseUcrpq(inst.query_text, &vocab);
  ASSERT_TRUE(q.ok()) << q.error();

  Type tau;
  tau.AddLiteral(Literal::Positive(vocab.ConceptId(inst.tau_concept)));

  auto f = FactorizeSimpleUcrpq(q.value(), &vocab);
  ASSERT_TRUE(f.ok()) << f.error();
  AlcqSimpleEngine engine(&f.value(), &vocab);
  EngineAnswer by_engine = engine.TypeRealizable(tau, tbox);

  std::vector<uint32_t> ids = tbox.ConceptIds();
  for (Literal l : tau.Literals()) ids.push_back(l.concept_id());
  for (uint32_t id : q.value().MentionedConcepts()) ids.push_back(id);
  TypeSpace space{std::move(ids)};
  WitnessProblem problem;
  problem.space = &space;
  problem.tbox = &tbox;
  problem.tau = tau;
  problem.forbid = &q.value();
  WitnessResult by_search = FindWitness(problem, EngineLimits{});

  std::vector<uint32_t> alphabet = {vocab.ConceptId("A"), vocab.ConceptId("B"),
                                    vocab.ConceptId("C")};
  BruteForceAnswer by_brute =
      BruteForceRealizable(tau, tbox_or.value(), q.value(), alphabet,
                           vocab.RoleId("r"), kDeepNodeBound);

  if (by_brute.found) {
    EXPECT_NE(by_engine, EngineAnswer::kNo)
        << "engine says unrealizable but a " << by_brute.model->NodeCount()
        << "-node model realizes tau";
    EXPECT_NE(by_search.answer, EngineAnswer::kNo)
        << "witness search says unrealizable but a "
        << by_brute.model->NodeCount() << "-node model realizes tau";
    EXPECT_TRUE(IsValidWitness(*by_brute.model, tau, tbox_or.value(), q.value()));
  }
  if (by_search.answer == EngineAnswer::kYes) {
    ASSERT_TRUE(by_search.witness.has_value());
    EXPECT_TRUE(IsValidWitness(*by_search.witness, tau, tbox, q.value()));
    if (by_search.witness->NodeCount() <= kDeepNodeBound) {
      EXPECT_TRUE(by_brute.found)
          << "search found a " << by_search.witness->NodeCount()
          << "-node witness the exhaustive enumeration missed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepCrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

// The cross-validation pairs the screen's schema saturation certifies (a
// clash, or a map of Q that needs a derived literal) have no refutation
// among the schema's models of up to 3 nodes either.
TEST(DeepSaturationTest, CertifiedCrossvalPairsHaveNoThreeNodeRefutation) {
  std::size_t certified = 0;
  for (const testing_oracle::Pair& pair : testing_oracle::DifferentialPairs()) {
    if (pair.label.rfind("xval-", 0) != 0) continue;
    SCOPED_TRACE(pair.label + ": " + pair.p + "  ⊑  " + pair.q);
    Vocabulary vocab;
    auto tbox = ParseTBox(pair.schema, &vocab);
    auto p = ParseUcrpq(pair.p, &vocab);
    auto q = ParseUcrpq(pair.q, &vocab);
    ASSERT_TRUE(tbox.ok() && p.ok() && q.ok());
    const Crpq& disjunct = p.value().Disjuncts()[0];
    const Saturation s =
        SaturateUnderSchema(disjunct, Normalize(tbox.value(), &vocab));
    if (!s.certificate.clash &&
        (MapsInto(disjunct, q.value()).has_value() ||
         !MapsInto(s.saturated, q.value()).has_value())) {
      continue;
    }
    ++certified;
    using testing_oracle::Union;
    EXPECT_FALSE(testing_oracle::BruteForceRefutation(
                     p.value(), q.value(), tbox.value(),
                     Union(Union(p.value().MentionedConcepts(),
                                 q.value().MentionedConcepts()),
                           tbox.value().ConceptIds()),
                     Union(Union(p.value().MentionedRoles(),
                                 q.value().MentionedRoles()),
                           tbox.value().RoleIds()),
                     kDeepNodeBound)
                     .has_value());
  }
  EXPECT_GE(certified, 30u);
}

}  // namespace
}  // namespace gqc
