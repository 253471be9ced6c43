// Tests that exercise the §3 reduction machinery itself (Tp computation +
// star-like central-part search with participation deferral), by starving
// the direct chase of nodes so it cannot answer.

#include <gtest/gtest.h>

#include "src/core/containment.h"
#include "src/core/reduction.h"
#include "src/dl/concept_parser.h"
#include "src/dl/model_check.h"
#include "src/dl/normalize.h"
#include "src/query/eval.h"
#include "src/query/parser.h"

namespace gqc {
namespace {

class ReductionTest : public ::testing::Test {
 protected:
  NormalTBox T(const std::string& text) {
    auto r = ParseTBox(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return Normalize(r.value(), &vocab_);
  }
  Ucrpq U(const std::string& text) {
    auto r = ParseUcrpq(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }

  Vocabulary vocab_;
};

TEST_F(ReductionTest, StubsAnswerWhereChaseCannot) {
  // T: every B has an r-successor in B. Q forbids self loops and 2-cycles,
  // so any concrete countermodel needs an r-cycle of length >= 3 through B.
  // With the chase starved to 2 nodes, the direct search caps out; the
  // reduction still answers: the central part is a single B node plus a
  // deferred stub whose type Tp certifies as realizable (by the engine, with
  // no node bound).
  NormalTBox tbox = T("B <= exists r.B");
  Ucrpq p = U("B(x)");
  Ucrpq q = U("r(x, x) ; r(x, y), r(y, x)");

  ContainmentOptions starved;
  starved.countermodel.limits.max_witness_nodes = 2;
  ContainmentChecker checker(&vocab_, starved);
  auto with_reduction = checker.Decide(p, q, tbox);
  EXPECT_EQ(with_reduction.verdict, Verdict::kNotContained);
  EXPECT_EQ(with_reduction.attr.strategy, "reduction");
  ASSERT_TRUE(with_reduction.central_part.has_value());
  // The central part satisfies p, avoids the factorized query implicitly
  // (checked in the pipeline); its participation gaps are at stubs.
  EXPECT_TRUE(Matches(*with_reduction.central_part, p));

  // With the reduction disabled, the starved pipeline cannot answer.
  ContainmentOptions no_reduction = starved;
  no_reduction.disable_reduction = true;
  ContainmentChecker blind(&vocab_, no_reduction);
  EXPECT_EQ(blind.Decide(p, q, tbox).verdict, Verdict::kUnknown);

  // Sanity: with a normal budget, a concrete countermodel (3-cycle) exists.
  ContainmentChecker normal(&vocab_);
  auto direct = normal.Decide(p, q, tbox);
  EXPECT_EQ(direct.verdict, Verdict::kNotContained);
  if (direct.countermodel.has_value()) {
    EXPECT_TRUE(Satisfies(*direct.countermodel,
                          T("B <= exists r.B")));  // fresh normalize is fine
    EXPECT_FALSE(Matches(*direct.countermodel, q));
    EXPECT_GE(direct.countermodel->NodeCount(), 3u);
  }
}

TEST_F(ReductionTest, ReductionCertifiesContainmentExactly) {
  // Star-free p, participation schema, containment holds: the reduction's
  // kNo (no central part exists) certifies it even when the direct chase is
  // starved below the witness size.
  NormalTBox tbox = T("A <= exists r.B\ntop <= forall r.B");
  Ucrpq p = U("A(x), r(x, y)");
  Ucrpq q = U("r(x, y), B(y)");

  ContainmentOptions starved;
  starved.countermodel.limits.max_witness_nodes = 1;
  ContainmentChecker checker(&vocab_, starved);
  auto r = checker.Decide(p, q, tbox);
  // p itself requires 2 nodes... which exceeds the chase budget, but the
  // classical screen already certifies nothing (q adds B(y)); the typing
  // constraint makes it contained. Whether the starved pipeline proves it
  // depends on the reduction's H0 search (also node-capped), so accept
  // contained-or-unknown but never a countermodel.
  EXPECT_NE(r.verdict, Verdict::kNotContained);

  ContainmentChecker normal(&vocab_);
  EXPECT_EQ(normal.Decide(p, q, tbox).verdict, Verdict::kContained);
}

TEST_F(ReductionTest, DirectReductionApi) {
  // ContainmentViaEntailment exposed directly: a refutable instance.
  NormalTBox tbox = T("A <= exists r.B");
  auto p = ParseCrpq("A(x)", &vocab_);
  Ucrpq q = U("C(x)");
  ReductionOptions options;
  ReductionResult res =
      ContainmentViaEntailment(p.value(), q, tbox, /*alcq_case=*/true, &vocab_,
                               options);
  EXPECT_EQ(res.countermodel_found, EngineAnswer::kYes);
  ASSERT_TRUE(res.central_part.has_value());
  EXPECT_TRUE(Matches(*res.central_part, U("A(x)")));
  EXPECT_FALSE(Matches(*res.central_part, q));
}

TEST_F(ReductionTest, DirectReductionApiContained) {
  // And a contained instance: A(x) ⊑ B(x) under A ⊑ B with a participation
  // CI forcing the reduction shape.
  NormalTBox tbox = T("A <= B\nA <= exists r.B");
  auto p = ParseCrpq("A(x)", &vocab_);
  Ucrpq q = U("B(x)");
  ReductionOptions options;
  ReductionResult res =
      ContainmentViaEntailment(p.value(), q, tbox, /*alcq_case=*/true, &vocab_,
                               options);
  EXPECT_EQ(res.countermodel_found, EngineAnswer::kNo);
}

}  // namespace
}  // namespace gqc
