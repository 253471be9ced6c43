#include <gtest/gtest.h>

#include "src/core/containment.h"
#include "src/core/decide.h"
#include "src/core/validate.h"
#include "src/dl/concept_parser.h"
#include "src/dl/model_check.h"
#include "src/dl/normalize.h"
#include "src/engine/engine.h"
#include "src/query/eval.h"
#include "src/query/parser.h"
#include "src/schema/pg_schema.h"
#include "src/schema/workload.h"

namespace gqc {
namespace {

class ContainmentTest : public ::testing::Test {
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

  /// Verifies a kNotContained verdict end-to-end.
  void VerifyCountermodel(const ContainmentResult& r, const Ucrpq& p, const Ucrpq& q,
                          const TBox& schema) {
    ASSERT_EQ(r.verdict, Verdict::kNotContained);
    ASSERT_TRUE(r.countermodel.has_value());
    EXPECT_TRUE(Satisfies(*r.countermodel, schema));
    EXPECT_TRUE(Matches(*r.countermodel, p));
    EXPECT_FALSE(Matches(*r.countermodel, q));
  }

  Vocabulary vocab_;
};

TEST_F(ContainmentTest, EmptySchemaAgreesWithClassical) {
  TBox empty;
  ContainmentChecker checker(&vocab_);
  // CQ case: exact both ways.
  EXPECT_EQ(checker.Decide(U("r(x, y), s(y, z)"), U("r(x, y)"), empty).verdict,
            Verdict::kContained);
  auto r = checker.Decide(U("r(x, y)"), U("r(x, y), s(y, z)"), empty);
  VerifyCountermodel(r, U("r(x, y)"), U("r(x, y), s(y, z)"), empty);
}

TEST_F(ContainmentTest, TypingConstraintMakesContainmentHold) {
  // The essence of Example 1.1 in miniature: every partner-target is a
  // RetailCompany, so adding the RetailCompany(y) atom does not restrict.
  TBox schema = T("top <= forall partner.RetailCompany");
  Ucrpq p = U("partner(x, y)");
  Ucrpq q = U("partner(x, y), RetailCompany(y)");
  ContainmentChecker checker(&vocab_);

  EXPECT_EQ(checker.Decide(p, q, schema).verdict, Verdict::kContained)
      << "forced label: containment holds modulo schema";

  TBox empty;
  auto no_schema = checker.Decide(p, q, empty);
  VerifyCountermodel(no_schema, p, q, empty);

  // The converse holds with and without the schema.
  EXPECT_EQ(checker.Decide(q, p, schema).verdict, Verdict::kContained);
  EXPECT_EQ(checker.Decide(q, p, empty).verdict, Verdict::kContained);
}

TEST_F(ContainmentTest, ReductionPathWithParticipation) {
  // Participation forces every A to own something; the countermodel search
  // must build the witness. Containment A(x) ⊑ owns(x,y): holds modulo
  // schema (every A owns), fails without.
  TBox schema = T("A <= exists owns.B");
  Ucrpq p = U("A(x)");
  Ucrpq q = U("owns(x, y)");
  ContainmentChecker checker(&vocab_);
  EXPECT_EQ(checker.Decide(p, q, schema).verdict, Verdict::kContained);

  TBox empty;
  auto r = checker.Decide(p, q, empty);
  VerifyCountermodel(r, p, q, empty);
}

TEST_F(ContainmentTest, ParticipationDoesNotForceLabels) {
  // Participation plus typing: A owns a B; is every A also owning a C? No.
  TBox schema = T("A <= exists owns.B");
  ContainmentChecker checker(&vocab_);
  auto r = checker.Decide(U("A(x)"), U("owns(x, y), C(y)"), schema);
  VerifyCountermodel(r, U("A(x)"), U("owns(x, y), C(y)"), schema);
}

TEST_F(ContainmentTest, StarQueryContainmentWithSchema) {
  // Reachability weakening: the direct edge implies the starred query.
  TBox schema = T("top <= forall r.B");
  ContainmentChecker checker(&vocab_);
  EXPECT_EQ(checker.Decide(U("r(x, y)"), U("(r*)(x, y), B(y)"), schema).verdict,
            Verdict::kContained);
  // Without the typing constraint the B(y) atom can fail.
  TBox empty;
  auto r = checker.Decide(U("r(x, y)"), U("(r*)(x, y), B(y)"), empty);
  EXPECT_EQ(r.verdict, Verdict::kNotContained);
}

TEST_F(ContainmentTest, DisjointnessRefutesContainment) {
  // A and B disjoint: a query asking for an A that is B is unsatisfiable,
  // so it is contained in anything; and anything is NOT contained in it.
  TBox schema = T("A and B <= bottom");
  ContainmentChecker checker(&vocab_);
  EXPECT_EQ(checker.Decide(U("A(x), B(x)"), U("C(y)"), schema).verdict,
            Verdict::kContained)
      << "unsatisfiable premise: vacuous containment";
  auto r = checker.Decide(U("A(x)"), U("A(x), B(x)"), schema);
  EXPECT_EQ(r.verdict, Verdict::kNotContained);
}

TEST_F(ContainmentTest, UnionOnBothSides) {
  TBox empty;
  ContainmentChecker checker(&vocab_);
  EXPECT_EQ(checker.Decide(U("a(x, y) ; b(x, y)"), U("a(x, y) ; b(x, y) ; c(x, y)"),
                           empty)
                .verdict,
            Verdict::kContained);
  auto r = checker.Decide(U("a(x, y) ; c(x, y)"), U("a(x, y) ; b(x, y)"), empty);
  EXPECT_EQ(r.verdict, Verdict::kNotContained);
}

TEST_F(ContainmentTest, Example11NoSchemaDirections) {
  // Paper Example 1.1 without schema: q2 ⊑ q1 (q1 maps into q2), q1 ⋢ q2
  // (exact counterexample).
  Ucrpq q1 = U("(owns . earns . partner . (partof-)*)(x, y)");
  Ucrpq q2 = U("(owns . earns . partner)(x, z), RetailCompany(z), (partof-)*(z, y)");
  TBox empty;
  ContainmentChecker checker(&vocab_);

  auto forward = checker.Decide(q1, q2, empty);
  EXPECT_EQ(forward.verdict, Verdict::kNotContained)
      << "without the schema the partner target need not be a RetailCompany";
  ASSERT_TRUE(forward.countermodel.has_value());
  EXPECT_TRUE(Matches(*forward.countermodel, q1));
  EXPECT_FALSE(Matches(*forward.countermodel, q2));

  auto backward = checker.Decide(q2, q1, empty);
  EXPECT_EQ(backward.verdict, Verdict::kContained)
      << "q2 ⊑ q1 classically: q1's atom maps onto q2's two atoms";
  EXPECT_EQ(backward.attr.strategy, "screen");
}

TEST_F(ContainmentTest, Example11WithSchema) {
  // Modulo the credit-card schema, q1 ⊑_S q2: the typing constraint
  // ∀partner.RetailCompany forces the extra atom. The combination (two-way,
  // non-simple, ALCQI) is outside the paper's decidable fragments, so the
  // library may answer kUnknown — but it must not produce a countermodel.
  Ucrpq q1 = U("(owns . earns . partner . (partof-)*)(x, y)");
  Ucrpq q2 = U("(owns . earns . partner)(x, z), RetailCompany(z), (partof-)*(z, y)");
  TBox schema = CreditCardSchema(&vocab_);
  ContainmentChecker checker(&vocab_);

  auto with_schema = checker.Decide(q1, q2, schema);
  EXPECT_NE(with_schema.verdict, Verdict::kNotContained)
      << "modulo S, q1 is contained in q2 (Example 1.1)";
  // And q2 ⊑_S q1 as before.
  auto backward = checker.Decide(q2, q1, schema);
  EXPECT_NE(backward.verdict, Verdict::kNotContained);
}

TEST_F(ContainmentTest, Example11SchemaSatisfiable) {
  // Sanity for the schema compiler: a concrete instance of Fig. 1 satisfies
  // the compiled TBox.
  TBox schema = CreditCardSchema(&vocab_);
  Graph g;
  NodeId alice = g.AddNode();
  NodeId visa = g.AddNode();
  NodeId prog = g.AddNode();
  NodeId acme = g.AddNode();
  NodeId sub = g.AddNode();
  g.AddLabel(alice, vocab_.ConceptId("Customer"));
  g.AddLabel(visa, vocab_.ConceptId("CredCard"));
  g.AddLabel(visa, vocab_.ConceptId("PremCC"));
  g.AddLabel(prog, vocab_.ConceptId("RwrdProg"));
  g.AddLabel(acme, vocab_.ConceptId("RetailCompany"));
  g.AddLabel(acme, vocab_.ConceptId("Company"));
  g.AddLabel(sub, vocab_.ConceptId("Company"));
  g.AddEdge(alice, vocab_.RoleId("owns"), visa);
  g.AddEdge(visa, vocab_.RoleId("earns"), prog);
  g.AddEdge(prog, vocab_.RoleId("partner"), acme);
  g.AddEdge(sub, vocab_.RoleId("partof"), acme);
  EXPECT_TRUE(Satisfies(g, schema));

  // Both queries match this instance.
  Ucrpq q1 = U("(owns . earns . partner . (partof-)*)(x, y)");
  Ucrpq q2 = U("(owns . earns . partner)(x, z), RetailCompany(z), (partof-)*(z, y)");
  EXPECT_TRUE(Matches(g, q1));
  EXPECT_TRUE(Matches(g, q2));
}

TEST_F(ContainmentTest, CardinalityConstraintInteraction) {
  // At-most 1 forces merging: if every A has at most one r-successor and
  // must have an r-successor in B, then an r-successor with label C must be
  // that same B-witness, so a successor with both labels exists.
  TBox schema = T("A <= exists r.B\nA <= atmost 1 r.Any\ntop <= Any");
  ContainmentChecker checker(&vocab_);
  Ucrpq p = U("A(x), r(x, y), C(y)");
  Ucrpq q = U("r(x, y), B(y), C(y)");
  EXPECT_EQ(checker.Decide(p, q, schema).verdict, Verdict::kContained)
      << "the sole successor carries both B and C";
  // Without the cardinality bound, the B-witness and the C-successor can be
  // different nodes.
  TBox loose = T("A <= exists r.B");
  auto r = checker.Decide(p, q, loose);
  VerifyCountermodel(r, p, q, loose);
}

TEST_F(ContainmentTest, DecideEquivalenceEquivalentPair) {
  // Forced label (as in TypingConstraintMakesContainmentHold): the extra
  // RetailCompany(y) atom does not restrict, so both directions hold.
  TBox schema = T("top <= forall partner.RetailCompany");
  NormalTBox normal = Normalize(schema, &vocab_);
  ContainmentChecker checker(&vocab_);
  auto r = checker.DecideEquivalence(U("partner(x, y)"),
                                     U("partner(x, y), RetailCompany(y)"), normal);
  EXPECT_EQ(r.verdict, Verdict::kContained);
}

TEST_F(ContainmentTest, DecideEquivalenceOneDirectionFails) {
  TBox empty;
  NormalTBox normal = Normalize(empty, &vocab_);
  ContainmentChecker checker(&vocab_);
  Ucrpq p = U("r(x, y)");
  Ucrpq q = U("r(x, y), s(y, z)");

  // P ⊋ Q: the forward direction P ⊑ Q fails, with a countermodel.
  auto forward = checker.DecideEquivalence(p, q, normal);
  ASSERT_EQ(forward.verdict, Verdict::kNotContained);
  ASSERT_TRUE(forward.countermodel.has_value());
  EXPECT_TRUE(Matches(*forward.countermodel, p));
  EXPECT_FALSE(Matches(*forward.countermodel, q));
  EXPECT_TRUE(forward.attr.note.rfind("P ⋢_T Q", 0) == 0) << forward.attr.note;

  // Swapping the arguments makes the *backward* direction the failing one.
  auto backward = checker.DecideEquivalence(q, p, normal);
  ASSERT_EQ(backward.verdict, Verdict::kNotContained);
  ASSERT_TRUE(backward.countermodel.has_value());
  EXPECT_TRUE(backward.attr.note.rfind("Q ⋢_T P", 0) == 0) << backward.attr.note;
}

TEST_F(ContainmentTest, DecideEquivalenceBothDirectionsFail) {
  TBox empty;
  NormalTBox normal = Normalize(empty, &vocab_);
  ContainmentChecker checker(&vocab_);
  Ucrpq p = U("r(x, y)");
  Ucrpq q = U("s(x, y)");
  // Incomparable queries: the first failing direction (forward) is reported.
  auto r = checker.DecideEquivalence(p, q, normal);
  ASSERT_EQ(r.verdict, Verdict::kNotContained);
  ASSERT_TRUE(r.countermodel.has_value());
  EXPECT_TRUE(Matches(*r.countermodel, p));
  EXPECT_FALSE(Matches(*r.countermodel, q));
}

TEST_F(ContainmentTest, DecideEquivalenceTBoxOverloadAgreesWithNormalTBox) {
  // The raw-TBox convenience overload must answer exactly like normalizing
  // first — it is the same pipeline behind the Decide(TBox) caching path.
  TBox schema = T("A <= exists r.A\ntop <= forall partner.RetailCompany");
  NormalTBox normal = Normalize(schema, &vocab_);
  ContainmentChecker checker(&vocab_);

  struct Pair {
    const char* p;
    const char* q;
  };
  for (const Pair& pair : {
           Pair{"partner(x, y)", "partner(x, y), RetailCompany(y)"},
           Pair{"r(x, y)", "r(x, y), s(y, z)"},
           Pair{"A(x)", "A(x)"},
       }) {
    SCOPED_TRACE(std::string(pair.p) + " vs " + pair.q);
    auto from_tbox = checker.DecideEquivalence(U(pair.p), U(pair.q), schema);
    auto from_normal = checker.DecideEquivalence(U(pair.p), U(pair.q), normal);
    EXPECT_EQ(from_tbox.verdict, from_normal.verdict);
    EXPECT_EQ(from_tbox.attr.strategy, from_normal.attr.strategy);
    EXPECT_EQ(from_tbox.attr.note, from_normal.attr.note);
    EXPECT_EQ(from_tbox.countermodel.has_value(),
              from_normal.countermodel.has_value());
  }
}

// Each P below has words longer than the expansions' max_word_length (4) but
// none of length 5, and a path spelling one of them (the 7-node path of a
// six-letter word) satisfies P and not Q. So none is contained. Sequential
// mode has no strategy that reaches that far and must not answer
// `contained`; the portfolio's deep witness search finds the path.
TEST_F(ContainmentTest, WordsPastTheExpansionBoundAreNeverContained) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"(r.r.r.r.r.r)(x, y)", "B(x)"},
      {"A(x), ((r.r)*)(x, y), B(y)", "A(x), (eps + r.r + r.r.r.r)(x, y), B(y)"},
      {"A(x), ((r.r.r)*)(x, y), B(y)", "A(x), (eps + r.r.r)(x, y), B(y)"},
      {"A(x), ((r.s)*)(x, y), B(y)",
       "A(x), (eps + r.s + r.s.r.s)(x, y), B(y)"},
  };
  EngineOptions portfolio;
  portfolio.threads = 2;
  portfolio.portfolio = true;
  Engine engine(portfolio);
  ThreadPool pool(2);
  TBox empty;
  NormalTBox normal = Normalize(empty, &vocab_);
  for (const auto& [p_text, q_text] : cases) {
    SCOPED_TRACE(p_text + " vs " + q_text);
    Ucrpq p = U(p_text);
    Ucrpq q = U(q_text);
    ContainmentChecker checker(&vocab_);
    EXPECT_NE(checker.Decide(p, q, empty).verdict, Verdict::kContained);

    BatchOutcome raced = engine.DecideOne({"case", "", p_text, q_text});
    ASSERT_TRUE(raced.ok) << raced.error;
    EXPECT_EQ(raced.verdict, Verdict::kNotContained);
    EXPECT_GT(raced.countermodel_nodes, 0u);

    // The same race on the caller's vocabulary hands back the countermodel.
    StrategyContext ctx;
    ctx.q = &q;
    ctx.schema = &normal;
    ctx.vocab = &vocab_;
    ctx.options = &checker.options();
    ctx.vocab_shared = true;
    DecisionPolicy race;
    race.race = true;
    race.pool = &pool;
    ContainmentResult result = DecideUnion(p, ctx, race);
    ASSERT_EQ(result.verdict, Verdict::kNotContained);
    ASSERT_TRUE(result.countermodel.has_value());
    EXPECT_EQ(ValidateCountermodel(*result.countermodel, p, q, normal),
              std::nullopt);
  }
}

TEST(ContainmentCachingTest, LongLivedCheckerAgreesWithFreshCheckers) {
  // The memoized state must be invisible in the answers: a long-lived checker
  // deciding 50 generated instances twice (its normalized-TBox and closure
  // memo warm on the second pass) answers every call exactly like a fresh
  // checker, whose memo is always cold — same verdicts, strategies, notes.
  WorkloadOptions wopts;
  wopts.seed = 7;
  std::vector<WorkloadInstance> instances = GenerateWorkload(wopts, 50);
  ASSERT_EQ(instances.size(), 50u);

  Vocabulary vocab;
  PipelineStats stats;
  ContainmentOptions options;
  options.stats = &stats;
  ContainmentChecker long_lived(&vocab, options);
  std::vector<ContainmentResult> cold;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      SCOPED_TRACE("pass " + std::to_string(pass) + ", instance " +
                   std::to_string(i));
      auto schema = ParseTBox(instances[i].schema_text, &vocab);
      auto p = ParseUcrpq(instances[i].p_text, &vocab);
      auto q = ParseUcrpq(instances[i].q_text, &vocab);
      ASSERT_TRUE(schema.ok() && p.ok() && q.ok());
      if (pass == 0) {
        ContainmentChecker fresh(&vocab);
        cold.push_back(fresh.Decide(p.value(), q.value(), schema.value()));
      }
      ContainmentResult warm =
          long_lived.Decide(p.value(), q.value(), schema.value());
      EXPECT_EQ(warm.verdict, cold[i].verdict);
      EXPECT_EQ(warm.attr.strategy, cold[i].attr.strategy);
      EXPECT_EQ(warm.attr.note, cold[i].attr.note);
    }
  }
  EXPECT_GT(long_lived.caches()->normalized_count(), 0u);
  EXPECT_EQ(stats.pairs_total.load(), 100u);
  EXPECT_EQ(stats.normal_tbox_hits.load() + stats.normal_tbox_misses.load(),
            100u);
  EXPECT_GE(stats.normal_tbox_hits.load(), 50u);
}

}  // namespace
}  // namespace gqc
