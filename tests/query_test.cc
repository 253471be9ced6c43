#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/automata/regex_parser.h"
#include "src/automata/semiautomaton.h"
#include "src/automata/validate.h"
#include "src/graph/generators.h"
#include "src/graph/homomorphism.h"
#include "src/query/canonical.h"
#include "src/query/query_containment.h"
#include "src/query/eval.h"
#include "src/query/parser.h"

namespace gqc {
namespace {

class QueryTest : public ::testing::Test {
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

  Vocabulary vocab_;
};

TEST_F(QueryTest, RegexParserShapes) {
  auto r = ParseRegex("owns . (earns + partof-)* . [Premium]", &vocab_);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(RegexSize(r.value()), 4u);
  EXPECT_FALSE(IsOneWay(r.value()));
  EXPECT_FALSE(IsTestFree(r.value()));
  EXPECT_FALSE(IsNullable(r.value()));

  auto star = ParseRegex("(a + b-)*", &vocab_);
  ASSERT_TRUE(star.ok());
  EXPECT_TRUE(IsNullable(star.value()));
  auto shape = GetSimpleShape(star.value());
  ASSERT_TRUE(shape.has_value());
  EXPECT_TRUE(shape->starred);
  EXPECT_EQ(shape->roles.size(), 2u);

  auto plus = ParseRegex("r^+", &vocab_);
  ASSERT_TRUE(plus.ok());
  EXPECT_FALSE(IsNullable(plus.value()));
  EXPECT_FALSE(GetSimpleShape(plus.value()).has_value()) << "r+ is not simple";
}

TEST_F(QueryTest, RegexParserErrors) {
  EXPECT_FALSE(ParseRegex("a..b", &vocab_).ok());
  EXPECT_FALSE(ParseRegex("(a", &vocab_).ok());
  EXPECT_FALSE(ParseRegex("", &vocab_).ok());
  EXPECT_FALSE(ParseRegex("a b", &vocab_).ok());
}

TEST_F(QueryTest, ParseCrpqBasics) {
  Crpq q = Q("q(x, y) :- Customer(x), owns(x, y), !Closed(y)");
  EXPECT_EQ(q.VarCount(), 2u);
  EXPECT_EQ(q.UnaryAtoms().size(), 2u);
  EXPECT_EQ(q.BinaryAtoms().size(), 1u);
  EXPECT_TRUE(q.IsConnected());
  EXPECT_TRUE(q.IsSimple());
  EXPECT_TRUE(q.IsOneWay());
}

TEST_F(QueryTest, ParseUnionAndClassification) {
  Ucrpq u = U("a(x, y) ; (r . s)(x, y), B(y)");
  EXPECT_EQ(u.size(), 2u);
  EXPECT_TRUE(u.IsConnected());
  EXPECT_FALSE(u.IsSimple()) << "concatenation is not simple";
  EXPECT_TRUE(u.IsOneWay());
  EXPECT_TRUE(u.IsTestFree());
}

TEST_F(QueryTest, DisconnectedQueryDetected) {
  Crpq q = Q("A(x), B(y)");
  EXPECT_FALSE(q.IsConnected());
}

TEST_F(QueryTest, EvalSingleEdge) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = PathGraph(3, r);
  EXPECT_TRUE(Matches(g, Q("r(x, y)")));
  EXPECT_TRUE(Matches(g, Q("(r.r)(x, y)")));
  EXPECT_FALSE(Matches(g, Q("(r.r.r)(x, y)")));
}

TEST_F(QueryTest, EvalStarIncludesEmptyPath) {
  Graph g;
  g.AddNode();
  EXPECT_TRUE(Matches(g, Q("(r*)(x, y)"))) << "empty word matches r* on one node";
  EXPECT_FALSE(Matches(g, Q("(r^+)(x, y)")));
}

TEST_F(QueryTest, EvalInverseRoles) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = PathGraph(3, r);
  EXPECT_TRUE(Matches(g, Q("r-(y, x)")));
  // Forward then backward: x -> y -> x' with shared middle.
  EXPECT_TRUE(Matches(g, Q("(r . r-)(x, z)")));
}

TEST_F(QueryTest, EvalNodeTests) {
  uint32_t r = vocab_.RoleId("r");
  uint32_t a = vocab_.ConceptId("A");
  Graph g = PathGraph(3, r);
  g.AddLabel(1, a);
  EXPECT_TRUE(Matches(g, Q("(r . [A] . r)(x, y)")));
  EXPECT_FALSE(Matches(g, Q("([A] . r . [A])(x, y)")));
  EXPECT_TRUE(Matches(g, Q("([!A] . r . [A])(x, y)")));
}

TEST_F(QueryTest, EvalConjunctionJoin) {
  uint32_t r = vocab_.RoleId("r");
  uint32_t s = vocab_.RoleId("s");
  Graph g;
  NodeId n0 = g.AddNode(), n1 = g.AddNode(), n2 = g.AddNode();
  g.AddEdge(n0, r, n1);
  g.AddEdge(n1, s, n2);
  EXPECT_TRUE(Matches(g, Q("r(x, y), s(y, z)")));
  EXPECT_FALSE(Matches(g, Q("r(x, y), s(x, z)"))) << "s starts only at n1";
}

TEST_F(QueryTest, EvalUnaryFiltersJoin) {
  uint32_t r = vocab_.RoleId("r");
  uint32_t a = vocab_.ConceptId("A");
  Graph g = PathGraph(4, r);
  g.AddLabel(2, a);
  EXPECT_TRUE(Matches(g, Q("A(x), r(x, y)")));
  EXPECT_FALSE(Matches(g, Q("A(x), r(y, x), A(y)")));
}

TEST_F(QueryTest, PointedMatch) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = PathGraph(3, r);
  Crpq q = Q("(r.r)(x, y)");
  EXPECT_TRUE(MatchesAt(g, q, 0, 0));
  EXPECT_FALSE(MatchesAt(g, q, 0, 1));
  EXPECT_EQ(MatchNodes(g, q, 1), std::vector<NodeId>{2});
}

TEST_F(QueryTest, MatchesOnCycleUnbounded) {
  uint32_t r = vocab_.RoleId("r");
  Graph g = CycleGraph(4, r);
  EXPECT_TRUE(Matches(g, Q("(r.r.r.r.r.r.r.r.r)(x, y)")))
      << "paths may wind around the cycle";
}

TEST_F(QueryTest, HomomorphismPreservesMatches) {
  // If G -> G' and G |= q (positive q), then G' |= q.
  uint32_t r = vocab_.RoleId("r");
  Graph path = PathGraph(4, r);
  Graph cycle = CycleGraph(4, r);
  Crpq q = Q("(r.r.r)(x, y)");
  ASSERT_TRUE(Matches(path, q));
  ASSERT_TRUE(FindHomomorphism(path, cycle).has_value());
  EXPECT_TRUE(Matches(cycle, q));
}

TEST_F(QueryTest, CanonicalExpansionsOfCq) {
  Crpq q = Q("A(x), r(x, y), s(y, z)");
  ExpansionSet set = CanonicalExpansions(q, {});
  ASSERT_EQ(set.expansions.size(), 1u);
  EXPECT_TRUE(set.exhaustive);
  const Expansion& e = set.expansions[0];
  EXPECT_EQ(e.graph.NodeCount(), 3u);
  EXPECT_TRUE(Matches(e.graph, q));
}

TEST_F(QueryTest, CanonicalExpansionsOfStarTruncated) {
  Crpq q = Q("(r*)(x, y)");
  ExpansionOptions opts;
  opts.max_word_length = 3;
  ExpansionSet set = CanonicalExpansions(q, opts);
  EXPECT_FALSE(set.exhaustive);
  // Words: eps, r, rr, rrr -> 4 expansions.
  EXPECT_EQ(set.expansions.size(), 4u);
  for (const auto& e : set.expansions) EXPECT_TRUE(Matches(e.graph, q));
}

TEST_F(QueryTest, CanonicalExpansionEmptyWordMergesVars) {
  Crpq q = Q("A(x), (r*)(x, y), B(y)");
  ExpansionOptions opts;
  opts.max_word_length = 1;
  ExpansionSet set = CanonicalExpansions(q, opts);
  // eps-expansion: one node with A and B; r-expansion: two nodes.
  ASSERT_EQ(set.expansions.size(), 2u);
  EXPECT_EQ(set.expansions[0].graph.NodeCount(), 1u);
  EXPECT_EQ(set.expansions[1].graph.NodeCount(), 2u);
}

TEST_F(QueryTest, QueryContainmentCqExact) {
  // r(x,y), s(y,z) is contained in r(x,y') but not vice versa.
  Ucrpq p = U("r(x, y), s(y, z)");
  Ucrpq q = U("r(x, y)");
  EXPECT_EQ(QueryContainment(p, q).verdict, Verdict::kContained);
  auto back = QueryContainment(q, p);
  EXPECT_EQ(back.verdict, Verdict::kNotContained);
  ASSERT_TRUE(back.counterexample.has_value());
  EXPECT_TRUE(Matches(*back.counterexample, q));
  EXPECT_FALSE(Matches(*back.counterexample, p));
}

TEST_F(QueryTest, QueryContainmentWithStars) {
  // Paper Example 1.1 without schema: q2 ⊆ q1.
  Ucrpq q1 = U("(owns . earns . partner . (partof-)*)(x, y)");
  Ucrpq q2 = U("(owns . earns . partner)(x, z), RetailCompany(z), (partof-)*(z, y)");
  QueryContainmentOptions opts;
  opts.expansion.max_word_length = 5;
  auto r12 = QueryContainment(q2, q1, opts);
  // Stars make the expansion set non-exhaustive, but q1 maps into q2: its
  // one atom lands on q2's two atoms, whose concatenated language is
  // included in it.
  EXPECT_EQ(r12.verdict, Verdict::kContained);
  auto r21 = QueryContainment(q1, q2, opts);
  EXPECT_EQ(r21.verdict, Verdict::kNotContained) << "q1 not ⊆ q2 without schema";
}

TEST_F(QueryTest, QueryContainmentUnionOnRight) {
  Ucrpq p = U("a(x, y)");
  Ucrpq q = U("a(x, y) ; b(x, y)");
  EXPECT_EQ(QueryContainment(p, q).verdict, Verdict::kContained);
  EXPECT_EQ(QueryContainment(q, p).verdict, Verdict::kNotContained);
}

// A star whose words all have even length, and a six-letter concatenation,
// have no word of length max_word_length + 1 = 5 but do have longer ones, so
// their expansions up to length 4 are not exhaustive and the classical test
// cannot certify containment from them.
TEST_F(QueryTest, ClassicalTestSeesWordsPastTheNextLength) {
  ExpansionOptions opts;
  opts.max_word_length = 4;
  EXPECT_FALSE(CanonicalExpansions(Q("(r.r.r.r.r.r)(x, y)"), opts).exhaustive);
  EXPECT_FALSE(CanonicalExpansions(Q("((r.r)*)(x, y)"), opts).exhaustive);
  EXPECT_TRUE(CanonicalExpansions(Q("(r.r.r.r)(x, y)"), opts).exhaustive);
  EXPECT_TRUE(CanonicalExpansions(Q("(eps + r.r + r.r.r.r)(x, y)"), opts)
                  .exhaustive);

  QueryContainmentOptions qopts;
  qopts.expansion = opts;
  EXPECT_NE(QueryContainment(U("(r.r.r.r.r.r)(x, y)"), U("B(x)"), qopts).verdict,
            Verdict::kContained);
  EXPECT_NE(QueryContainment(U("A(x), ((r.r)*)(x, y), B(y)"),
                             U("A(x), (eps + r.r + r.r.r.r)(x, y), B(y)"), qopts)
                .verdict,
            Verdict::kContained);
}

/// AtomWords' contract computed the slow way: the NFA simulated on every word
/// over the automaton's alphabet up to max_len, and completeness from the sets
/// of states reachable in exactly L steps, L in (max_len, max_len + |states|].
struct ReferenceWords {
  std::vector<std::vector<Symbol>> words;
  bool complete = true;
};

ReferenceWords BruteForceWords(const CompiledRegex& c, std::size_t max_len) {
  const Semiautomaton& a = c.automaton;
  const std::size_t n = a.StateCount();
  const std::vector<Symbol> alphabet = a.Alphabet();
  ReferenceWords ref;
  if (c.nullable || c.start == c.end) ref.words.push_back({});
  for (std::size_t len = 1; len <= max_len && !alphabet.empty(); ++len) {
    std::vector<std::size_t> digits(len, 0);
    while (true) {
      std::vector<char> at(n, 0);
      at[c.start] = 1;
      std::vector<Symbol> word;
      for (std::size_t d : digits) {
        std::vector<char> after(n, 0);
        for (uint32_t q = 0; q < n; ++q) {
          if (!at[q]) continue;
          for (const auto& [sym, r] : a.Out(q)) {
            if (sym == alphabet[d]) after[r] = 1;
          }
        }
        at.swap(after);
        word.push_back(alphabet[d]);
      }
      if (at[c.end]) ref.words.push_back(word);
      std::size_t i = 0;
      while (i < len && ++digits[i] == alphabet.size()) digits[i++] = 0;
      if (i == len) break;
    }
  }
  std::sort(ref.words.begin(), ref.words.end());
  std::vector<char> at(n, 0);
  at[c.start] = 1;
  for (std::size_t len = 1; len <= max_len + n; ++len) {
    std::vector<char> after(n, 0);
    for (uint32_t q = 0; q < n; ++q) {
      if (!at[q]) continue;
      for (const auto& [sym, r] : a.Out(q)) after[r] = 1;
    }
    at.swap(after);
    if (len > max_len && at[c.end]) ref.complete = false;
  }
  return ref;
}

/// Random regexes over a, b, a-, [A], [!A]: periodic stars, unions, nested
/// stars and plus.
std::string RandomRegex(std::mt19937* rng, int depth) {
  static const char* const kLeaves[] = {"a", "b", "a-", "[A]", "[!A]", "eps"};
  static const char* const kPeriodic[] = {"(a.b)*", "(a.a.a)*", "(b.a-)*",
                                          "(a.[A].b)*", "(a.b.b)^+"};
  const int kind = depth == 0 ? 0 : static_cast<int>((*rng)() % 7);
  auto sub = [&] { return RandomRegex(rng, depth - 1); };
  switch (kind) {
    case 0:
      return kLeaves[(*rng)() % 6];
    case 1:
      return "(" + sub() + " . " + sub() + ")";
    case 2:
      return "(" + sub() + " + " + sub() + ")";
    case 3:
      return "(" + sub() + ")*";
    case 4:
      return kPeriodic[(*rng)() % 5];
    case 5:
      return "((" + sub() + ")* . " + sub() + ")*";
    default:
      return "(" + sub() + ")^+";
  }
}

TEST_F(QueryTest, AtomWordsMatchBruteForceReference) {
  std::mt19937 rng(20241);
  for (int round = 0; round < 100; ++round) {
    const std::string text = RandomRegex(&rng, 1 + round % 4);
    auto regex = ParseRegex(text, &vocab_);
    ASSERT_TRUE(regex.ok()) << text << ": " << regex.error();
    const CompiledRegex c = CompileRegex(regex.value());
    for (std::size_t max_len = 0; max_len <= 6; ++max_len) {
      SCOPED_TRACE(text + " up to length " + std::to_string(max_len));
      const ReferenceWords ref = BruteForceWords(c, max_len);
      bool complete = false;
      EXPECT_EQ(AtomWords(c.automaton, c.start, c.end, c.nullable, max_len,
                          &complete),
                ref.words);
      EXPECT_EQ(complete, ref.complete);
      // The exhaustiveness audit agrees with the reference.
      EXPECT_EQ(ValidateWordLengthBound(c.automaton, c.start, c.end, max_len)
                    .has_value(),
                !ref.complete);
    }
  }
}

TEST_F(QueryTest, AtomWordsCapKeepsEveryShorterWord) {
  // Eight letters starred: 37 449 prefixes up to length 5, and the 262 144
  // of length 6 cross the 100 000-prefix cap.
  auto regex = ParseRegex("(r1 + r2 + r3 + r4 + r5 + r6 + r7 + r8)*", &vocab_);
  ASSERT_TRUE(regex.ok()) << regex.error();
  const CompiledRegex c = CompileRegex(regex.value());
  bool complete = true;
  auto words = AtomWords(c.automaton, c.start, c.end, c.nullable, 6, &complete);
  EXPECT_FALSE(complete);
  EXPECT_EQ(words.size(), 37449u);
  EXPECT_TRUE(std::all_of(words.begin(), words.end(),
                          [](const auto& w) { return w.size() <= 5; }));
  EXPECT_EQ(AtomWords(c.automaton, c.start, c.end, c.nullable, 5, &complete),
            words);
  EXPECT_FALSE(complete);
}

}  // namespace
}  // namespace gqc
