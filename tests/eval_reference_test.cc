// Differential test of the query evaluator against a reference that shares
// only the graph and query data model with it: every variable assignment is
// enumerated (with pruning) and each binary atom is decided by a naive
// fixpoint over (node, state) pairs, over adjacency rebuilt from the sorted
// edge list rather than the lists the product search walks.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/query/eval.h"
#include "src/query/parser.h"

namespace gqc {
namespace {

constexpr const char* kConcepts[] = {"A", "B", "C"};
constexpr const char* kRoles[] = {"r", "s"};

/// rel[u][v]: (u, v) is in the atom's relation (§2, match condition 3').
/// Sweeps every reached (node, state) pair until nothing changes,
/// alternating the node order so runs along either edge direction settle in
/// a few sweeps.
std::vector<std::vector<bool>> ReferenceRelation(const Graph& g,
                                                 const Semiautomaton& a,
                                                 const BinaryAtom& atom) {
  const std::size_t n = g.NodeCount();
  // (role, neighbour) lists rebuilt from the edge list.
  std::vector<std::vector<std::pair<uint32_t, NodeId>>> fwd(n), bwd(n);
  for (const Edge& e : g.AllEdges()) {
    fwd[e.from].emplace_back(e.role, e.to);
    bwd[e.to].emplace_back(e.role, e.from);
  }
  std::vector<std::vector<bool>> rel(n, std::vector<bool>(n, false));
  for (NodeId u = 0; u < n; ++u) {
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(a.StateCount(), false));
    reach[u][atom.start] = true;
    bool changed = true;
    for (int sweep = 0; changed; ++sweep) {
      changed = false;
      auto mark = [&](NodeId v, uint32_t q) {
        if (!reach[v][q]) {
          reach[v][q] = true;
          changed = true;
        }
      };
      for (std::size_t k = 0; k < n; ++k) {
        const NodeId v = static_cast<NodeId>(sweep % 2 == 0 ? k : n - 1 - k);
        for (uint32_t q = 0; q < a.StateCount(); ++q) {
          if (!reach[v][q]) continue;
          for (const auto& [sym, q2] : a.Out(q)) {
            if (sym.is_test()) {
              Literal l = sym.literal();
              if (g.HasLabel(v, l.concept_id()) != l.is_negative()) mark(v, q2);
              continue;
            }
            Role r = sym.role();
            for (const auto& [role, w] : r.is_inverse() ? bwd[v] : fwd[v]) {
              if (role == r.name_id()) mark(w, q2);
            }
          }
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) rel[u][v] = reach[v][atom.end];
    if (atom.allow_empty) rel[u][u] = true;
  }
  return rel;
}

class Reference {
 public:
  Reference(const Graph& g, const Crpq& q) : g_(g), q_(q) {
    for (const BinaryAtom& atom : q.BinaryAtoms()) {
      rels_.push_back(ReferenceRelation(g, q.Automaton(), atom));
    }
  }

  /// Some assignment satisfies every atom, with `var` at `node` if pinned.
  bool Matches(int var = -1, NodeId node = kNoNode) {
    assignment_.assign(q_.VarCount(), kNoNode);
    pin_var_ = var;
    pin_node_ = node;
    return Extend(0);
  }

  /// Every atom holds under `a`.
  bool Satisfied(const std::vector<NodeId>& a) const {
    for (const UnaryAtom& atom : q_.UnaryAtoms()) {
      if (g_.HasLabel(a[atom.var], atom.literal.concept_id()) ==
          atom.literal.is_negative()) {
        return false;
      }
    }
    for (std::size_t i = 0; i < rels_.size(); ++i) {
      const BinaryAtom& atom = q_.BinaryAtoms()[i];
      if (!rels_[i][a[atom.y]][a[atom.z]]) return false;
    }
    return true;
  }

 private:
  /// Atoms whose variables are all assigned hold.
  bool Consistent() const {
    for (const UnaryAtom& atom : q_.UnaryAtoms()) {
      NodeId v = assignment_[atom.var];
      if (v != kNoNode &&
          g_.HasLabel(v, atom.literal.concept_id()) == atom.literal.is_negative()) {
        return false;
      }
    }
    for (std::size_t i = 0; i < rels_.size(); ++i) {
      const BinaryAtom& atom = q_.BinaryAtoms()[i];
      NodeId y = assignment_[atom.y];
      NodeId z = assignment_[atom.z];
      if (y != kNoNode && z != kNoNode && !rels_[i][y][z]) return false;
    }
    return true;
  }

  bool Extend(uint32_t var) {
    if (var == q_.VarCount()) return true;
    for (NodeId v = 0; v < g_.NodeCount(); ++v) {
      if (static_cast<int>(var) == pin_var_ && v != pin_node_) continue;
      assignment_[var] = v;
      if (Consistent() && Extend(var + 1)) return true;
    }
    assignment_[var] = kNoNode;
    return false;
  }

  const Graph& g_;
  const Crpq& q_;
  std::vector<std::vector<std::vector<bool>>> rels_;
  std::vector<NodeId> assignment_;
  int pin_var_ = -1;
  NodeId pin_node_ = kNoNode;
};

class EvalReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* c : kConcepts) concepts_.push_back(vocab_.ConceptId(c));
    for (const char* r : kRoles) roles_.push_back(vocab_.RoleId(r));
  }

  void RandomLabels(Graph* g, std::mt19937_64* rng) {
    for (NodeId v = 0; v < g->NodeCount(); ++v) {
      for (uint32_t c : concepts_) {
        if ((*rng)() % 2 == 0) g->AddLabel(v, c);
      }
    }
  }

  Graph RandomGraph(std::mt19937_64* rng) {
    Graph g;
    const std::size_t n = 1 + (*rng)() % 7;
    for (std::size_t i = 0; i < n; ++i) g.AddNode();
    RandomLabels(&g, rng);
    const std::size_t edges = (*rng)() % (2 * n + 2);
    for (std::size_t i = 0; i < edges; ++i) {
      g.AddEdge(static_cast<NodeId>((*rng)() % n), roles_[(*rng)() % 2],
                static_cast<NodeId>((*rng)() % n));
    }
    return g;
  }

  /// A 70-node r-cycle with every fifth edge an s-edge instead, so node
  /// ids, rows and candidate sets span two words.
  Graph LongCycle(std::mt19937_64* rng) {
    Graph g;
    constexpr NodeId kNodes = 70;
    for (NodeId v = 0; v < kNodes; ++v) g.AddNode();
    RandomLabels(&g, rng);
    for (NodeId v = 0; v < kNodes; ++v) {
      g.AddEdge(v, roles_[v % 5 == 4 ? 1 : 0], (v + 1) % kNodes);
    }
    return g;
  }

  static std::string RandomRegex(std::mt19937_64* rng, int depth) {
    static const char* kLeaves[] = {"r", "s", "r-", "s-", "[A]", "[!B]", "[C]", "eps"};
    if (depth == 0 || (*rng)() % 3 == 0) return kLeaves[(*rng)() % 8];
    switch ((*rng)() % 3) {
      case 0:
        return "(" + RandomRegex(rng, depth - 1) + " . " + RandomRegex(rng, depth - 1) + ")";
      case 1:
        return "(" + RandomRegex(rng, depth - 1) + " + " + RandomRegex(rng, depth - 1) + ")";
      default:
        return "(" + RandomRegex(rng, depth - 1) + ")*";
    }
  }

  /// A random C2RPQ over `vars` variables: unary literals of both signs and
  /// regex atoms with inverse roles, tests, stars and the empty word. Half
  /// the queries repeat one binary atom's (start, end) on other variables.
  Crpq RandomQuery(std::mt19937_64* rng, uint32_t vars) {
    auto var = [&](uint32_t v) { return "x" + std::to_string(v); };
    std::string text;
    auto add = [&](const std::string& atom) {
      text += (text.empty() ? "" : ", ") + atom;
    };
    // A spanning chain first, so every variable occurs.
    for (uint32_t v = 0; v + 1 < vars; ++v) {
      add("(" + RandomRegex(rng, 3) + ")(" + var(v) + ", " + var(v + 1) + ")");
    }
    if (vars == 1) add("(" + RandomRegex(rng, 3) + ")(x0, x0)");
    const std::size_t extra = (*rng)() % 3;
    for (std::size_t i = 0; i < extra; ++i) {
      if ((*rng)() % 2 == 0) {
        add(std::string((*rng)() % 2 == 0 ? "!" : "") + kConcepts[(*rng)() % 3] +
            "(" + var((*rng)() % vars) + ")");
      } else {
        add("(" + RandomRegex(rng, 2) + ")(" + var((*rng)() % vars) + ", " +
            var((*rng)() % vars) + ")");
      }
    }
    auto parsed = ParseCrpq(text, &vocab_);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.error();
    Crpq q = parsed.value();
    if ((*rng)() % 2 == 0) {
      BinaryAtom twin = q.BinaryAtoms()[(*rng)() % q.BinaryAtoms().size()];
      twin.y = static_cast<uint32_t>((*rng)() % vars);
      twin.z = static_cast<uint32_t>((*rng)() % vars);
      q.AddBinary(std::move(twin));
    }
    return q;
  }

  /// Matches, every MatchesAt pin, and every FindMatch assignment agree
  /// with the reference.
  void ExpectAgreement(const Graph& g, const Crpq& q) {
    const std::string where = q.ToString(vocab_);
    Reference ref(g, q);
    const bool matches = ref.Matches();
    ASSERT_EQ(Matches(g, q), matches) << where;
    auto found = FindMatch(g, q);
    ASSERT_EQ(found.has_value(), matches) << where;
    if (found.has_value()) {
      EXPECT_TRUE(ref.Satisfied(*found)) << where;
    }
    for (uint32_t var = 0; var < q.VarCount(); ++var) {
      for (NodeId v = 0; v < g.NodeCount(); ++v) {
        const bool at = ref.Matches(static_cast<int>(var), v);
        ASSERT_EQ(MatchesAt(g, q, var, v), at) << where << " at x" << var << "=" << v;
        auto pinned = FindMatch(g, q, {{var, v}});
        ASSERT_EQ(pinned.has_value(), at) << where;
        if (pinned.has_value()) {
          EXPECT_EQ((*pinned)[var], v) << where;
          EXPECT_TRUE(ref.Satisfied(*pinned)) << where;
        }
      }
    }
    if (matches) ++matched_;
  }

  Vocabulary vocab_;
  std::vector<uint32_t> concepts_;
  std::vector<uint32_t> roles_;
  std::size_t matched_ = 0;
};

TEST_F(EvalReferenceTest, SmallGraphsAgreeWithNaiveFixpoint) {
  std::mt19937_64 rng(20261018);
  constexpr int kCases = 400;
  for (int i = 0; i < kCases; ++i) {
    Graph g = RandomGraph(&rng);
    Crpq q = RandomQuery(&rng, 1 + static_cast<uint32_t>(rng() % 4));
    ExpectAgreement(g, q);
    if (HasFatalFailure()) return;
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(matched_, kCases / 10);
  EXPECT_LT(matched_, kCases - kCases / 10);
}

TEST_F(EvalReferenceTest, SeventyNodeCycleAgreesWithNaiveFixpoint) {
  std::mt19937_64 rng(70);
  constexpr int kCases = 24;
  for (int i = 0; i < kCases; ++i) {
    Graph g = LongCycle(&rng);
    Crpq q = RandomQuery(&rng, 1 + static_cast<uint32_t>(rng() % 3));
    ExpectAgreement(g, q);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(matched_, 0u);
}

}  // namespace
}  // namespace gqc
