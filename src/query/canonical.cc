#include "src/query/canonical.h"

#include <algorithm>
#include <numeric>

#include "src/automata/validate.h"
#include "src/query/eval.h"
#include "src/util/invariant.h"

namespace gqc {

namespace {

/// Union-find over query variables, for empty-word atom unification.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

std::vector<std::vector<Symbol>> AtomWords(const Semiautomaton& a, uint32_t s,
                                           uint32_t t, bool allow_empty,
                                           std::size_t max_len, bool* complete) {
  std::vector<std::vector<Symbol>> words;
  if (allow_empty || s == t) words.push_back({});
  *complete = true;
  // Only states that can still reach t ("live") can continue a word.
  const std::vector<bool> live = a.CoReachableStates(t);
  if (!live[s]) return words;

  // The distinct prefixes of one length, in lexicographic order: prefix i
  // spells spelled[i * len, (i + 1) * len) and reaches exactly the live
  // states states[ends[i - 1], ends[i]) (sorted, ends[-1] = 0).
  struct Level {
    std::vector<Symbol> spelled;
    std::vector<uint32_t> states;
    std::vector<std::size_t> ends;
  };
  Level level{{}, {s}, {1}};
  Level next;
  constexpr std::size_t kPrefixCap = 100000;
  std::size_t prefixes = 1;
  std::vector<std::pair<Symbol, uint32_t>> steps;
  for (std::size_t len = 0; len < max_len && !level.ends.empty(); ++len) {
    next.spelled.clear();
    next.states.clear();
    next.ends.clear();
    const std::size_t kept = words.size();
    for (std::size_t i = 0, begin = 0; i < level.ends.size() && *complete;
         ++i) {
      steps.clear();
      for (std::size_t k = begin; k < level.ends[i]; ++k) {
        for (const auto& step : a.Out(level.states[k])) {
          if (live[step.second]) steps.push_back(step);
        }
      }
      std::sort(steps.begin(), steps.end());
      steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
      // One extension per symbol: prefix i followed by that symbol.
      for (std::size_t k = 0; k < steps.size();) {
        if (++prefixes > kPrefixCap) {
          // Work cap: keep every word shorter than this level.
          words.resize(kept);
          *complete = false;
          break;
        }
        const Symbol sym = steps[k].first;
        next.spelled.insert(next.spelled.end(),
                            level.spelled.begin() + i * len,
                            level.spelled.begin() + (i + 1) * len);
        next.spelled.push_back(sym);
        bool accepts = false;
        for (; k < steps.size() && steps[k].first == sym; ++k) {
          next.states.push_back(steps[k].second);
          accepts = accepts || steps[k].second == t;
        }
        next.ends.push_back(next.states.size());
        if (accepts) words.emplace_back(next.spelled.end() - (len + 1),
                                        next.spelled.end());
      }
      begin = level.ends[i];
    }
    if (!*complete) break;
    std::swap(level, next);
  }
  // A longer word exists iff some prefix of length max_len reaches a live
  // state with a transition to a live state. (Short of the cap, the walk
  // stops before max_len only when no longer prefix exists.)
  if (*complete) {
    for (uint32_t q : level.states) {
      for (const auto& step : a.Out(q)) {
        if (live[step.second]) *complete = false;
      }
    }
  }
  std::sort(words.begin(), words.end());
  return words;
}

ExpansionSet CanonicalExpansions(const Crpq& q, const ExpansionOptions& options) {
  ExpansionSet result;
  result.exhaustive = true;

  // Words per atom.
  std::vector<std::vector<std::vector<Symbol>>> atom_words;
  for (const auto& atom : q.BinaryAtoms()) {
    bool complete = true;
    atom_words.push_back(AtomWords(q.Automaton(), atom.start, atom.end,
                                   atom.allow_empty, options.max_word_length,
                                   &complete));
    // `exhaustive` rests on this flag: re-check it with an exact-length
    // reachability sweep that shares no code with the walk.
    if (complete) {
      GQC_AUDIT(ValidateWordLengthBound(q.Automaton(), atom.start, atom.end,
                                        options.max_word_length));
    }
    if (!complete) result.exhaustive = false;
    if (atom_words.back().empty()) {
      // Unsatisfiable atom: no expansions at all.
      result.expansions.clear();
      return result;
    }
  }
  // Only complement literals can make a candidate fail to satisfy q.
  auto negative = [](Literal l) { return l.is_negative(); };
  bool post_check = std::any_of(
      q.UnaryAtoms().begin(), q.UnaryAtoms().end(),
      [&](const UnaryAtom& a) { return negative(a.literal); });
  for (const auto& words : atom_words) {
    for (const auto& word : words) {
      post_check = post_check ||
                   std::any_of(word.begin(), word.end(), [&](Symbol sym) {
                     return sym.is_test() && negative(sym.literal());
                   });
    }
  }

  // Cartesian product with a global cap.
  std::vector<std::size_t> choice(atom_words.size(), 0);
  while (true) {
    if (result.expansions.size() >= options.max_expansions) {
      result.exhaustive = false;
      break;
    }
    // One guard step per expansion built; a trip degrades to a non-exhaustive
    // set, which downstream folds into kUnknown rather than a wrong kNo.
    if (options.guard != nullptr && options.guard->Charge(options.guard_phase)) {
      result.exhaustive = false;
      break;
    }
    // Build the expansion for the current choice vector.
    const std::size_t candidate = result.candidates++;
    UnionFind uf(q.VarCount());
    for (std::size_t i = 0; i < atom_words.size(); ++i) {
      // A word without role letters keeps the path at one node: y = z.
      const auto& word = atom_words[i][choice[i]];
      bool has_role = std::any_of(word.begin(), word.end(),
                                  [](Symbol s) { return s.is_role(); });
      if (!has_role) uf.Union(q.BinaryAtoms()[i].y, q.BinaryAtoms()[i].z);
    }
    Expansion exp;
    exp.candidate = candidate;
    std::vector<NodeId> class_node(q.VarCount(), kNoNode);
    exp.var_nodes.assign(q.VarCount(), kNoNode);
    for (uint32_t v = 0; v < q.VarCount(); ++v) {
      uint32_t root = uf.Find(v);
      if (class_node[root] == kNoNode) class_node[root] = exp.graph.AddNode();
      exp.var_nodes[v] = class_node[root];
    }
    for (const auto& atom : q.UnaryAtoms()) {
      if (!atom.literal.is_negative()) {
        exp.graph.AddLabel(exp.var_nodes[atom.var], atom.literal.concept_id());
      }
    }
    for (std::size_t i = 0; i < atom_words.size(); ++i) {
      const auto& word = atom_words[i][choice[i]];
      const BinaryAtom& atom = q.BinaryAtoms()[i];
      NodeId cur = exp.var_nodes[atom.y];
      NodeId target = exp.var_nodes[atom.z];
      // Count role letters to know where the path must land on `target`.
      std::size_t role_letters = 0;
      for (Symbol sym : word) role_letters += sym.is_role() ? 1 : 0;
      std::size_t roles_seen = 0;
      for (Symbol sym : word) {
        if (sym.is_test()) {
          if (!sym.literal().is_negative()) {
            exp.graph.AddLabel(cur, sym.literal().concept_id());
          }
          continue;
        }
        ++roles_seen;
        NodeId nxt = roles_seen == role_letters ? target : exp.graph.AddNode();
        exp.graph.AddEdge(cur, sym.role(), nxt);
        cur = nxt;
      }
    }
    // Post-check: complement tests can make an expansion fail to satisfy q
    // (e.g. a [!A] test on a node another atom labels A); keep only genuine
    // canonical databases.
    if (post_check) {
      if (Matches(exp.graph, q)) result.expansions.push_back(std::move(exp));
    } else {
      GQC_AUDIT(Matches(exp.graph, q)
                    ? AuditResult{}
                    : AuditViolation("a canonical expansion of a query without "
                                     "complement literals fails the query"));
      result.expansions.push_back(std::move(exp));
    }

    // Advance the choice vector.
    std::size_t i = 0;
    for (; i < choice.size(); ++i) {
      if (++choice[i] < atom_words[i].size()) break;
      choice[i] = 0;
    }
    if (i == choice.size()) break;
    if (choice.empty()) break;
  }
  return result;
}

ExpansionPrefix GuardedExpansions(const Crpq& p, const ExpansionOptions& options,
                                  const ExpansionSet* shared, ExpansionSet* own) {
  if (shared == nullptr) {
    *own = CanonicalExpansions(p, options);
    return {own, own->expansions.size(), own->exhaustive};
  }
  ExpansionPrefix prefix{shared, shared->expansions.size(), shared->exhaustive};
  if (options.guard == nullptr) return prefix;
  for (std::size_t k = 0; k < shared->candidates; ++k) {
    if (options.guard->Charge(options.guard_phase)) {
      const auto& built = shared->expansions;
      prefix.count = static_cast<std::size_t>(
          std::lower_bound(built.begin(), built.end(), k,
                           [](const Expansion& e, std::size_t c) {
                             return e.candidate < c;
                           }) -
          built.begin());
      prefix.exhaustive = false;
      break;
    }
  }
  return prefix;
}

}  // namespace gqc
