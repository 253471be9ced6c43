#include "src/query/query_containment.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/query/eval.h"

namespace gqc {

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kContained:
      return "contained";
    case Verdict::kNotContained:
      return "not-contained";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "?";
}

QueryContainmentResult QueryContainment(
    const Ucrpq& p, const Ucrpq& q, const QueryContainmentOptions& options) {
  bool exhaustive = true;
  // lint: bounded(one test per disjunct of P)
  for (const Crpq& disjunct : p.Disjuncts()) {
    if (MapsInto(disjunct, q).has_value()) continue;
    QueryContainmentResult one = ClassicalContainment(
        CanonicalExpansions(disjunct, options.expansion), q);
    if (one.verdict == Verdict::kNotContained) return one;
    exhaustive = exhaustive && one.verdict == Verdict::kContained;
  }
  QueryContainmentResult result;
  result.verdict = exhaustive ? Verdict::kContained : Verdict::kUnknown;
  return result;
}

QueryContainmentResult ClassicalContainment(const ExpansionSet& expansions,
                                            const Ucrpq& q) {
  QueryContainmentResult result;
  // lint: bounded(one evaluation per expansion; the set is capped at max_expansions)
  for (const Expansion& exp : expansions.expansions) {
    if (!Matches(exp.graph, q)) {
      // Exact counterexample: the expansion satisfies P (by construction)
      // but not Q, and containment is over all finite graphs.
      result.verdict = Verdict::kNotContained;
      result.counterexample = exp.graph;
      return result;
    }
  }
  result.verdict = expansions.exhaustive ? Verdict::kContained : Verdict::kUnknown;
  return result;
}

namespace {

// The screen's caps. Past any of them it gives up on the disjunct of Q (or
// on the path) it was trying; it never answers wrongly.
//
// A set of a Q atom's automaton states is one mask of its live states; the
// top bit flags "no letter read yet", whose acceptance is the atom's
// nullability rather than its end state.
constexpr std::size_t kMaxLiveStates = 63;
constexpr uint64_t kNothingRead = uint64_t{1} << 63;
// (p state, Q state set) configurations of one traversal of one p atom.
constexpr std::size_t kMaxConfigurations = 256;
// Distinct traversals memoized for one disjunct of Q.
constexpr std::size_t kMaxTraversals = 512;
// Q state sets carried along one path.
constexpr std::size_t kMaxFrontier = 64;
// Work of one call: variable assignments, path extensions and
// configurations.
constexpr std::size_t kMaxWork = 16384;
// The guard's deadline and cancellation are polled every this many nodes.
constexpr std::size_t kPollStride = 64;

/// The subset construction of one Q atom (start s, end t): its automaton's
/// states on some run from s to t, renumbered so a set of them is a mask.
struct AtomSubsets {
  bool usable = false;
  bool nullable = false;  // the empty word is in the atom's language
  uint64_t start = 0;     // {s}, or 0 if no run leaves s
  uint64_t accept = 0;    // {t}
  /// Transitions between live states: those of local state i are
  /// moves[begin[i], begin[i + 1]), as (letter, mask of the target).
  std::vector<std::pair<Symbol, uint64_t>> moves;
  std::vector<uint32_t> begin;

  /// The states reached from `from` by one `letter`.
  uint64_t Step(uint64_t from, Symbol letter) const {
    uint64_t to = 0;
    // lint: bounded(one pass over the transitions of at most 63 live states)
    for (; from != 0; from &= from - 1) {
      const std::size_t i = static_cast<std::size_t>(std::countr_zero(from));
      // lint: bounded(the transitions of one state)
      for (uint32_t k = begin[i]; k < begin[i + 1]; ++k) {
        if (moves[k].first == letter) to |= moves[k].second;
      }
    }
    return to;
  }

  /// True iff the words that led to `set` are all in the atom's language.
  bool Accepts(uint64_t set) const {
    return (set & kNothingRead) != 0 ? nullable : (set & accept) != 0;
  }
};

/// The search for a MappingCertificate of one disjunct p of P against the
/// disjuncts of Q, one at a time, on sorted vectors and index ranges. Every
/// inclusion a path test needs is memoized per (Q atom, p atom, direction,
/// Q state set), and every path test per (Q atom, h(y), h(z)), for the
/// disjunct under search.
class MappingSearch {
 public:
  MappingSearch(const Crpq& p, ResourceGuard* guard) : p_(p), guard_(guard) {
    const std::size_t n = p.VarCount();
    // Sorted literal codes per p variable.
    lit_begin_.assign(n + 1, 0);
    // lint: bounded(one pass over p's unary atoms)
    for (const UnaryAtom& u : p.UnaryAtoms()) ++lit_begin_[u.var + 1];
    // lint: bounded(one pass over p's variables)
    for (std::size_t v = 0; v < n; ++v) lit_begin_[v + 1] += lit_begin_[v];
    lits_.resize(p.UnaryAtoms().size());
    std::vector<uint32_t> fill(lit_begin_.begin(), lit_begin_.end() - 1);
    // lint: bounded(one pass over p's unary atoms)
    for (const UnaryAtom& u : p.UnaryAtoms()) {
      lits_[fill[u.var]++] = u.literal.code();
    }
    // lint: bounded(one sort per p variable)
    for (std::size_t v = 0; v < n; ++v) {
      std::sort(lits_.begin() + lit_begin_[v], lits_.begin() + lit_begin_[v + 1]);
    }
    // Both directions of every p atom, by the variable they leave.
    inc_begin_.assign(n + 1, 0);
    const auto& atoms = p.BinaryAtoms();
    // lint: bounded(one pass over p's binary atoms)
    for (const BinaryAtom& a : atoms) {
      ++inc_begin_[a.y + 1];
      ++inc_begin_[a.z + 1];
    }
    // lint: bounded(one pass over p's variables)
    for (std::size_t v = 0; v < n; ++v) inc_begin_[v + 1] += inc_begin_[v];
    inc_.resize(2 * atoms.size());
    fill.assign(inc_begin_.begin(), inc_begin_.end() - 1);
    // lint: bounded(one pass over p's binary atoms)
    for (uint32_t i = 0; i < atoms.size(); ++i) {
      inc_[fill[atoms[i].y]++] = {i, false, atoms[i].z};
      inc_[fill[atoms[i].z]++] = {i, true, atoms[i].y};
    }
    p_live_.resize(2 * atoms.size());
  }

  /// A certificate that `q` (one disjunct) maps into p, or nullopt.
  std::optional<MappingCertificate> Map(const Crpq& q) {
    const std::size_t nq = q.VarCount();
    const std::size_t np = p_.VarCount();
    if (nq == 0 || np == 0 || out_of_budget_) return std::nullopt;
    q_ = &q;
    subsets_.assign(q.BinaryAtoms().size(), std::nullopt);
    memo_.clear();
    memo_sets_.clear();
    paths_.assign(q.BinaryAtoms().size() * np * np, PathMemo{});
    path_steps_.clear();

    // Candidates: the p variables that carry every literal Q puts on x.
    std::vector<uint32_t> q_lits;
    std::vector<uint32_t> cand_begin(nq + 1, 0);
    std::vector<uint32_t> cands;
    // lint: bounded(one pass per Q variable)
    for (uint32_t x = 0; x < nq; ++x) {
      q_lits.clear();
      // lint: bounded(one pass over Q's unary atoms)
      for (const UnaryAtom& u : q.UnaryAtoms()) {
        if (u.var == x) q_lits.push_back(u.literal.code());
      }
      std::sort(q_lits.begin(), q_lits.end());
      q_lits.erase(std::unique(q_lits.begin(), q_lits.end()), q_lits.end());
      // lint: bounded(one inclusion test per p variable)
      for (uint32_t v = 0; v < np; ++v) {
        if (std::includes(lits_.begin() + lit_begin_[v],
                          lits_.begin() + lit_begin_[v + 1], q_lits.begin(),
                          q_lits.end())) {
          cands.push_back(v);
        }
      }
      cand_begin[x + 1] = static_cast<uint32_t>(cands.size());
      if (cand_begin[x + 1] == cand_begin[x]) return std::nullopt;
    }

    // Variable order: fewest candidates first, then always a variable next
    // to an ordered one, so each atom is tested as soon as both its ends
    // are mapped.
    const auto& q_atoms = q.BinaryAtoms();
    std::vector<uint32_t> order;
    std::vector<uint32_t> position(nq, UINT32_MAX);
    // lint: bounded(one pick per Q variable)
    while (order.size() < nq) {
      uint32_t best = UINT32_MAX;
      bool best_adjacent = false;
      // lint: bounded(one scan of Q's variables per pick)
      for (uint32_t x = 0; x < nq; ++x) {
        if (position[x] != UINT32_MAX) continue;
        bool adjacent = false;
        // lint: bounded(one pass over Q's binary atoms)
        for (const BinaryAtom& a : q_atoms) {
          adjacent = adjacent ||
                     (a.y == x && position[a.z] != UINT32_MAX) ||
                     (a.z == x && position[a.y] != UINT32_MAX);
        }
        const uint32_t size = cand_begin[x + 1] - cand_begin[x];
        if (best == UINT32_MAX || (adjacent && !best_adjacent) ||
            (adjacent == best_adjacent &&
             size < cand_begin[best + 1] - cand_begin[best])) {
          best = x;
          best_adjacent = adjacent;
        }
      }
      position[best] = static_cast<uint32_t>(order.size());
      order.push_back(best);
    }
    // The atoms to test when the variable at position i is mapped.
    std::vector<uint32_t> due_begin(nq + 1, 0);
    std::vector<uint32_t> due(q_atoms.size());
    // lint: bounded(one pass over Q's binary atoms)
    for (const BinaryAtom& a : q_atoms) {
      ++due_begin[std::max(position[a.y], position[a.z]) + 1];
    }
    // lint: bounded(one pass per Q variable)
    for (std::size_t i = 0; i < nq; ++i) due_begin[i + 1] += due_begin[i];
    std::vector<uint32_t> fill(due_begin.begin(), due_begin.end() - 1);
    // lint: bounded(one pass over Q's binary atoms)
    for (uint32_t j = 0; j < q_atoms.size(); ++j) {
      due[fill[std::max(position[q_atoms[j].y], position[q_atoms[j].z])]++] = j;
    }

    // Depth-first over the positions; next[i] is the index of the candidate
    // of order[i] to try next.
    std::vector<uint32_t> h(nq, 0);
    std::vector<uint32_t> next(nq + 1, 0);
    std::size_t depth = 0;
    next[0] = cand_begin[order[0]];
    while (true) {
      if (OutOfBudget()) return std::nullopt;
      const uint32_t x = order[depth];
      if (next[depth] == cand_begin[x + 1]) {
        if (depth == 0) return std::nullopt;
        --depth;
        continue;
      }
      h[x] = cands[next[depth]++];
      bool ok = true;
      // lint: bounded(the atoms due at this position; each test is capped by kMaxWork)
      for (uint32_t k = due_begin[depth]; ok && k < due_begin[depth + 1]; ++k) {
        const BinaryAtom& a = q_atoms[due[k]];
        ok = Connect(due[k], h[a.y], h[a.z]);
      }
      if (!ok) continue;
      if (++depth == nq) break;
      next[depth] = cand_begin[order[depth]];
    }

    MappingCertificate cert;
    cert.var_map = std::move(h);
    cert.paths.resize(q_atoms.size());
    // lint: bounded(one path per Q binary atom)
    for (uint32_t j = 0; j < q_atoms.size(); ++j) {
      const PathMemo& found = paths_[PathIndex(j, cert.var_map[q_atoms[j].y],
                                               cert.var_map[q_atoms[j].z])];
      cert.paths[j].assign(path_steps_.begin() + found.begin,
                           path_steps_.begin() + found.end);
    }
    return cert;
  }

 private:
  enum : uint8_t { kUntested = 0, kNoPath, kPath };

  /// One memoized path test: its outcome and, for kPath, the path as
  /// path_steps_[begin, end).
  struct PathMemo {
    uint8_t state = kUntested;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  struct Incidence {
    uint32_t atom;
    bool reversed;
    uint32_t to;
  };

  /// One memoized traversal: from the Q state set `from`, reading the words
  /// of a p atom in one direction, the non-empty words reach exactly the
  /// sets memo_sets_[begin, end).
  struct Traversal {
    uint32_t key;  // (Q atom, p atom, direction)
    uint64_t from;
    uint32_t begin;
    uint32_t end;
  };

  /// Counts one unit of work; true once the work cap is spent or the guard
  /// has tripped (deadline or cancellation).
  bool OutOfBudget() {
    if (out_of_budget_) return true;
    if (++work_ > kMaxWork) {
      out_of_budget_ = true;
    } else if (guard_ != nullptr && work_ % kPollStride == 0 &&
               guard_->Recheck(GuardPhase::kScreen)) {
      out_of_budget_ = true;
    }
    return out_of_budget_;
  }

  std::size_t PathIndex(uint32_t qa, uint32_t a, uint32_t b) const {
    const std::size_t np = p_.VarCount();
    return (static_cast<std::size_t>(qa) * np + a) * np + b;
  }

  const AtomSubsets& Subsets(uint32_t qa) {
    std::optional<AtomSubsets>& slot = subsets_[qa];
    if (slot.has_value()) return *slot;
    slot.emplace();
    AtomSubsets& out = *slot;
    const Semiautomaton& a = q_->Automaton();
    const BinaryAtom& atom = q_->BinaryAtoms()[qa];
    out.nullable = atom.allow_empty || atom.start == atom.end;
    const std::vector<bool> reach = a.ReachableStates(atom.start);
    const std::vector<bool> coreach = a.CoReachableStates(atom.end);
    std::vector<uint32_t> local(a.StateCount(), UINT32_MAX);
    uint32_t count = 0;
    // lint: bounded(one pass over the Q automaton's states)
    for (uint32_t s = 0; s < a.StateCount(); ++s) {
      if (reach[s] && coreach[s]) local[s] = count++;
    }
    if (count > kMaxLiveStates) return out;
    out.usable = true;
    if (local[atom.start] != UINT32_MAX) {
      out.start = uint64_t{1} << local[atom.start];
      out.accept = uint64_t{1} << local[atom.end];
    }
    out.begin.assign(count + 1, 0);
    // lint: bounded(one pass over the Q automaton's transitions)
    for (uint32_t s = 0; s < a.StateCount(); ++s) {
      if (local[s] == UINT32_MAX) continue;
      // lint: bounded(the transitions of one state)
      for (const auto& [sym, t] : a.Out(s)) {
        if (local[t] != UINT32_MAX) {
          out.moves.emplace_back(sym, uint64_t{1} << local[t]);
        }
      }
      out.begin[local[s] + 1] = static_cast<uint32_t>(out.moves.size());
    }
    return out;
  }

  /// States of p's automaton still on a run of p atom `pa` read in direction
  /// `reversed`: forward, those that reach its end; reversed, those its
  /// start reaches.
  const std::vector<bool>& PLive(uint32_t pa, bool reversed) {
    std::vector<bool>& live = p_live_[2 * pa + (reversed ? 1 : 0)];
    if (live.empty()) {
      const BinaryAtom& atom = p_.BinaryAtoms()[pa];
      live = reversed ? p_.Automaton().ReachableStates(atom.start)
                      : p_.Automaton().CoReachableStates(atom.end);
    }
    return live;
  }

  /// The Q state sets that the non-empty words of p atom `pa`, read in
  /// direction `reversed`, lead to from `from`, appended to memo_sets_
  /// once and returned as a range of it. False if a cap was hit.
  bool Traverse(uint32_t qa, uint32_t pa, bool reversed, uint64_t from,
                uint32_t* begin, uint32_t* end) {
    const uint32_t key = static_cast<uint32_t>(
        (qa * p_.BinaryAtoms().size() + pa) * 2 + (reversed ? 1 : 0));
    // lint: bounded(at most kMaxTraversals memo entries)
    for (const Traversal& t : memo_) {
      if (t.key == key && t.from == from) {
        *begin = t.begin;
        *end = t.end;
        return true;
      }
    }
    if (memo_.size() == kMaxTraversals) return false;
    const AtomSubsets& q = Subsets(qa);
    const Semiautomaton& a = p_.Automaton();
    const BinaryAtom& atom = p_.BinaryAtoms()[pa];
    const uint32_t entry = reversed ? atom.end : atom.start;
    const uint32_t exit = reversed ? atom.start : atom.end;
    const std::vector<bool>& live = PLive(pa, reversed);
    // Read backwards, a role letter is traversed against its direction.
    auto letter = [reversed](Symbol sym) {
      return reversed && sym.is_role() ? Symbol::FromRole(sym.role().Reversed())
                                       : sym;
    };
    configs_.clear();
    auto push = [&](uint32_t state, uint64_t set) {
      if (!live[state]) return true;
      const std::pair<uint32_t, uint64_t> config{state, set};
      if (std::find(configs_.begin(), configs_.end(), config) != configs_.end()) {
        return true;
      }
      if (configs_.size() == kMaxConfigurations || OutOfBudget()) return false;
      configs_.push_back(config);
      return true;
    };
    // The entry state before any letter is not a configuration: leaving
    // the atom there is the empty word, which the caller accounts for.
    // lint: bounded(the transitions of one state)
    for (const auto& [sym, t] : reversed ? a.In(entry) : a.Out(entry)) {
      if (!push(t, q.Step(from, letter(sym)))) return false;
    }
    const uint32_t first = static_cast<uint32_t>(memo_sets_.size());
    // lint: bounded(at most kMaxConfigurations configurations)
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const auto [state, set] = configs_[i];
      if (state == exit) memo_sets_.push_back(set);
      // lint: bounded(the transitions of one state)
      for (const auto& [sym, t] : reversed ? a.In(state) : a.Out(state)) {
        if (!push(t, q.Step(set, letter(sym)))) {
          memo_sets_.resize(first);
          return false;
        }
      }
    }
    std::sort(memo_sets_.begin() + first, memo_sets_.end());
    memo_sets_.erase(std::unique(memo_sets_.begin() + first, memo_sets_.end()),
                     memo_sets_.end());
    *begin = first;
    *end = static_cast<uint32_t>(memo_sets_.size());
    memo_.push_back({key, from, *begin, *end});
    return true;
  }

  /// Appends to frontier_ the Q state sets reached from the sets
  /// frontier_[begin, end) across p atom `pa` read in direction `reversed`.
  /// False if the path cannot meet the Q atom past this point (a set no
  /// word can complete) or a cap was hit.
  bool Cross(uint32_t qa, uint32_t pa, bool reversed, std::size_t begin,
             std::size_t end) {
    const BinaryAtom& atom = p_.BinaryAtoms()[pa];
    const bool nullable = atom.allow_empty || atom.start == atom.end;
    const std::size_t first = frontier_.size();
    // lint: bounded(at most kMaxFrontier sets)
    for (std::size_t i = begin; i < end; ++i) {
      const uint64_t set = frontier_[i];
      // The empty word of a nullable atom keeps the set as it is.
      if (nullable) frontier_.push_back(set);
      uint32_t b = 0;
      uint32_t e = 0;
      if (!Traverse(qa, pa, reversed, set & ~kNothingRead, &b, &e)) return false;
      frontier_.insert(frontier_.end(), memo_sets_.begin() + b,
                       memo_sets_.begin() + e);
    }
    std::sort(frontier_.begin() + first, frontier_.end());
    frontier_.erase(std::unique(frontier_.begin() + first, frontier_.end()),
                    frontier_.end());
    // A set that is empty after a letter stays empty: no continuation of
    // its words is in the Q atom's language.
    return frontier_.size() - first <= kMaxFrontier &&
           (frontier_.size() == first || frontier_[first] != 0);
  }

  /// Extends the current path at `cur` towards `b`; the Q state sets the
  /// path's words lead to are frontier_[begin, end).
  bool Extend(uint32_t qa, uint32_t cur, uint32_t b, std::size_t begin,
              std::size_t end) {
    // lint: bounded(p's atoms at one variable; every step polls OutOfBudget)
    for (uint32_t k = inc_begin_[cur]; k < inc_begin_[cur + 1]; ++k) {
      if (OutOfBudget()) return false;
      const Incidence inc = inc_[k];
      if (inc.to != b && visited_[inc.to]) continue;
      const std::size_t next = frontier_.size();
      if (Cross(qa, inc.atom, inc.reversed, begin, end)) {
        path_.push_back({inc.atom, inc.reversed});
        if (inc.to == b) {
          const AtomSubsets& q = Subsets(qa);
          if (std::all_of(frontier_.begin() + next, frontier_.end(),
                          [&q](uint64_t set) { return q.Accepts(set); })) {
            return true;
          }
        } else {
          visited_[inc.to] = 1;
          if (Extend(qa, inc.to, b, next, frontier_.size())) return true;
          visited_[inc.to] = 0;
        }
        path_.pop_back();
      }
      frontier_.resize(next);
    }
    return false;
  }

  /// True iff Q atom `qa` is met between p variables a and b: by the empty
  /// word, or by a simple path whose language the atom's includes.
  bool Connect(uint32_t qa, uint32_t a, uint32_t b) {
    PathMemo& memo = paths_[PathIndex(qa, a, b)];
    if (memo.state != kUntested) return memo.state == kPath;
    memo.state = kNoPath;
    const AtomSubsets& q = Subsets(qa);
    path_.clear();
    // The empty word needs no subset construction, so even an atom past
    // its cap on live states is met by it.
    bool met = a == b && q.nullable;
    if (!met) {
      if (!q.usable) return false;
      frontier_.assign(1, kNothingRead | q.start);
      visited_.assign(p_.VarCount(), 0);
      visited_[a] = 1;
      met = Extend(qa, a, b, 0, 1);
    }
    if (!met) return false;
    memo.state = kPath;
    memo.begin = static_cast<uint32_t>(path_steps_.size());
    path_steps_.insert(path_steps_.end(), path_.begin(), path_.end());
    memo.end = static_cast<uint32_t>(path_steps_.size());
    return true;
  }

  const Crpq& p_;
  ResourceGuard* guard_;
  std::size_t work_ = 0;
  bool out_of_budget_ = false;

  // p: sorted literal codes and incident atom directions per variable, and
  // the live states of each atom direction (computed on first use).
  std::vector<uint32_t> lit_begin_;
  std::vector<uint32_t> lits_;
  std::vector<uint32_t> inc_begin_;
  std::vector<Incidence> inc_;
  std::vector<std::vector<bool>> p_live_;

  // The Q disjunct under search, its atoms' subset constructions, and the
  // memos (reset per disjunct).
  const Crpq* q_ = nullptr;
  std::vector<std::optional<AtomSubsets>> subsets_;
  std::vector<Traversal> memo_;
  std::vector<uint64_t> memo_sets_;
  std::vector<PathMemo> paths_;
  std::vector<PathStep> path_steps_;

  // Buffers reused from one path test to the next.
  std::vector<uint64_t> frontier_;
  std::vector<PathStep> path_;
  std::vector<uint8_t> visited_;
  std::vector<std::pair<uint32_t, uint64_t>> configs_;
};

}  // namespace

std::optional<MappingCertificate> MapsInto(const Crpq& p, const Ucrpq& q,
                                           ResourceGuard* guard) {
  MappingSearch search(p, guard);
  const std::vector<Crpq>& disjuncts = q.Disjuncts();
  // lint: bounded(one search per disjunct of Q; all share one kMaxWork cap)
  for (std::size_t d = 0; d < disjuncts.size(); ++d) {
    std::optional<MappingCertificate> cert = search.Map(disjuncts[d]);
    if (cert.has_value()) {
      cert->disjunct = d;
      return cert;
    }
  }
  return std::nullopt;
}

}  // namespace gqc
