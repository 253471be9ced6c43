#include "src/core/validate.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/dl/model_check.h"
#include "src/graph/validate.h"
#include "src/query/canonical.h"
#include "src/query/eval.h"
#include "src/util/fingerprint.h"

namespace gqc {

namespace {

/// The atom's language contains `word`: the set of automaton states after
/// each letter, simulated one letter at a time.
bool AtomAccepts(const Semiautomaton& a, const BinaryAtom& atom,
                 const std::vector<Symbol>& word) {
  if (word.empty()) return atom.allow_empty || atom.start == atom.end;
  std::vector<char> at(a.StateCount(), 0);
  std::vector<char> after(a.StateCount(), 0);
  at[atom.start] = 1;
  for (Symbol letter : word) {
    std::fill(after.begin(), after.end(), 0);
    for (uint32_t s = 0; s < a.StateCount(); ++s) {
      if (!at[s]) continue;
      for (const auto& [sym, t] : a.Out(s)) {
        if (sym == letter) after[t] = 1;
      }
    }
    at.swap(after);
  }
  return at[atom.end] != 0;
}

/// Calls `fn` on every concatenation of one word per step list, of total
/// length at most `budget`; stops at the first `fn` that returns false.
template <typename Fn>
bool ForEachConcatenation(const std::vector<std::vector<std::vector<Symbol>>>& steps,
                          std::size_t i, std::size_t budget,
                          std::vector<Symbol>* prefix, Fn&& fn) {
  if (i == steps.size()) return fn(*prefix);
  for (const std::vector<Symbol>& word : steps[i]) {
    if (word.size() > budget) continue;
    prefix->insert(prefix->end(), word.begin(), word.end());
    const bool go_on = ForEachConcatenation(steps, i + 1, budget - word.size(),
                                            prefix, fn);
    prefix->resize(prefix->size() - word.size());
    if (!go_on) return false;
  }
  return true;
}

/// The literal codes known on one node while a derivation is replayed.
using KnownLiterals = std::set<uint32_t>;

bool Knows(const KnownLiterals& known, Literal l) {
  return known.count(l.code()) > 0;
}

bool KnowsAll(const KnownLiterals& known, const std::vector<Literal>& ls) {
  return std::all_of(ls.begin(), ls.end(),
                     [&](Literal l) { return Knows(known, l); });
}

/// A three-state automaton over single letters, for the language shapes
/// the ∀ rules rely on. State 0 has read nothing, state 1 accepts, and
/// state 2 rejects for good.
struct ShapeAutomaton {
  enum class Kind { kOneLetter, kEndsWith, kStartsWith };
  Kind kind;
  Symbol letter;

  uint8_t Next(uint8_t state, Symbol sym) const {
    const bool hit = sym == letter;
    switch (kind) {
      case Kind::kOneLetter:
        return state == 0 && hit ? 1 : 2;
      case Kind::kEndsWith:
        return hit ? 1 : 0;
      case Kind::kStartsWith:
        return state == 0 ? (hit ? 1 : 2) : state;
    }
    return 2;
  }
  static bool Accepts(uint8_t state) { return state == 1; }
};

/// Every word of P atom `atom` is in the shape's language: the atom is not
/// nullable (no shape accepts the empty word), and no pair (automaton
/// state, shape state) reachable from (start, 0) enters the atom's end in a
/// rejecting shape state.
bool WordsWithin(const Crpq& p, const BinaryAtom& atom,
                 const ShapeAutomaton& shape) {
  if (atom.allow_empty || atom.start == atom.end) return false;
  const Semiautomaton& a = p.Automaton();
  std::vector<char> seen(a.StateCount() * 3, 0);
  std::vector<std::pair<uint32_t, uint8_t>> stack{{atom.start, 0}};
  seen[atom.start * 3] = 1;
  while (!stack.empty()) {
    const auto [state, at] = stack.back();
    stack.pop_back();
    for (const auto& [sym, t] : a.Out(state)) {
      const uint8_t next = shape.Next(at, sym);
      if (t == atom.end && !ShapeAutomaton::Accepts(next)) return false;
      if (!seen[t * 3 + next]) {
        seen[t * 3 + next] = 1;
        stack.emplace_back(t, next);
      }
    }
  }
  return true;
}

/// Replays one derivation: `known` holds each node's literals (P's
/// variables, or the one node of an `everywhere` or filler derivation) and
/// grows with every conclusion; `everywhere` holds on every node. `p` is
/// null for a one-node derivation, where the ∀ rules have no atom to use.
/// `*clashed` tells whether the last step is a clash.
AuditResult ReplaySaturation(const Crpq* p, const NormalTBox& tbox,
                             const KnownLiterals& everywhere,
                             const std::vector<SaturationStep>& steps,
                             std::vector<KnownLiterals>* known, bool* clashed) {
  using Rule = SaturationStep::Rule;
  *clashed = false;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const SaturationStep& step = steps[i];
    const std::string at = "saturation step #" + std::to_string(i);
    if (*clashed) return AuditViolation(at + " follows a clash");
    if (step.var >= known->size()) {
      return AuditViolation(at + " names a node the derivation lacks");
    }
    KnownLiterals& here = (*known)[step.var];
    if (step.rule == Rule::kComplement) {
      if (!step.clash || !Knows(here, step.literal) ||
          !Knows(here, step.literal.Complemented())) {
        return AuditViolation(at + " claims a literal and its complement "
                                   "that are not both on the node");
      }
      *clashed = true;
      continue;
    }
    if (step.ci >= tbox.size()) {
      return AuditViolation(at + " names a CI the schema lacks");
    }
    const NormalCi& ci = tbox.Cis()[step.ci];
    switch (step.rule) {
      case Rule::kBoolean: {
        if (ci.kind != NormalCi::Kind::kBoolean) {
          return AuditViolation(at + " applies a non-Boolean CI as Boolean");
        }
        if (!KnowsAll(here, ci.lhs)) {
          return AuditViolation(at + ": the CI's lhs is not on the node");
        }
        const auto open = [&](Literal l) {
          return !Knows(here, l.Complemented());
        };
        if (step.clash) {
          if (std::any_of(ci.rhs.begin(), ci.rhs.end(), open)) {
            return AuditViolation(at + " is a clash that leaves an rhs "
                                       "literal open");
          }
          break;
        }
        if (std::find(ci.rhs.begin(), ci.rhs.end(), step.literal) ==
                ci.rhs.end() ||
            std::any_of(ci.rhs.begin(), ci.rhs.end(), [&](Literal l) {
              return l != step.literal && open(l);
            })) {
          return AuditViolation(at + " concludes a literal its CI leaves "
                                     "undetermined");
        }
        here.insert(step.literal.code());
        break;
      }
      case Rule::kForallEdge:
      case Rule::kForallPath: {
        if (p == nullptr || step.atom >= p->BinaryAtoms().size()) {
          return AuditViolation(at + " travels along an atom P lacks");
        }
        if (ci.kind != NormalCi::Kind::kForall || step.clash ||
            step.literal != ci.rhs_lit) {
          return AuditViolation(at + " does not conclude its ∀ CI's filler");
        }
        const BinaryAtom& atom = p->BinaryAtoms()[step.atom];
        const Symbol along = Symbol::FromRole(ci.role);
        const Symbol back = Symbol::FromRole(ci.role.Reversed());
        bool justified = false;
        if (step.rule == Rule::kForallEdge) {
          using K = ShapeAutomaton::Kind;
          justified =
              (step.var == atom.z && KnowsAll((*known)[atom.y], ci.lhs) &&
               WordsWithin(*p, atom, {K::kOneLetter, along})) ||
              (step.var == atom.y && KnowsAll((*known)[atom.z], ci.lhs) &&
               WordsWithin(*p, atom, {K::kOneLetter, back}));
        } else {
          using K = ShapeAutomaton::Kind;
          justified = KnowsAll(everywhere, ci.lhs) &&
                      ((step.var == atom.z &&
                        WordsWithin(*p, atom, {K::kEndsWith, along})) ||
                       (step.var == atom.y &&
                        WordsWithin(*p, atom, {K::kStartsWith, back})));
        }
        if (!justified) {
          return AuditViolation(at + ": the ∀ CI's lhs or the atom's "
                                     "language does not carry its literal "
                                     "to the node");
        }
        (*known)[step.var].insert(step.literal.code());
        break;
      }
      case Rule::kFiller: {
        if (ci.kind != NormalCi::Kind::kAtLeast || ci.n == 0 || !step.clash) {
          return AuditViolation(at + " is not a clash of an at-least CI");
        }
        if (!KnowsAll(here, ci.lhs)) {
          return AuditViolation(at + ": the CI's lhs is not on the node");
        }
        KnownLiterals filler = everywhere;
        for (Literal seed : step.seeds) {
          const bool passed =
              seed == ci.rhs_lit ||
              std::any_of(tbox.Cis().begin(), tbox.Cis().end(),
                          [&](const NormalCi& d) {
                            return d.kind == NormalCi::Kind::kForall &&
                                   d.role == ci.role && d.rhs_lit == seed &&
                                   KnowsAll(here, d.lhs);
                          });
          if (!passed) {
            return AuditViolation(at + " seeds its filler with a literal "
                                       "no CI passes to it");
          }
          filler.insert(seed.code());
        }
        std::vector<KnownLiterals> node{filler};
        bool filler_clashed = false;
        if (auto v = ReplaySaturation(nullptr, tbox, everywhere, step.filler,
                                      &node, &filler_clashed)) {
          return AuditViolation(at + "'s filler: " + *v);
        }
        if (!filler_clashed) {
          return AuditViolation(at + "'s filler does not clash");
        }
        break;
      }
      case Rule::kComplement:
        break;
    }
    *clashed = step.clash;
  }
  return std::nullopt;
}

}  // namespace

AuditResult ValidateCacheKey(std::string_view key,
                             const std::vector<std::string_view>& parts) {
  std::optional<std::vector<std::string>> decoded = SplitKeyParts(key);
  if (!decoded.has_value()) {
    return AuditViolation("cache key is not a valid length-prefixed encoding");
  }
  if (decoded->size() != parts.size()) {
    return AuditViolation(
        "cache key decodes to " + std::to_string(decoded->size()) +
        " parts, built from " + std::to_string(parts.size()));
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if ((*decoded)[i] != parts[i]) {
      return AuditViolation("cache key part #" + std::to_string(i) +
                            " does not round-trip: possible key aliasing "
                            "between distinct cache inputs");
    }
  }
  return std::nullopt;
}

AuditResult ValidateCountermodel(const Graph& g, const Crpq& p, const Ucrpq& q,
                                 const NormalTBox& tbox) {
  if (auto v = ValidateGraph(g)) return v;
  if (!Satisfies(g, tbox)) {
    return AuditViolation("claimed countermodel does not satisfy the TBox");
  }
  if (!Matches(g, p)) {
    return AuditViolation(
        "claimed countermodel does not satisfy the left-hand query");
  }
  if (Matches(g, q)) {
    return AuditViolation(
        "claimed countermodel satisfies the right-hand query — it refutes "
        "nothing");
  }
  return std::nullopt;
}

AuditResult ValidateCountermodel(const Graph& g, const Ucrpq& p,
                                 const Ucrpq& q, const NormalTBox& tbox) {
  if (auto v = ValidateGraph(g)) return v;
  if (!Satisfies(g, tbox)) {
    return AuditViolation("claimed countermodel does not satisfy the TBox");
  }
  if (!Matches(g, p)) {
    return AuditViolation(
        "claimed countermodel does not satisfy the left-hand query");
  }
  if (Matches(g, q)) {
    return AuditViolation(
        "claimed countermodel satisfies the right-hand query — it refutes "
        "nothing");
  }
  return std::nullopt;
}

AuditResult ValidateMappingCertificate(const Crpq& p, const Ucrpq& q,
                                       const MappingCertificate& cert) {
  if (cert.disjunct >= q.size()) {
    return AuditViolation("mapping certificate names Q disjunct #" +
                          std::to_string(cert.disjunct) + " of " +
                          std::to_string(q.size()));
  }
  const Crpq& d = q.Disjuncts()[cert.disjunct];
  if (cert.var_map.size() != d.VarCount() ||
      cert.paths.size() != d.BinaryAtoms().size()) {
    return AuditViolation("mapping certificate does not cover Q's disjunct");
  }
  for (uint32_t target : cert.var_map) {
    if (target >= p.VarCount()) {
      return AuditViolation("mapping certificate maps to a variable P lacks");
    }
  }
  for (const UnaryAtom& u : d.UnaryAtoms()) {
    const uint32_t target = cert.var_map[u.var];
    const bool carried = std::any_of(
        p.UnaryAtoms().begin(), p.UnaryAtoms().end(), [&](const UnaryAtom& w) {
          return w.var == target && w.literal == u.literal;
        });
    if (!carried) {
      return AuditViolation("Q literal on variable " + d.VarName(u.var) +
                            " is not on its image " + p.VarName(target) +
                            " in P");
    }
  }
  const ExpansionOptions bounds;
  for (std::size_t j = 0; j < cert.paths.size(); ++j) {
    const BinaryAtom& atom = d.BinaryAtoms()[j];
    uint32_t at = cert.var_map[atom.y];
    // The words of each step, read in the step's direction.
    std::vector<std::vector<std::vector<Symbol>>> steps;
    for (const PathStep& step : cert.paths[j]) {
      if (step.atom >= p.BinaryAtoms().size()) {
        return AuditViolation("certificate path uses an atom P lacks");
      }
      const BinaryAtom& b = p.BinaryAtoms()[step.atom];
      if ((step.reversed ? b.z : b.y) != at) {
        return AuditViolation("certificate path for Q atom #" +
                              std::to_string(j) + " is not connected");
      }
      at = step.reversed ? b.y : b.z;
      bool complete = true;
      steps.push_back(AtomWords(p.Automaton(), b.start, b.end, b.allow_empty,
                                bounds.max_word_length, &complete));
      if (step.reversed) {
        for (std::vector<Symbol>& word : steps.back()) {
          std::reverse(word.begin(), word.end());
          for (Symbol& sym : word) {
            if (sym.is_role()) sym = Symbol::FromRole(sym.role().Reversed());
          }
        }
      }
    }
    if (at != cert.var_map[atom.z]) {
      return AuditViolation("certificate path for Q atom #" + std::to_string(j) +
                            " does not end at the image of its second variable");
    }
    std::vector<Symbol> prefix;
    bool included = ForEachConcatenation(
        steps, 0, bounds.max_word_length, &prefix,
        [&](const std::vector<Symbol>& word) {
          return AtomAccepts(d.Automaton(), atom, word);
        });
    if (!included) {
      return AuditViolation("a word of the certificate path for Q atom #" +
                            std::to_string(j) +
                            " is not in the Q atom's language");
    }
  }
  for (const Expansion& exp : CanonicalExpansions(p, bounds).expansions) {
    if (!Matches(exp.graph, q)) {
      return AuditViolation(
          "a canonical expansion of P fails Q although Q maps into P");
    }
  }
  return std::nullopt;
}

AuditResult ValidateSaturationCertificate(const Crpq& p, const NormalTBox& tbox,
                                          const Saturation& saturation) {
  const SaturationCertificate& cert = saturation.certificate;
  std::vector<KnownLiterals> any(1);
  bool clashed = false;
  if (auto v = ReplaySaturation(nullptr, tbox, any[0], cert.everywhere, &any,
                                &clashed)) {
    return AuditViolation("everywhere: " + *v);
  }
  const KnownLiterals& everywhere = any[0];
  if (clashed) {
    if (!cert.clash || !cert.steps.empty() || p.VarCount() == 0) {
      return AuditViolation("the everywhere derivation clashes, but the "
                            "certificate does not end there");
    }
    return std::nullopt;
  }
  std::vector<KnownLiterals> known(p.VarCount(), everywhere);
  for (const UnaryAtom& u : p.UnaryAtoms()) {
    known[u.var].insert(u.literal.code());
  }
  if (auto v = ReplaySaturation(&p, tbox, everywhere, cert.steps, &known,
                                &clashed)) {
    return v;
  }
  if (clashed != cert.clash) {
    return AuditViolation(cert.clash ? "the certificate claims a clash its "
                                       "steps do not reach"
                                     : "the steps clash, but the certificate "
                                       "does not say so");
  }
  if (clashed) return std::nullopt;
  const Crpq& saturated = saturation.saturated;
  const auto& own = p.UnaryAtoms();
  const auto& all = saturated.UnaryAtoms();
  if (saturated.VarCount() != p.VarCount() ||
      saturated.BinaryAtoms().size() != p.BinaryAtoms().size() ||
      all.size() < own.size() ||
      !std::equal(own.begin(), own.end(), all.begin(),
                  [](const UnaryAtom& a, const UnaryAtom& b) {
                    return a.var == b.var && a.literal == b.literal;
                  })) {
    return AuditViolation("the saturated P is not P plus unary atoms");
  }
  for (std::size_t i = own.size(); i < all.size(); ++i) {
    if (!Knows(known[all[i].var], all[i].literal)) {
      return AuditViolation("the saturated P carries a literal on " +
                            p.VarName(all[i].var) + " that no step concludes");
    }
  }
  return std::nullopt;
}

}  // namespace gqc
