#include "src/core/validate.h"

#include <algorithm>
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

}  // namespace gqc
