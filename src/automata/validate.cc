#include "src/automata/validate.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

namespace gqc {

AuditResult ValidateSemiautomaton(const Semiautomaton& a) {
  const std::size_t n = a.StateCount();
  std::size_t out_total = 0;
  for (uint32_t s = 0; s < n; ++s) {
    std::set<std::pair<uint32_t, uint32_t>> seen;  // (symbol code, target)
    for (const auto& [symbol, t] : a.Out(s)) {
      if (t >= n) {
        return AuditViolation("transition (" + std::to_string(s) + ", " +
                              std::to_string(symbol.code()) + ", " +
                              std::to_string(t) +
                              ") targets a dangling state (state count " +
                              std::to_string(n) + ")");
      }
      if (!seen.insert({symbol.code(), t}).second) {
        return AuditViolation("duplicate transition out of state " +
                              std::to_string(s));
      }
      const auto& mirror = a.In(t);
      if (std::find(mirror.begin(), mirror.end(),
                    std::make_pair(symbol, s)) == mirror.end()) {
        return AuditViolation("transition (" + std::to_string(s) + " -> " +
                              std::to_string(t) +
                              ") missing from the in-transition mirror");
      }
      ++out_total;
    }
  }
  std::size_t in_total = 0;
  for (uint32_t t = 0; t < n; ++t) {
    for (const auto& [symbol, s] : a.In(t)) {
      if (s >= n) {
        return AuditViolation("in-transition of state " + std::to_string(t) +
                              " sources a dangling state");
      }
      const auto& mirror = a.Out(s);
      if (std::find(mirror.begin(), mirror.end(),
                    std::make_pair(symbol, t)) == mirror.end()) {
        return AuditViolation("in-transition (" + std::to_string(s) + " -> " +
                              std::to_string(t) +
                              ") missing from the out-transition mirror");
      }
      ++in_total;
    }
  }
  if (out_total != in_total || out_total != a.TransitionCount()) {
    return AuditViolation(
        "transition count mismatch: " + std::to_string(out_total) +
        " out-transitions, " + std::to_string(in_total) +
        " in-transitions, cached count " +
        std::to_string(a.TransitionCount()));
  }
  return std::nullopt;
}

AuditResult ValidateSemiautomaton(const Semiautomaton& a,
                                  const std::vector<Symbol>& alphabet) {
  if (auto v = ValidateSemiautomaton(a)) return v;
  std::set<uint32_t> allowed;
  for (Symbol s : alphabet) allowed.insert(s.code());
  for (uint32_t s = 0; s < a.StateCount(); ++s) {
    for (const auto& [symbol, t] : a.Out(s)) {
      (void)t;
      if (allowed.find(symbol.code()) == allowed.end()) {
        return AuditViolation("transition out of state " + std::to_string(s) +
                              " uses symbol code " +
                              std::to_string(symbol.code()) +
                              " outside the declared alphabet");
      }
    }
  }
  return std::nullopt;
}

AuditResult ValidateSemiautomaton(const Semiautomaton& a,
                                  const Vocabulary& vocab) {
  if (auto v = ValidateSemiautomaton(a)) return v;
  for (uint32_t s = 0; s < a.StateCount(); ++s) {
    for (const auto& [symbol, t] : a.Out(s)) {
      (void)t;
      if (symbol.is_role()) {
        if (symbol.role().name_id() >= vocab.role_count()) {
          return AuditViolation("transition uses role id " +
                                std::to_string(symbol.role().name_id()) +
                                " not interned in the vocabulary");
        }
      } else if (symbol.literal().concept_id() >= vocab.concept_count()) {
        return AuditViolation("transition test uses concept id " +
                              std::to_string(symbol.literal().concept_id()) +
                              " not interned in the vocabulary");
      }
    }
  }
  return std::nullopt;
}

AuditResult ValidateCompiledRegex(const CompiledRegex& cr) {
  if (auto v = ValidateSemiautomaton(cr.automaton)) return v;
  if (cr.automaton.StateCount() == 0) {
    return AuditViolation("compiled regex has no states");
  }
  if (cr.start >= cr.automaton.StateCount() ||
      cr.end >= cr.automaton.StateCount()) {
    return AuditViolation("compiled regex start/end state out of bounds");
  }
  return std::nullopt;
}

AuditResult ValidateWordLengthBound(const Semiautomaton& a, uint32_t s,
                                    uint32_t t, std::size_t max_len) {
  const std::size_t n = a.StateCount();
  std::vector<char> at(n, 0);
  std::vector<char> after(n, 0);
  at[s] = 1;
  for (std::size_t len = 1; len <= max_len + n; ++len) {
    std::fill(after.begin(), after.end(), 0);
    bool any = false;
    for (uint32_t q = 0; q < n; ++q) {
      if (!at[q]) continue;
      for (const auto& [symbol, r] : a.Out(q)) {
        after[r] = 1;
        any = true;
      }
    }
    if (!any) break;
    if (len > max_len && after[t]) {
      return AuditViolation("the atom (" + std::to_string(s) + ", " +
                            std::to_string(t) + ") has a word of length " +
                            std::to_string(len) + ", beyond the bound " +
                            std::to_string(max_len));
    }
    at.swap(after);
  }
  return std::nullopt;
}

}  // namespace gqc
