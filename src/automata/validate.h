#ifndef GQC_AUTOMATA_VALIDATE_H_
#define GQC_AUTOMATA_VALIDATE_H_

#include <vector>

#include "src/automata/semiautomaton.h"
#include "src/automata/symbol.h"
#include "src/util/invariant.h"

namespace gqc {

/// Structural sanity of a semiautomaton: every transition endpoint is a live
/// state (no dangling states), the out-/in-transition mirrors agree, no
/// duplicate transitions, and the cached transition count matches.
AuditResult ValidateSemiautomaton(const Semiautomaton& a);

/// ValidateSemiautomaton plus an alphabet bound: every transition symbol is
/// drawn from `alphabet` (the paper's Γ± ∪ Σ± for the task at hand).
AuditResult ValidateSemiautomaton(const Semiautomaton& a,
                                  const std::vector<Symbol>& alphabet);

/// ValidateSemiautomaton plus vocabulary bounds: every transition symbol's
/// role / concept id is interned.
AuditResult ValidateSemiautomaton(const Semiautomaton& a,
                                  const Vocabulary& vocab);

/// CompileRegex output: well-formed automaton with live start/end states.
AuditResult ValidateCompiledRegex(const CompiledRegex& cr);

/// Every word of the atom (a, s, t) has length <= max_len. Decided from the
/// sets of states reachable from s in exactly L steps, for L in
/// (max_len, max_len + |states|]: a longer word exists iff t is in one of
/// them, since a run past that range repeats a state after max_len and can
/// be shortened.
AuditResult ValidateWordLengthBound(const Semiautomaton& a, uint32_t s,
                                    uint32_t t, std::size_t max_len);

}  // namespace gqc

#endif  // GQC_AUTOMATA_VALIDATE_H_
