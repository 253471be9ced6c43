#ifndef GQC_QUERY_CANONICAL_H_
#define GQC_QUERY_CANONICAL_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/query/ucrpq.h"
#include "src/util/guard.h"

namespace gqc {

/// A canonical expansion of a C2RPQ: one word chosen from each binary atom's
/// language, realized as a concrete graph of fresh path nodes. Expansions
/// satisfy the query by construction (post-checked when complement literals
/// could interfere) and are the seeds for countermodel searches and for the
/// classical containment test.
struct Expansion {
  Graph graph;
  /// query variable -> node realizing it.
  std::vector<NodeId> var_nodes;
  /// Position of this expansion among the candidates the enumeration built;
  /// candidates that failed the post-check leave gaps.
  std::size_t candidate = 0;
};

struct ExpansionOptions {
  /// Maximum word length drawn from each atom's language.
  std::size_t max_word_length = 4;
  /// Global cap on the number of expansions generated.
  std::size_t max_expansions = 512;
  /// Optional resource guard; a trip stops enumeration with exhaustive=false
  /// (never a wrong "exhaustive"). Null = ungoverned.
  ResourceGuard* guard = nullptr;
  GuardPhase guard_phase = GuardPhase::kDirect;
};

struct ExpansionSet {
  std::vector<Expansion> expansions;
  /// True if every word of every atom's language was covered (no atom has a
  /// word longer than max_word_length and no cap was hit), making the set
  /// exhaustive.
  bool exhaustive = false;
  /// Candidates built, kept or not: one guard step each.
  std::size_t candidates = 0;
};

/// Enumerates canonical expansions of `q` up to the option bounds. Charges
/// the guard one step per candidate built, after checking the
/// `max_expansions` cap; a trip ends the set there, with exhaustive = false.
/// Candidates are post-checked against `q` only when `q` has a negative
/// unary literal or a negated test (without one they satisfy `q` by
/// construction).
ExpansionSet CanonicalExpansions(const Crpq& q, const ExpansionOptions& options);

/// The expansions a guarded consumer sees: the first `count` of `set`.
struct ExpansionPrefix {
  const ExpansionSet* set = nullptr;
  std::size_t count = 0;
  bool exhaustive = false;

  const Expansion* begin() const { return set->expansions.data(); }
  const Expansion* end() const { return set->expansions.data() + count; }
};

/// P's expansions exactly as CanonicalExpansions(p, options) returns them
/// under options.guard. With `shared` (CanonicalExpansions(p, ·) built
/// without a guard under the same bounds) nothing is enumerated: its guard
/// charges are replayed instead, one per candidate in order. The
/// `max_expansions` check that precedes each charge passes for every
/// candidate of `shared` by construction, so a trip at candidate k keeps the
/// expansions built before k, with exhaustive = false; without a trip the
/// whole set is seen, with its own `exhaustive`. Without `shared` the
/// enumeration runs guarded into `*own`.
ExpansionPrefix GuardedExpansions(const Crpq& p, const ExpansionOptions& options,
                                  const ExpansionSet* shared, ExpansionSet* own);

/// Enumerates the words of length <= max_len in the language of the atom
/// (a, s, t), as symbol sequences, sorted and duplicate-free. The empty word
/// is included iff allow_empty or s == t. The walk visits each distinct
/// prefix once, with the set of states it reaches that can still reach t.
/// *complete is false iff the language has a longer word or the walk stopped
/// at its cap of 100 000 prefixes; a capped walk keeps every word shorter
/// than the length it was extending to.
std::vector<std::vector<Symbol>> AtomWords(const Semiautomaton& a, uint32_t s,
                                           uint32_t t, bool allow_empty,
                                           std::size_t max_len, bool* complete);

}  // namespace gqc

#endif  // GQC_QUERY_CANONICAL_H_
