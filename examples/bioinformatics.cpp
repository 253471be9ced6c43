// A protein-interaction scenario (the paper's §1 motivation mentions
// protein, cellular, and drug networks). Uses *simple* UC2RPQs — the class
// the paper emphasises as dominating real query logs — with an ALCQ schema,
// exercising the §6 entailment engine and the Tp(T, Q̂) computation.

#include <cstdio>

#include "src/gqc.h"

int main() {
  using namespace gqc;
  Vocabulary vocab;

  // Schema: every enzyme catalyses at least one reaction; reaction targets
  // of `catalyses` are Reactions; a complex binds at most 2 cofactors.
  auto schema_or = ParseTBox(
      "Enzyme <= exists catalyses.Reaction\n"
      "top <= forall catalyses.Reaction\n"
      "Complex <= atmost 2 binds.Cofactor\n"
      "Enzyme and Reaction <= bottom",
      &vocab);
  if (!schema_or.ok()) {
    std::printf("schema error: %s\n", schema_or.error().c_str());
    return 1;
  }
  TBox schema = schema_or.value();
  NormalTBox normal = Normalize(schema, &vocab);
  std::printf("fragment: %s\n\n", DlFragmentName(normal.Fragment()));

  ContainmentChecker checker(&vocab);

  // Simple queries: interaction reachability via (binds + catalyses)*.
  auto p = ParseUcrpq("Enzyme(x)", &vocab);
  auto q = ParseUcrpq("Enzyme(x), catalyses(x, y), Reaction(y)", &vocab);
  auto r1 = checker.Decide(p.value(), q.value(), schema);
  std::printf("Enzyme(x) ⊑_S Enzyme ∧ catalyses ∧ Reaction : %s (%s)\n",
              VerdictName(r1.verdict), r1.attr.strategy.c_str());

  auto star_p = ParseUcrpq("Enzyme(x), ((binds + catalyses)*)(x, y), Cofactor(y)",
                           &vocab);
  auto star_q = ParseUcrpq("((binds + catalyses)*)(x, y)", &vocab);
  auto r2 = checker.Decide(star_p.value(), star_q.value(), schema);
  std::printf("cofactor-reachability ⊑_S plain reachability : %s\n",
              VerdictName(r2.verdict));

  // Tp(T, Q̂) (§3) on the participation core of the schema — the maximal
  // types realizable in finite models of T that refute Q. (The full schema's
  // type space is over the engine budget; the core keeps one counting pair,
  // which is what the engine recursion peels.)
  auto core_or = ParseTBox(
      "Enzyme <= exists catalyses.Reaction\n"
      "Enzyme and Reaction <= bottom",
      &vocab);
  NormalTBox core = Normalize(core_or.value(), &vocab);
  auto avoid = ParseUcrpq("Deprecated(x)", &vocab);
  auto closure_or =
      ComputeTpClosure(avoid.value(), core, /*alcq_case=*/true, &vocab, {});
  if (closure_or.ok()) {
    const TpClosure& c = closure_or.value();
    std::printf("\nTp(T_core, Q̂) for Q = Deprecated(x): %zu realizable maximal "
                "types over %zu labels%s\n",
                c.engine_masks.size(), c.engine_space.arity(),
                c.engine_capped ? " (budget hit)" : "");
    // Spot-check: no realizable type may carry Deprecated.
    std::size_t dep = c.engine_space.PositionOf(vocab.ConceptId("Deprecated"));
    std::size_t bad = 0;
    for (uint64_t m : c.engine_masks) {
      if (dep != TypeSpace::npos && ((m >> dep) & 1)) ++bad;
    }
    std::printf("types carrying Deprecated (must be 0): %zu\n", bad);
  }
  return 0;
}
