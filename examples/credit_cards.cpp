// The paper's running example (Fig. 1 / Example 1.1): a credit-card schema
// where customers own cards, premier cards earn rewards from partner retail
// companies and their subsidiaries.
//
// Demonstrates:
//  - compiling a PG-Schema-style surface schema to an ALCQI TBox,
//  - the containment asymmetry q2 ⊑ q1 vs q1 ⊑ q2 without the schema,
//  - how the schema's typing constraint closes the gap (q1 ⊑_S q2),
//  - inspecting a concrete countermodel.

#include <cstdio>

#include "src/gqc.h"

int main() {
  using namespace gqc;
  Vocabulary vocab;

  TBox schema = CreditCardSchema(&vocab);
  std::printf("=== Credit-card schema (Example 1.1) ===\n%s\n",
              schema.ToString(vocab).c_str());
  NormalTBox normal = Normalize(schema, &vocab);
  std::printf("fragment: %s, participation constraints: %s\n\n",
              DlFragmentName(normal.Fragment()),
              normal.HasParticipationConstraints() ? "yes" : "no");

  // q1: customers and the companies they earn rewards from, including
  // subsidiaries; q2 additionally requires the partner to be a RetailCompany.
  auto q1 = ParseUcrpq("q1(x, y) :- (owns . earns . partner . (partof-)*)(x, y)",
                       &vocab);
  auto q2 = ParseUcrpq(
      "q2(x, y) :- (owns . earns . partner)(x, z), RetailCompany(z), "
      "(partof-)*(z, y)",
      &vocab);
  if (!q1.ok() || !q2.ok()) {
    std::printf("query parse error\n");
    return 1;
  }

  ContainmentChecker checker(&vocab);
  TBox empty;

  std::printf("--- Without the schema ---\n");
  auto r21 = checker.Decide(q2.value(), q1.value(), empty);
  std::printf("q2 ⊑ q1 : %s (%s)\n", VerdictName(r21.verdict), r21.attr.note.c_str());
  auto r12 = checker.Decide(q1.value(), q2.value(), empty);
  std::printf("q1 ⊑ q2 : %s\n", VerdictName(r12.verdict));
  if (r12.countermodel.has_value()) {
    std::printf("countermodel (partner target is not a RetailCompany):\n%s\n",
                ToDot(*r12.countermodel, vocab).c_str());
  }

  std::printf("--- Modulo the schema S ---\n");
  auto s12 = checker.Decide(q1.value(), q2.value(), schema);
  std::printf("q1 ⊑_S q2 : %s (%s)\n", VerdictName(s12.verdict), s12.attr.note.c_str());
  std::printf(
      "(the typing constraint top ⊑ ∀partner.RetailCompany makes the extra "
      "atom of q2 redundant; this two-way, non-simple combination is outside "
      "the paper's decidable fragments, so 'unknown' here means: no "
      "countermodel exists within the search budget)\n");
  auto s21 = checker.Decide(q2.value(), q1.value(), schema);
  std::printf("q2 ⊑_S q1 : %s\n", VerdictName(s21.verdict));

  // The miniature version of the same phenomenon is decided exactly.
  std::printf("\n--- Miniature (exactly decided) ---\n");
  auto mp = ParseUcrpq("partner(x, y)", &vocab);
  auto mq = ParseUcrpq("partner(x, y), RetailCompany(y)", &vocab);
  auto mini = checker.Decide(mp.value(), mq.value(), schema);
  std::printf("partner(x,y) ⊑_S partner(x,y) ∧ RetailCompany(y) : %s (%s)\n",
              VerdictName(mini.verdict), mini.attr.strategy.c_str());
  return 0;
}
