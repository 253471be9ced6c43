// Quickstart: parse a schema and two queries, decide containment both ways,
// and inspect the countermodel when containment fails.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_quickstart

#include <cstdio>

#include "src/gqc.h"

int main() {
  using namespace gqc;
  Vocabulary vocab;

  // A schema in the textual concept syntax: every `manages` edge points to
  // an Employee, and every Manager manages someone.
  auto schema = ParseTBox(
      "top <= forall manages.Employee\n"
      "Manager <= exists manages.Employee\n"
      "Manager and Intern <= bottom",
      &vocab);
  if (!schema.ok()) {
    std::printf("schema error: %s\n", schema.error().c_str());
    return 1;
  }

  // Two queries: p retrieves manages-edges, q additionally asks for the
  // Employee label on the target.
  auto p = ParseUcrpq("p(x, y) :- manages(x, y)", &vocab);
  auto q = ParseUcrpq("q(x, y) :- manages(x, y), Employee(y)", &vocab);
  if (!p.ok() || !q.ok()) {
    std::printf("query error\n");
    return 1;
  }

  ContainmentChecker checker(&vocab);

  // Modulo the schema the extra atom is free: p ⊑_T q.
  ContainmentResult forward = checker.Decide(p.value(), q.value(), schema.value());
  std::printf("p ⊑_T q : %s  (strategy: %s)\n", VerdictName(forward.verdict),
              forward.attr.strategy.c_str());

  // Without the schema it fails, with a concrete countermodel.
  TBox empty;
  ContainmentResult no_schema = checker.Decide(p.value(), q.value(), empty);
  std::printf("p ⊑ q   : %s  (strategy: %s)\n", VerdictName(no_schema.verdict),
              no_schema.attr.strategy.c_str());
  if (no_schema.countermodel.has_value()) {
    std::printf("countermodel:\n%s",
                ToDot(*no_schema.countermodel, vocab).c_str());
  }
  return 0;
}
