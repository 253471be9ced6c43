// The per-decision expansion set is built once without a guard and replayed
// by guarded consumers. These tests pin that a replay is indistinguishable
// from a fresh guarded enumeration at every step budget: same graphs in the
// same order, same `exhaustive`, same guard spend and trip.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/strategy.h"
#include "src/query/canonical.h"
#include "src/query/parser.h"

namespace gqc {
namespace {

class ExpansionReplayTest : public ::testing::Test {
 protected:
  Crpq Q(const std::string& text) {
    auto r = ParseCrpq(text, &vocab_);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.value();
  }

  /// For every step budget from 0 (unlimited) to one past the enumeration's
  /// total, a guarded replay of the unguarded set equals a fresh guarded
  /// CanonicalExpansions.
  static void ExpectReplayIsStepExact(const Crpq& p, const ExpansionOptions& bounds,
                                      GuardPhase phase) {
    const ExpansionSet shared = CanonicalExpansions(p, bounds);
    for (uint64_t steps = 0; steps <= shared.candidates + 1; ++steps) {
      SCOPED_TRACE("step budget " + std::to_string(steps));
      ResourceBudget budget;
      budget.max_steps = steps;
      ResourceGuard fresh_guard(budget);
      ResourceGuard replay_guard(budget);
      ExpansionOptions fresh_options = bounds;
      fresh_options.guard = &fresh_guard;
      fresh_options.guard_phase = phase;
      ExpansionOptions replay_options = fresh_options;
      replay_options.guard = &replay_guard;

      const ExpansionSet fresh = CanonicalExpansions(p, fresh_options);
      const ExpansionPrefix replay =
          GuardedExpansions(p, replay_options, &shared, /*own=*/nullptr);

      ASSERT_EQ(replay.count, fresh.expansions.size());
      std::size_t i = 0;
      for (const Expansion& e : replay) {
        EXPECT_TRUE(e.graph == fresh.expansions[i].graph) << "expansion " << i;
        EXPECT_EQ(e.var_nodes, fresh.expansions[i].var_nodes);
        ++i;
      }
      EXPECT_EQ(replay.exhaustive, fresh.exhaustive);
      EXPECT_EQ(replay_guard.steps_spent(), fresh_guard.steps_spent());
      EXPECT_EQ(replay_guard.steps_spent(phase), fresh_guard.steps_spent(phase));
      EXPECT_EQ(replay_guard.exhausted(), fresh_guard.exhausted());
      EXPECT_EQ(replay_guard.reason(), fresh_guard.reason());
      if (fresh_guard.exhausted()) {
        EXPECT_EQ(replay_guard.trip_phase(), fresh_guard.trip_phase());
      }
    }
  }

  Vocabulary vocab_;
};

TEST_F(ExpansionReplayTest, CappedSetReplaysExactly) {
  // Two stars over a two-letter alphabet: far more words than the cap.
  Crpq p = Q("(r + s)*(x, y), (r + s)*(y, z)");
  ExpansionOptions bounds;
  bounds.max_expansions = 64;
  ExpansionSet set = CanonicalExpansions(p, bounds);
  ASSERT_EQ(set.expansions.size(), 64u);
  ASSERT_FALSE(set.exhaustive);
  ExpectReplayIsStepExact(p, bounds, GuardPhase::kDirect);
}

TEST_F(ExpansionReplayTest, PostCheckDropsReplayExactly) {
  // s.[!A] lands on y, which A(y) labels A: those candidates fail the
  // post-check and leave gaps in the candidate numbering.
  Crpq p = Q("(r + s . [!A])(x, y), A(y), (r + s)(y, z)");
  ExpansionSet set = CanonicalExpansions(p, {});
  ASSERT_GT(set.candidates, set.expansions.size());
  ASSERT_FALSE(set.expansions.empty());
  ASSERT_TRUE(set.exhaustive);
  ExpectReplayIsStepExact(p, {}, GuardPhase::kReduction);
}

TEST_F(ExpansionReplayTest, UnsatisfiableAtomReplaysExactly) {
  // An atom between two states no transition connects has no words at all.
  Crpq p = Q("r(x, y)");
  auto automaton = std::make_shared<Semiautomaton>(p.Automaton());
  uint32_t from = automaton->AddState();
  uint32_t to = automaton->AddState();
  p.SetAutomaton(automaton);
  BinaryAtom dead;
  dead.y = 1;
  dead.z = 0;
  dead.start = from;
  dead.end = to;
  p.AddBinary(dead);
  ExpansionSet set = CanonicalExpansions(p, {});
  ASSERT_TRUE(set.expansions.empty());
  ASSERT_EQ(set.candidates, 0u);
  ExpectReplayIsStepExact(p, {}, GuardPhase::kDirect);
}

TEST_F(ExpansionReplayTest, DecisionSetIsSharedOnlyUnderItsBounds) {
  Crpq p = Q("(r . s*)(x, y), B(y)");
  ExpansionOptions bounds;
  DecisionExpansions expansions(p, bounds);
  const ExpansionSet* set = expansions.For(bounds);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(expansions.For(bounds), set) << "built once";
  ExpansionSet fresh = CanonicalExpansions(p, bounds);
  ASSERT_EQ(set->expansions.size(), fresh.expansions.size());
  EXPECT_EQ(set->exhaustive, fresh.exhaustive);
  ExpansionOptions deeper = bounds;
  deeper.max_word_length += 2;
  EXPECT_EQ(expansions.For(deeper), nullptr);
  ExpansionOptions capped = bounds;
  capped.max_expansions = 1;
  EXPECT_EQ(expansions.For(capped), nullptr);
}

}  // namespace
}  // namespace gqc
