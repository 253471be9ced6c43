#include "src/core/sparse.h"

#include <algorithm>
#include <numeric>

#include "src/core/validate.h"
#include "src/query/eval.h"
#include "src/util/invariant.h"

namespace gqc {

namespace {

/// Builds the quotient of `g` under the partition `block_of` (node -> block).
Graph Quotient(const Graph& g, const std::vector<uint32_t>& block_of,
               uint32_t blocks) {
  Graph out;
  // lint: bounded(linear in the block count of the at-most-8-node quotient)
  for (uint32_t b = 0; b < blocks; ++b) out.AddNode();
  // lint: bounded(linear in the at-most-8-node graph)
  for (NodeId v = 0; v < g.NodeCount(); ++v) {
    // lint: bounded(labels of a single node)
    for (uint32_t id : g.Labels(v).ToIds()) out.AddLabel(block_of[v], id);
  }
  g.ForEachEdge([&](const Edge& e) {
    out.AddEdge(block_of[e.from], e.role, block_of[e.to]);
  });
  return out;
}

}  // namespace

std::vector<Graph> SatisfyingQuotients(const Graph& g, const Crpq& p,
                                       std::size_t max_out) {
  std::vector<Graph> out;
  const std::size_t n = g.NodeCount();
  if (n == 0 || n > 8) {
    out.push_back(g);
    return out;
  }
  // Enumerate set partitions via restricted growth strings, coarsest block
  // id first per position so the identity partition (no merging) comes
  // first — it is the best seed and the only one kept when callers disable
  // quotients by setting max_out = 1.
  std::vector<uint32_t> rgs(n, 0);
  std::function<void(std::size_t, uint32_t)> recurse = [&](std::size_t i,
                                                           uint32_t max_used) {
    if (out.size() >= max_out) return;
    if (i == n) {
      Graph q = Quotient(g, rgs, max_used + 1);
      if (Matches(q, p)) out.push_back(std::move(q));
      return;
    }
    uint32_t highest = std::min<uint32_t>(max_used + 1, static_cast<uint32_t>(n - 1));
    // lint: bounded(n is at most 8, giving at most 4140 set partitions, further capped by max_out)
    for (uint32_t b = highest + 1; b-- > 0;) {
      rgs[i] = b;
      recurse(i + 1, std::max(max_used, b));
    }
  };
  if (n > 0) {
    rgs[0] = 0;
    recurse(1, 0);
  }
  return out;
}

CountermodelSearchResult SearchSeeds(const Crpq& p, WitnessProblem problem,
                                     const CountermodelOptions& options,
                                     const ExpansionSet* expansions) {
  ExpansionSet own;
  ExpansionPrefix seeds_from =
      GuardedExpansions(p, options.expansion, expansions, &own);
  Ucrpq p_union;
  p_union.AddDisjunct(p);
  problem.require = &p_union;

  CountermodelSearchResult result;
  bool capped = false;
  for (const Expansion& exp : seeds_from) {
    if (GuardExhausted(options.limits)) {
      capped = true;
      break;
    }
    std::vector<Graph> seeds =
        SatisfyingQuotients(exp.graph, p, options.max_quotients);
    if (seeds.size() >= options.max_quotients || exp.graph.NodeCount() > 8) {
      capped = true;
    }
    // lint: bounded(seeds are capped by max_quotients; FindWitness polls the shared guard per step)
    for (const Graph& seed : seeds) {
      problem.seed = &seed;
      WitnessResult w = FindWitness(problem, options.limits);
      if (w.answer == EngineAnswer::kYes) {
        result.answer = EngineAnswer::kYes;
        result.witness = std::move(w.witness);
        return result;
      }
      if (w.answer == EngineAnswer::kUnknown) capped = true;
    }
  }
  result.answer = (seeds_from.exhaustive && !capped) ? EngineAnswer::kNo
                                                     : EngineAnswer::kUnknown;
  return result;
}

CountermodelSearchResult FindCountermodel(const Crpq& p, const Ucrpq& q,
                                          const NormalTBox& tbox,
                                          const CountermodelOptions& options,
                                          const ExpansionSet* expansions) {
  // Support: T, p, q concepts.
  std::vector<uint32_t> ids = tbox.ConceptIds();
  // lint: bounded(mentioned concepts of q, linear in query size)
  for (uint32_t id : q.MentionedConcepts()) ids.push_back(id);
  // lint: bounded(mentioned concepts of p, linear in query size)
  for (uint32_t id : p.MentionedConcepts()) ids.push_back(id);
  TypeSpace space{std::move(ids)};

  WitnessProblem problem;
  problem.space = &space;
  problem.tbox = &tbox;
  problem.forbid = &q;
  CountermodelSearchResult result =
      SearchSeeds(p, problem, options, expansions);
  // The witness search claims G ⊨ T, G ⊨ p, G ⊭ q; re-check through the
  // independent model checker / evaluator before the claim propagates into a
  // kNotContained verdict.
  if (result.witness.has_value()) {
    GQC_AUDIT(ValidateCountermodel(*result.witness, p, q, tbox));
  }
  return result;
}

}  // namespace gqc
