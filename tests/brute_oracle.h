// Shared helpers for the differential-oracle suites: a deterministic
// small-instance generator and a brute-force small-model enumerator that is
// independent of every search/entailment component under test (it only uses
// the Graph container, the TBox model checker, and query evaluation).
//
// The brute-force oracle decides "is a node of type τ realized in some
// finite model of T refuting Q?" restricted to models with at most
// `max_nodes` nodes. Its YES answers are definite (it returns the model);
// its NO answers only claim "no such model with <= max_nodes nodes", so a
// search engine's YES with a larger witness does not contradict it — but a
// search YES whose witness fits the bound, or any engine NO against a
// brute-force YES, is a real bug.

#ifndef GQC_TESTS_BRUTE_ORACLE_H_
#define GQC_TESTS_BRUTE_ORACLE_H_

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/dl/model_check.h"
#include "src/dl/tbox.h"
#include "src/graph/graph.h"
#include "src/query/eval.h"
#include "src/query/ucrpq.h"

namespace gqc {
namespace testing_oracle {

struct GeneratedInstance {
  std::string tbox_text;
  std::string query_text;
  std::string tau_concept;
};

/// Deterministic small-instance generator over concepts {A, B, C} and the
/// role r: a few CIs of mixed shapes plus a simple query.
inline GeneratedInstance Generate(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::initializer_list<const char*> xs) {
    auto it = xs.begin();
    std::advance(it, rng() % xs.size());
    return std::string(*it);
  };
  GeneratedInstance out;
  int cis = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < cis; ++i) {
    switch (rng() % 4) {
      case 0:
        out.tbox_text += pick({"A", "B", "C"}) + " <= " + pick({"A", "B", "C"}) + "\n";
        break;
      case 1:
        out.tbox_text +=
            pick({"A", "B"}) + " <= exists r." + pick({"B", "C"}) + "\n";
        break;
      case 2:
        out.tbox_text +=
            "top <= forall r." + pick({"B", "C"}) + "\n";
        break;
      case 3:
        out.tbox_text += pick({"A", "B"}) + " and " + pick({"B", "C"}) +
                         " <= bottom\n";
        break;
    }
  }
  switch (rng() % 4) {
    case 0:
      out.query_text = pick({"A", "B", "C"}) + "(x)";
      break;
    case 1:
      out.query_text = "r(x, y), " + pick({"A", "B", "C"}) + "(y)";
      break;
    case 2:
      out.query_text = pick({"A", "B"}) + "(x), r(x, y)";
      break;
    case 3:
      out.query_text = "(r*)(x, y), " + pick({"B", "C"}) + "(y)";
      break;
  }
  out.tau_concept = pick({"A", "B", "C"});
  return out;
}

struct BruteForceAnswer {
  /// True: a model with <= max_nodes nodes realizes tau, satisfies the TBox,
  /// and refutes the query (returned in `model`). False: no such model of
  /// that size exists — says nothing about larger models.
  bool found = false;
  std::optional<Graph> model;
};

/// Enumerates every graph with 1..max_nodes nodes, node labels drawn from
/// `concepts` and edges of every role in `roles` (self-loops allowed), and
/// returns the first for which `found` holds. A labeling `keep_labels`
/// rejects (called on the edgeless graph) is skipped with all its edge sets.
/// Uses only the Graph container.
template <typename KeepLabels, typename Found>
std::optional<Graph> FirstSmallGraph(const std::vector<uint32_t>& concepts,
                                     const std::vector<uint32_t>& roles,
                                     std::size_t max_nodes,
                                     KeepLabels keep_labels, Found found) {
  for (std::size_t n = 1; n <= max_nodes; ++n) {
    const std::size_t label_masks = std::size_t{1} << concepts.size();
    const std::size_t edge_slots = roles.size() * n * n;
    const std::size_t edge_masks = std::size_t{1} << edge_slots;
    std::vector<std::size_t> labeling(n, 0);
    while (true) {
      Graph labels_only;
      for (std::size_t v = 0; v < n; ++v) {
        NodeId id = labels_only.AddNode();
        for (std::size_t c = 0; c < concepts.size(); ++c) {
          if (labeling[v] & (std::size_t{1} << c)) {
            labels_only.AddLabel(id, concepts[c]);
          }
        }
      }
      if (keep_labels(labels_only)) {
        for (std::size_t em = 0; em < edge_masks; ++em) {
          Graph g = labels_only;
          for (std::size_t slot = 0; slot < edge_slots; ++slot) {
            if (em & (std::size_t{1} << slot)) {
              const std::size_t pair = slot % (n * n);
              g.AddEdge(static_cast<NodeId>(pair / n), roles[slot / (n * n)],
                        static_cast<NodeId>(pair % n));
            }
          }
          if (found(g)) return g;
        }
      }
      // Next labeling (mixed-radix counter over label_masks^n).
      std::size_t v = 0;
      while (v < n && ++labeling[v] == label_masks) labeling[v++] = 0;
      if (v == n) break;
    }
  }
  return std::nullopt;
}

/// Exhaustively enumerates every graph with 1..max_nodes nodes, node labels
/// drawn from `concepts`, and directed `role_id` edges (self-loops allowed).
/// Node 0 is pinned to carry type `tau` — sound, since realization is
/// invariant under node renaming, so every pointed model is isomorphic to
/// one realizing tau at node 0.
inline BruteForceAnswer BruteForceRealizable(const Type& tau, const TBox& tbox,
                                             const Ucrpq& q,
                                             const std::vector<uint32_t>& concepts,
                                             uint32_t role_id,
                                             std::size_t max_nodes) {
  std::optional<Graph> model = FirstSmallGraph(
      concepts, {role_id}, max_nodes,
      [&](const Graph& labels) { return labels.HasType(0, tau); },
      [&](const Graph& g) { return Satisfies(g, tbox) && !Matches(g, q); });
  return {model.has_value(), std::move(model)};
}

/// A model of `tbox` of at most `max_nodes` nodes over `concepts` and
/// `roles` that satisfies P but not Q: a refutation of P ⊑_T Q (of P ⊑ Q
/// over all finite graphs, for an empty TBox).
inline std::optional<Graph> BruteForceRefutation(
    const Ucrpq& p, const Ucrpq& q, const TBox& tbox,
    const std::vector<uint32_t>& concepts, const std::vector<uint32_t>& roles,
    std::size_t max_nodes) {
  return FirstSmallGraph(
      concepts, roles, max_nodes, [](const Graph&) { return true; },
      [&](const Graph& g) {
        return Matches(g, p) && !Matches(g, q) && Satisfies(g, tbox);
      });
}

/// Independent validity check for a claimed witness: realizes tau somewhere,
/// satisfies the TBox (TBox or NormalTBox — whichever the claimant completed
/// against), refutes the query. Extra labels from normalization-fresh
/// concepts cannot affect any of the three checks.
template <typename AnyTbox>
bool IsValidWitness(const Graph& g, const Type& tau, const AnyTbox& tbox,
                    const Ucrpq& q) {
  bool realizes = false;
  for (NodeId v = 0; v < g.NodeCount() && !realizes; ++v) {
    realizes = g.HasType(v, tau);
  }
  return realizes && Satisfies(g, tbox) && !Matches(g, q);
}

}  // namespace testing_oracle
}  // namespace gqc

#endif  // GQC_TESTS_BRUTE_ORACLE_H_
