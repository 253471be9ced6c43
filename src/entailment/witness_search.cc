#include "src/entailment/witness_search.h"

#include <algorithm>
#include <memory>

#include "src/dl/model_check.h"
#include "src/entailment/compile_memo.h"
#include "src/query/eval.h"
#include "src/util/flat_map.h"
#include "src/util/invariant.h"

namespace gqc {

namespace {

class WitnessSearch {
 public:
  WitnessSearch(const WitnessProblem& problem, const EngineLimits& limits)
      : p_(problem), limits_(limits), space_(*problem.space) {}

  WitnessResult Run() {
    if (space_.arity() > limits_.max_support_bits) {
      return {EngineAnswer::kUnknown, std::nullopt};
    }
    roles_ = p_.roles.empty() ? p_.tbox->RoleIds() : p_.roles;

    // Enumerate admissible masks once. This scan is 2^arity work, so it is
    // charged in bulk up front; the Boolean CIs and Θ are compiled to word
    // masks once instead of being re-walked per enumerated mask.
    if (GuardCharge(limits_, space_.mask_count())) {
      return {EngineAnswer::kUnknown, std::nullopt};
    }
    std::shared_ptr<const CompiledBooleanCis> boolean_cis;
    std::shared_ptr<const CompiledTheta> theta;
    if (limits_.compile_memo != nullptr) {
      boolean_cis = limits_.compile_memo->GetBooleanCis(space_, *p_.tbox);
      theta = limits_.compile_memo->GetTheta(space_, p_.theta);
    } else {
      boolean_cis = std::make_shared<const CompiledBooleanCis>(space_, *p_.tbox);
      theta = std::make_shared<const CompiledTheta>(space_, p_.theta);
    }
    // lint: bounded(the 2^arity scan is billed in bulk just above)
    for (uint64_t mask = 0; mask < space_.mask_count(); ++mask) {
      if (!boolean_cis->Satisfies(mask)) continue;
      if (!theta->Respects(mask)) continue;
      masks_.push_back(mask);
    }
    if (masks_.empty()) return {EngineAnswer::kNo, std::nullopt};

    // Edge-admissibility guards (forall/at-most CIs) with their lhs
    // conjunctions compiled to word masks, hoisted out of the search.
    // lint: bounded(linear in the TBox CIs)
    for (const auto& ci : p_.tbox->Cis()) {
      if (ci.kind != NormalCi::Kind::kForall && ci.kind != NormalCi::Kind::kAtMost) {
        continue;
      }
      guards_.push_back({&ci, CompiledLiterals(space_, ci.lhs),
                         space_.PositionOf(ci.rhs_lit.concept_id()),
                         ci.rhs_lit.is_negative()});
    }
    if (p_.deferral.has_value() && p_.deferral->allowed_masks != nullptr) {
      deferred_masks_.Reserve(p_.deferral->allowed_masks->size());
      // lint: bounded(linear in the allowed stub masks)
      for (uint64_t m : *p_.deferral->allowed_masks) deferred_masks_.Insert(m);
    }

    // Initial states: either completions of the seed or a single tau-node.
    if (p_.seed != nullptr) {
      PrepareSeed();
      std::vector<uint64_t> node_masks;
      if (SeedStates(&node_masks, 0)) {
        return {EngineAnswer::kYes, std::move(found_)};
      }
    } else {
      for (uint64_t mask : masks_) {
        if (!space_.MaskContains(mask, p_.tau)) continue;
        Graph g = MaterializeNode(space_, mask);
        std::vector<uint64_t> node_masks{mask};
        if (Search(g, node_masks)) return {EngineAnswer::kYes, std::move(found_)};
        if (OutOfBudget()) break;
      }
    }
    return {hit_cap_ ? EngineAnswer::kUnknown : EngineAnswer::kNo, std::nullopt};
  }

 private:
  bool OutOfBudget() {
    if (steps_ > limits_.max_search_steps || GuardExhausted(limits_)) {
      hit_cap_ = true;
      return true;
    }
    return false;
  }

  /// Once per search: the support bits each seed node's labels need (none
  /// when a label lies outside the support, so no mask covers it), and the
  /// completion graph — the seed's nodes and edges, relabelled in place for
  /// every completion.
  void PrepareSeed() {
    const Graph& seed = *p_.seed;
    // lint: bounded(linear in the seed nodes)
    for (NodeId v = 0; v < seed.NodeCount(); ++v) {
      uint64_t need = 0;
      bool coverable = true;
      // lint: bounded(labels of a single node)
      for (uint32_t id : seed.Labels(v).ToIds()) {
        std::size_t pos = space_.PositionOf(id);
        if (pos == TypeSpace::npos) {
          coverable = false;
          break;
        }
        need |= uint64_t{1} << pos;
      }
      seed_need_.push_back(coverable ? std::optional<uint64_t>(need) : std::nullopt);
      completion_.AddNode();
    }
    seed.ForEachEdge([&](const Edge& e) { completion_.AddEdge(e.from, e.role, e.to); });
  }

  /// Recursively completes the seed's node labels to full masks, then runs
  /// the main search on each completion.
  bool SeedStates(std::vector<uint64_t>* node_masks, NodeId v) {
    const Graph& seed = *p_.seed;
    if (v == seed.NodeCount()) {
      // lint: bounded(linear in the seed nodes)
      for (NodeId u = 0; u < seed.NodeCount(); ++u) {
        LabelSet& labels = completion_.MutableLabels(u);
        // lint: bounded(linear in the support arity)
        for (std::size_t i = 0; i < space_.arity(); ++i) {
          if (((*node_masks)[u] >> i) & 1) {
            labels.Add(space_.support()[i]);
          } else {
            labels.Remove(space_.support()[i]);
          }
        }
      }
      // Search leaves the graph and the masks as it found them unless it
      // succeeds.
      bool found = Search(completion_, *node_masks);
      GQC_DCHECK(found || (completion_.NodeCount() == seed.NodeCount() &&
                           completion_.EdgeCount() == seed.EdgeCount() &&
                           node_masks->size() == seed.NodeCount()));
      return found;
    }
    if (!seed_need_[v].has_value()) return false;
    const uint64_t need = *seed_need_[v];
    for (uint64_t mask : masks_) {
      if ((mask & need) != need) continue;
      node_masks->push_back(mask);
      if (SeedStates(node_masks, v + 1)) return true;
      node_masks->pop_back();
      if (OutOfBudget()) return false;
    }
    return false;
  }

  /// True iff adding edge (u, role, w) keeps all forall/at-most CIs intact.
  /// Uses the precompiled guards: lhs applicability and the rhs literal are
  /// word tests against the node masks instead of per-literal binary
  /// searches.
  bool EdgeAdmissible(const Graph& g, const std::vector<uint64_t>& node_masks,
                      NodeId u, uint32_t role, NodeId w) {
    if (g.HasEdge(u, role, w)) return false;
    auto rhs_holds = [&](NodeId v, const GuardCi& gc) {
      if (gc.rhs_pos == TypeSpace::npos) return gc.rhs_negative;
      bool set = (node_masks[v] >> gc.rhs_pos) & 1;
      return gc.rhs_negative ? !set : set;
    };
    // lint: bounded(linear in the TBox CIs)
    for (const GuardCi& gc : guards_) {
      const NormalCi& ci = *gc.ci;
      if (ci.kind == NormalCi::Kind::kForall) {
        // The new edge is an r-edge u->w, i.e. a Forward(role) successor of u
        // and an Inverse(role) successor of w.
        if (ci.role == Role::Forward(role) && gc.lhs.Holds(node_masks[u]) &&
            !rhs_holds(w, gc)) {
          return false;
        }
        if (ci.role == Role::Inverse(role) && gc.lhs.Holds(node_masks[w]) &&
            !rhs_holds(u, gc)) {
          return false;
        }
      } else {  // kAtMost
        auto violates = [&](NodeId src, NodeId dst, Role r) {
          if (!(ci.role == r) || !gc.lhs.Holds(node_masks[src])) return false;
          if (!rhs_holds(dst, gc)) return false;
          return CountSuccessors(g, src, r, ci.rhs_lit) + 1 > ci.n;
        };
        if (violates(u, w, Role::Forward(role))) return false;
        if (violates(w, u, Role::Inverse(role))) return false;
      }
    }
    return true;
  }

  /// True if node `v` currently qualifies as a deferred shared stub
  /// (Lemma 3.5): allowed mask, exactly one incident edge, and no outgoing
  /// edges when the policy forbids them.
  bool IsDeferred(const Graph& g, const std::vector<uint64_t>& node_masks,
                  NodeId v) const {
    if (!p_.deferral.has_value()) return false;
    const auto& policy = *p_.deferral;
    if (!deferred_masks_.Contains(node_masks[v])) return false;
    if (g.Degree(v) != 1) return false;
    if (policy.forbid_outgoing && !g.OutEdges(v).empty()) return false;
    return true;
  }

  /// Finds the first at-least violation, or nullopt if the graph satisfies
  /// the TBox (forall/at-most hold by edge-addition discipline; Boolean by
  /// mask choice; seeds are re-checked here too). At-least violations at
  /// deferred stubs are skipped.
  struct Obligation {
    NodeId node;
    std::size_t ci_index;
  };
  std::optional<Obligation> FirstObligation(const Graph& g,
                                            const std::vector<uint64_t>& node_masks) {
    // lint: bounded(linear in the TBox CIs)
    for (std::size_t i = 0; i < p_.tbox->Cis().size(); ++i) {
      bool at_least = p_.tbox->Cis()[i].kind == NormalCi::Kind::kAtLeast;
      // lint: bounded(linear in the graph nodes)
      for (NodeId v = 0; v < g.NodeCount(); ++v) {
        if (NodeSatisfiesCi(g, v, p_.tbox->Cis()[i])) continue;
        if (at_least && IsDeferred(g, node_masks, v)) continue;
        return Obligation{v, i};
      }
    }
    return std::nullopt;
  }

  bool Search(Graph& g, std::vector<uint64_t>& node_masks) {
    if (OutOfBudget()) return false;
    ++steps_;
    if (GuardCharge(limits_)) {
      hit_cap_ = true;
      return false;
    }
    if (p_.forbid != nullptr && Matches(g, *p_.forbid)) return false;

    // Memoize visited states (approximate canonical form): the node masks,
    // then the packed edges in (from, role, to) order.
    std::vector<uint64_t> key;
    key.reserve(g.NodeCount() + g.EdgeCount());
    key.assign(node_masks.begin(), node_masks.end());
    g.ForEachEdge([&](const Edge& e) {
      key.push_back((uint64_t{e.from} << 40) | (uint64_t{e.role} << 20) | e.to);
    });
    std::sort(key.begin() + static_cast<std::ptrdiff_t>(g.NodeCount()), key.end());
    const std::size_t key_words = key.size();
    if (!visited_.Insert(std::move(key))) return false;
    // The memo set is the one structure that grows without bound with the
    // search; its keys carry the memory estimate.
    if (limits_.guard != nullptr &&
        limits_.guard->ChargeMemory(limits_.guard_phase,
                                    key_words * sizeof(uint64_t))) {
      hit_cap_ = true;
      return false;
    }

    auto obligation = FirstObligation(g, node_masks);
    if (!obligation.has_value()) {
      if (p_.require != nullptr && !Matches(g, *p_.require)) return false;
      if (!p_.tau.Literals().empty()) {
        bool realized = false;
        // lint: bounded(linear in the graph nodes)
        for (NodeId v = 0; v < g.NodeCount(); ++v) {
          if (space_.MaskContains(node_masks[v], p_.tau)) realized = true;
        }
        if (!realized) return false;
      }
      found_ = g;
      return true;
    }

    const NormalCi& ci = p_.tbox->Cis()[obligation->ci_index];
    if (ci.kind != NormalCi::Kind::kAtLeast) {
      // A forall/at-most/Boolean violation in a seeded start (edges given to
      // us rather than added by the discipline): dead state.
      return false;
    }
    NodeId v = obligation->node;

    // Repair: add one more r-successor with the filler literal, either by
    // linking to an existing node or by creating a fresh one.
    for (NodeId w = 0; w < g.NodeCount(); ++w) {
      if (!TryEdgeRepair(g, node_masks, v, ci, w)) continue;
      if (Search(g, node_masks)) return true;
      UndoEdge(g, v, ci, w);
      if (OutOfBudget()) return false;
    }
    if (g.NodeCount() < limits_.max_witness_nodes) {
      for (uint64_t mask : masks_) {
        if (!MaskHasLiteral(mask, ci.rhs_lit)) continue;
        NodeId w = AddMaskNode(&g, space_, mask);
        node_masks.push_back(mask);
        if (TryEdgeRepair(g, node_masks, v, ci, w)) {
          if (Search(g, node_masks)) return true;
          UndoEdge(g, v, ci, w);
        }
        RemoveLastNode(&g, &node_masks);
        if (OutOfBudget()) return false;
      }
    } else {
      hit_cap_ = true;
    }
    return false;
  }

  bool MaskHasLiteral(uint64_t mask, Literal l) {
    std::size_t pos = space_.PositionOf(l.concept_id());
    if (pos == TypeSpace::npos) return l.is_negative();
    bool set = (mask >> pos) & 1;
    return l.is_negative() ? !set : set;
  }

  bool TryEdgeRepair(Graph& g, const std::vector<uint64_t>& node_masks, NodeId v,
                     const NormalCi& ci, NodeId w) {
    if (!MaskHasLiteral(node_masks[w], ci.rhs_lit)) return false;
    NodeId from = ci.role.is_inverse() ? w : v;
    NodeId to = ci.role.is_inverse() ? v : w;
    if (!EdgeAdmissible(g, node_masks, from, ci.role.name_id(), to)) return false;
    g.AddEdge(from, ci.role.name_id(), to);
    return true;
  }

  void UndoEdge(Graph& g, NodeId v, const NormalCi& ci, NodeId w) {
    NodeId from = ci.role.is_inverse() ? w : v;
    NodeId to = ci.role.is_inverse() ? v : w;
    g.RemoveEdge(from, ci.role.name_id(), to);
  }

  void RemoveLastNode(Graph* g, std::vector<uint64_t>* node_masks) {
    // Nodes are only removed right after creation, with no incident edges
    // left (edges added during the repair were undone).
    g->PopNode();
    node_masks->pop_back();
  }

  struct GuardCi {
    const NormalCi* ci = nullptr;
    CompiledLiterals lhs;
    std::size_t rhs_pos = TypeSpace::npos;
    bool rhs_negative = false;
  };

  const WitnessProblem& p_;
  const EngineLimits& limits_;
  const TypeSpace& space_;
  std::vector<uint32_t> roles_;
  std::vector<uint64_t> masks_;
  /// Per seed node: the support bits its labels need, or nullopt if no
  /// mask can cover them.
  std::vector<std::optional<uint64_t>> seed_need_;
  Graph completion_;
  std::vector<GuardCi> guards_;
  FlatSet<uint64_t> deferred_masks_;
  /// Visited search states (approximate canonical forms). The flat set
  /// probes by hash — one word compare per probe step — instead of
  /// lexicographically comparing key vectors down a red-black tree.
  FlatSet<std::vector<uint64_t>> visited_;
  std::size_t steps_ = 0;
  bool hit_cap_ = false;
  std::optional<Graph> found_;
};

}  // namespace

WitnessResult FindWitness(const WitnessProblem& problem, const EngineLimits& limits) {
  WitnessResult result = WitnessSearch(problem, limits).Run();
  // Definite witnesses are re-verified against the exact checkers. With a
  // deferral policy the witness is only the central part of a star-like
  // countermodel, so at-least CIs are exempt from the re-check (the stubs'
  // needs are met by peripheral parts).
  if (result.answer == EngineAnswer::kYes && result.witness.has_value()) {
    bool ok = true;
    if (problem.deferral.has_value()) {
      NormalTBox without_at_least;
      // lint: bounded(linear in the TBox CIs)
      for (const auto& ci : problem.tbox->Cis()) {
        if (ci.kind != NormalCi::Kind::kAtLeast) without_at_least.Add(ci);
      }
      ok = Satisfies(*result.witness, without_at_least);
    } else {
      ok = Satisfies(*result.witness, *problem.tbox);
    }
    if (problem.forbid != nullptr) ok = ok && !Matches(*result.witness, *problem.forbid);
    if (problem.require != nullptr) ok = ok && Matches(*result.witness, *problem.require);
    if (!ok) result.answer = EngineAnswer::kUnknown;  // should not happen
  }
  return result;
}

}  // namespace gqc
