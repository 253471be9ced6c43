#include "src/dl/model_check.h"

namespace gqc {

DynamicBitset ConceptExtension(const Graph& g, const ConceptPtr& c) {
  const std::size_t n = g.NodeCount();
  DynamicBitset out(n);
  switch (c->kind) {
    case ConceptKind::kBottom:
      break;
    case ConceptKind::kTop:
      for (std::size_t v = 0; v < n; ++v) out.Set(v);
      break;
    case ConceptKind::kName:
      for (std::size_t v = 0; v < n; ++v) {
        if (g.HasLabel(static_cast<NodeId>(v), c->concept_id)) out.Set(v);
      }
      break;
    case ConceptKind::kNot: {
      DynamicBitset inner = ConceptExtension(g, c->children[0]);
      for (std::size_t v = 0; v < n; ++v) {
        if (!inner.Test(v)) out.Set(v);
      }
      break;
    }
    case ConceptKind::kAnd: {
      for (std::size_t v = 0; v < n; ++v) out.Set(v);
      for (const auto& child : c->children) out &= ConceptExtension(g, child);
      break;
    }
    case ConceptKind::kOr: {
      for (const auto& child : c->children) out |= ConceptExtension(g, child);
      break;
    }
    case ConceptKind::kExists:
    case ConceptKind::kForall:
    case ConceptKind::kAtLeast:
    case ConceptKind::kAtMost: {
      DynamicBitset inner = ConceptExtension(g, c->children[0]);
      for (std::size_t v = 0; v < n; ++v) {
        std::size_t count = 0;
        std::size_t total = 0;
        g.ForEachSuccessor(static_cast<NodeId>(v), c->role, [&](NodeId w) {
          ++total;
          if (inner.Test(w)) ++count;
        });
        bool holds = false;
        switch (c->kind) {
          case ConceptKind::kExists:
            holds = count >= 1;
            break;
          case ConceptKind::kForall:
            holds = count == total;
            break;
          case ConceptKind::kAtLeast:
            holds = count >= c->n;
            break;
          case ConceptKind::kAtMost:
            holds = count <= c->n;
            break;
          default:
            break;
        }
        if (holds) out.Set(v);
      }
      break;
    }
  }
  return out;
}

bool Satisfies(const Graph& g, const TBox& tbox) {
  for (const auto& ci : tbox.Cis()) {
    DynamicBitset lhs = ConceptExtension(g, ci.lhs);
    DynamicBitset rhs = ConceptExtension(g, ci.rhs);
    if (!lhs.IsSubsetOf(rhs)) return false;
  }
  return true;
}

std::size_t CountSuccessors(const Graph& g, NodeId v, Role r, Literal l) {
  std::size_t count = 0;
  g.ForEachSuccessor(v, r, [&](NodeId w) {
    if (g.SatisfiesLiteral(w, l)) ++count;
  });
  return count;
}

bool NodeSatisfiesCi(const Graph& g, NodeId v, const NormalCi& ci) {
  for (Literal l : ci.lhs) {
    if (!g.SatisfiesLiteral(v, l)) return true;  // lhs not applicable
  }
  switch (ci.kind) {
    case NormalCi::Kind::kBoolean: {
      for (Literal l : ci.rhs) {
        if (g.SatisfiesLiteral(v, l)) return true;
      }
      return false;
    }
    case NormalCi::Kind::kForall: {
      bool all = true;
      g.ForEachSuccessor(v, ci.role, [&](NodeId w) {
        all = all && g.SatisfiesLiteral(w, ci.rhs_lit);
      });
      return all;
    }
    case NormalCi::Kind::kAtLeast:
      return CountSuccessors(g, v, ci.role, ci.rhs_lit) >= ci.n;
    case NormalCi::Kind::kAtMost:
      return CountSuccessors(g, v, ci.role, ci.rhs_lit) <= ci.n;
  }
  return true;
}

std::vector<Violation> FindViolations(const Graph& g, const NormalTBox& tbox) {
  std::vector<Violation> out;
  for (std::size_t i = 0; i < tbox.Cis().size(); ++i) {
    for (NodeId v = 0; v < g.NodeCount(); ++v) {
      if (!NodeSatisfiesCi(g, v, tbox.Cis()[i])) out.push_back({v, i});
    }
  }
  return out;
}

bool Satisfies(const Graph& g, const NormalTBox& tbox) {
  for (const auto& ci : tbox.Cis()) {
    for (NodeId v = 0; v < g.NodeCount(); ++v) {
      if (!NodeSatisfiesCi(g, v, ci)) return false;
    }
  }
  return true;
}

bool NodeSatisfies(const Graph& g, NodeId v, const NormalTBox& tbox) {
  for (const auto& ci : tbox.Cis()) {
    if (!NodeSatisfiesCi(g, v, ci)) return false;
  }
  return true;
}

}  // namespace gqc
