#include "src/query/eval.h"

#include <algorithm>
#include <bit>

#include "src/automata/product.h"
#include "src/util/invariant.h"

namespace gqc {

namespace {

/// The buffers of one evaluation. Each thread keeps one and reuses it, so a
/// warm Matches allocates nothing: candidate sets, relation rows, the
/// variable order and the product-search buffers all keep their capacity
/// from call to call. Bit rows are `words` 64-bit words, one bit per node.
struct EvalWorkspace {
  bool in_use = false;
  ProductBuffers product;
  std::vector<uint64_t> candidates;   // one row per variable
  std::vector<uint32_t> relation_of;  // binary atom -> relation slot
  std::vector<uint64_t> rows;         // one row per (slot, source node)
  std::vector<uint8_t> row_ready;     // (slot, source node) -> row computed
  std::vector<uint64_t> semi_join;    // two temporary rows
  std::vector<uint32_t> order;
  std::vector<uint8_t> seen;
  std::vector<NodeId> assignment;
};

thread_local EvalWorkspace tls_workspace;

/// Holds this thread's workspace for one evaluation. Evaluation never calls
/// back into itself, so a second holder on the same thread is a bug.
class WorkspaceLease {
 public:
  WorkspaceLease() : ws_(tls_workspace) {
    GQC_DCHECK(!ws_.in_use);
    ws_.in_use = true;
  }
  ~WorkspaceLease() { ws_.in_use = false; }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  EvalWorkspace& get() { return ws_; }

 private:
  EvalWorkspace& ws_;
};

bool TestBit(const uint64_t* row, std::size_t i) { return (row[i >> 6] >> (i & 63)) & 1; }

/// Index of the first set bit at or after `from` in a row of `words` words,
/// or `limit` if none below it.
std::size_t NextBit(const uint64_t* row, std::size_t words, std::size_t from,
                    std::size_t limit) {
  if (from >= limit) return limit;
  std::size_t word = from >> 6;
  uint64_t w = row[word] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (w != 0) {
      std::size_t bit = (word << 6) + static_cast<std::size_t>(std::countr_zero(w));
      return bit < limit ? bit : limit;
    }
    if (++word >= words) return limit;
    w = row[word];
  }
}

/// Candidate filtering, a semi-join over the binary atoms, and a
/// backtracking join. A binary atom's relation row for a source node is
/// computed by product reachability the first time something probes it;
/// the semi-join and the join only probe candidate sources, so rows of
/// other nodes are never built. Atoms with the same (start, end,
/// allow_empty) share one relation.
class Evaluator {
 public:
  Evaluator(const Graph& g, const Crpq& q, EvalWorkspace& ws)
      : g_(g),
        q_(q),
        ws_(ws),
        nodes_(g.NodeCount()),
        words_((g.NodeCount() + 63) / 64) {}

  /// True iff `q` has a match extending the pins; the match is then in
  /// ws_.assignment (variable -> node).
  bool Find(const std::pair<uint32_t, NodeId>* pinned, std::size_t pin_count) {
    const std::size_t vars = q_.VarCount();
    if (nodes_ == 0) return false;

    // Candidate sets per variable, from unary atoms and pins.
    ws_.candidates.assign(vars * words_, ~uint64_t{0});
    if (nodes_ % 64 != 0) {
      const uint64_t last = (uint64_t{1} << (nodes_ % 64)) - 1;
      for (std::size_t v = 0; v < vars; ++v) Cand(v)[words_ - 1] = last;
    }
    for (std::size_t i = 0; i < pin_count; ++i) {
      const auto [var, node] = pinned[i];
      if (node >= nodes_) return false;
      uint64_t* c = Cand(var);
      const bool had = TestBit(c, node);
      std::fill(c, c + words_, uint64_t{0});
      if (had) c[node >> 6] |= uint64_t{1} << (node & 63);
    }
    for (const auto& atom : q_.UnaryAtoms()) {
      uint64_t* c = Cand(atom.var);
      for (std::size_t v = 0; v < nodes_; ++v) {
        if (!g_.SatisfiesLiteral(static_cast<NodeId>(v), atom.literal)) {
          c[v >> 6] &= ~(uint64_t{1} << (v & 63));
        }
      }
    }
    if (AnyCandidateSetEmpty()) return false;

    // Relation slots: atoms with equal state signatures share one.
    const auto& atoms = q_.BinaryAtoms();
    ws_.relation_of.resize(atoms.size());
    uint32_t slots = 0;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      std::size_t j = 0;
      while (j < i && !(atoms[j].start == atoms[i].start &&
                        atoms[j].end == atoms[i].end &&
                        atoms[j].allow_empty == atoms[i].allow_empty)) {
        ++j;
      }
      ws_.relation_of[i] = j < i ? ws_.relation_of[j] : slots++;
    }
    ws_.rows.resize(std::size_t{slots} * nodes_ * words_);
    ws_.row_ready.assign(std::size_t{slots} * nodes_, 0);
    ws_.semi_join.resize(2 * words_);

    // Semi-join filtering: shrink candidates via each atom's relation, then
    // backtrack. One filtering pass is enough for correctness; repeat to a
    // small fixpoint for pruning power.
    for (int round = 0; round < 3; ++round) {
      bool changed = false;
      for (std::size_t i = 0; i < atoms.size(); ++i) changed |= SemiJoin(i);
      if (!changed) break;
      if (AnyCandidateSetEmpty()) return false;
    }

    ws_.assignment.assign(vars, kNoNode);
    ComputeVarOrder();
    return Assign(0);
  }

 private:
  uint64_t* Cand(std::size_t var) { return ws_.candidates.data() + var * words_; }

  bool AnyCandidateSetEmpty() {
    for (std::size_t v = 0; v < q_.VarCount(); ++v) {
      const uint64_t* c = Cand(v);
      if (std::all_of(c, c + words_, [](uint64_t w) { return w == 0; })) return true;
    }
    return false;
  }

  /// The relation row of binary atom `atom_idx` for source `u`, built on
  /// first use.
  const uint64_t* Row(std::size_t atom_idx, NodeId u) {
    const std::size_t at = std::size_t{ws_.relation_of[atom_idx]} * nodes_ + u;
    uint64_t* row = ws_.rows.data() + at * words_;
    if (!ws_.row_ready[at]) {
      const BinaryAtom& atom = q_.BinaryAtoms()[atom_idx];
      AtomTargetsInto(g_, q_.Automaton(), atom.start, atom.end, atom.allow_empty,
                      u, &ws_.product, row);
      ws_.row_ready[at] = 1;
    }
    return row;
  }

  /// Restricts candidates of the atom's endpoints to nodes with at least one
  /// partner in the relation. Returns true if anything shrank.
  bool SemiJoin(std::size_t atom_idx) {
    const BinaryAtom& atom = q_.BinaryAtoms()[atom_idx];
    uint64_t* cy = Cand(atom.y);
    uint64_t* cz = Cand(atom.z);
    uint64_t* new_y = ws_.semi_join.data();
    uint64_t* new_z = new_y + words_;
    std::fill(new_y, new_y + 2 * words_, uint64_t{0});
    for (std::size_t u = NextBit(cy, words_, 0, nodes_); u < nodes_;
         u = NextBit(cy, words_, u + 1, nodes_)) {
      const uint64_t* row = Row(atom_idx, static_cast<NodeId>(u));
      bool partner = false;
      for (std::size_t w = 0; w < words_; ++w) {
        const uint64_t targets = row[w] & cz[w];
        partner |= targets != 0;
        new_z[w] |= targets;
      }
      if (partner) new_y[u >> 6] |= uint64_t{1} << (u & 63);
    }
    bool changed = false;
    if (!std::equal(new_y, new_y + words_, cy)) {
      std::copy(new_y, new_y + words_, cy);
      changed = true;
    }
    // cy and cz alias when the atom loops on one variable; cz then already
    // holds new_y here, as in the semi-join's set algebra.
    for (std::size_t w = 0; w < words_; ++w) {
      const uint64_t z = cz[w] & new_z[w];
      changed |= z != cz[w];
      cz[w] = z;
    }
    return changed;
  }

  /// Variables ordered so each one (past the first per component) touches an
  /// earlier variable through some atom: breadth-first per component, with
  /// each variable's neighbours in atom order.
  void ComputeVarOrder() {
    const std::size_t vars = q_.VarCount();
    std::vector<uint32_t>& order = ws_.order;
    order.clear();
    ws_.seen.assign(vars, 0);
    auto enqueue = [&](uint32_t v) {
      if (ws_.seen[v]) return;
      ws_.seen[v] = 1;
      order.push_back(v);
    };
    for (uint32_t start = 0; start < vars; ++start) {
      if (ws_.seen[start]) continue;
      enqueue(start);
      for (std::size_t i = order.size() - 1; i < order.size(); ++i) {
        const uint32_t u = order[i];
        for (const BinaryAtom& atom : q_.BinaryAtoms()) {
          if (atom.y == u) enqueue(atom.z);
          if (atom.z == u) enqueue(atom.y);
        }
      }
    }
  }

  bool ConsistentAt(uint32_t var, NodeId node) {
    const auto& atoms = q_.BinaryAtoms();
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      const BinaryAtom& atom = atoms[i];
      if (atom.y != var && atom.z != var) continue;
      NodeId y = atom.y == var ? node : ws_.assignment[atom.y];
      NodeId z = atom.z == var ? node : ws_.assignment[atom.z];
      if (y != kNoNode && z != kNoNode && !TestBit(Row(i, y), z)) return false;
    }
    return true;
  }

  bool Assign(std::size_t idx) {
    if (idx == ws_.order.size()) return true;
    const uint32_t var = ws_.order[idx];
    const uint64_t* cand = Cand(var);
    for (std::size_t v = NextBit(cand, words_, 0, nodes_); v < nodes_;
         v = NextBit(cand, words_, v + 1, nodes_)) {
      NodeId node = static_cast<NodeId>(v);
      if (!ConsistentAt(var, node)) continue;
      ws_.assignment[var] = node;
      if (Assign(idx + 1)) return true;
      ws_.assignment[var] = kNoNode;
    }
    return false;
  }

  const Graph& g_;
  const Crpq& q_;
  EvalWorkspace& ws_;
  const std::size_t nodes_;
  const std::size_t words_;
};

bool Evaluate(const Graph& g, const Crpq& q, const std::pair<uint32_t, NodeId>* pinned,
              std::size_t pin_count, std::vector<NodeId>* match) {
  WorkspaceLease lease;
  Evaluator evaluator(g, q, lease.get());
  if (!evaluator.Find(pinned, pin_count)) return false;
  if (match != nullptr) *match = lease.get().assignment;
  return true;
}

}  // namespace

std::optional<std::vector<NodeId>> FindMatch(
    const Graph& g, const Crpq& q,
    const std::vector<std::pair<uint32_t, NodeId>>& pinned) {
  std::vector<NodeId> match;
  if (!Evaluate(g, q, pinned.data(), pinned.size(), &match)) return std::nullopt;
  return match;
}

bool Matches(const Graph& g, const Crpq& q) {
  return Evaluate(g, q, nullptr, 0, nullptr);
}

bool Matches(const Graph& g, const Ucrpq& q) {
  return std::any_of(q.Disjuncts().begin(), q.Disjuncts().end(),
                     [&](const Crpq& d) { return Matches(g, d); });
}

bool MatchesAt(const Graph& g, const Crpq& q, uint32_t var, NodeId v) {
  const std::pair<uint32_t, NodeId> pin{var, v};
  return Evaluate(g, q, &pin, 1, nullptr);
}

std::vector<NodeId> MatchNodes(const Graph& g, const Crpq& q, uint32_t var) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.NodeCount(); ++v) {
    if (MatchesAt(g, q, var, v)) out.push_back(v);
  }
  return out;
}

}  // namespace gqc
