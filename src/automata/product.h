#ifndef GQC_AUTOMATA_PRODUCT_H_
#define GQC_AUTOMATA_PRODUCT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/automata/semiautomaton.h"
#include "src/graph/graph.h"
#include "src/util/bitset.h"

namespace gqc {

/// Reusable buffers for the product breadth-first search. Warm buffers
/// (one that has already served a search at least this large) makes
/// AtomTargetsInto allocation-free.
struct ProductBuffers {
  std::vector<uint64_t> visited;  // (node, state) pairs, node-major
  std::vector<std::pair<NodeId, uint32_t>> queue;
};

/// Targets reachable from the single source `u` under the 2RPQ atom
/// (a, s, t) over `g`: v is a target iff there is a path witnessing a run of
/// `a` from state `s` to state `t` starting at u and ending at v (§2, match
/// condition 3'). A length-0 run exists iff s == t; `allow_empty`
/// additionally admits (u, u) for nullable regexes whose compiled start/end
/// states differ.
///
/// Writes the targets as a bit row of (NodeCount() + 63) / 64 words into
/// `out`, overwriting it. Walks the adjacency lists in place.
void AtomTargetsInto(const Graph& g, const Semiautomaton& a, uint32_t s,
                     uint32_t t, bool allow_empty, NodeId u,
                     ProductBuffers* buffers, uint64_t* out);

/// AtomTargetsInto as a fresh bitset.
DynamicBitset AtomTargets(const Graph& g, const Semiautomaton& a, uint32_t s,
                          uint32_t t, bool allow_empty, NodeId u);

/// The whole relation: one bitset of targets per source node.
std::vector<DynamicBitset> AtomRelation(const Graph& g, const Semiautomaton& a,
                                        uint32_t s, uint32_t t, bool allow_empty);

/// True if the specific pair (u, v) is in the atom relation.
bool AtomHolds(const Graph& g, const Semiautomaton& a, uint32_t s, uint32_t t,
               bool allow_empty, NodeId u, NodeId v);

}  // namespace gqc

#endif  // GQC_AUTOMATA_PRODUCT_H_
