#include "src/core/factboard.h"

#include <utility>

#include "src/query/eval.h"

namespace gqc {

namespace {

std::size_t GraphBytes(const Graph& g) {
  std::size_t edges = 0;
  for (NodeId v = 0; v < g.NodeCount(); ++v) edges += g.OutEdges(v).size();
  return 64 + 48 * g.NodeCount() + 16 * edges;
}

/// Retain costs at flat rates, so recency drives eviction among equals. A
/// published countermodel short-cuts whole disjunct decisions, so each one
/// adds more to its scope's cost than a verdict memo, which replaces one
/// strategy pipeline, is worth.
constexpr uint64_t kCountermodelCost = 1000000;
constexpr uint64_t kVerdictMemoCost = 100000;

std::size_t ResultBytes(const ContainmentResult& r) {
  std::size_t bytes = 128 + r.attr.note.size();
  if (r.countermodel.has_value()) bytes += GraphBytes(*r.countermodel);
  if (r.central_part.has_value()) bytes += GraphBytes(*r.central_part);
  return bytes;
}

}  // namespace

bool GraphFitsVocabulary(const Graph& g, std::size_t concept_limit,
                         std::size_t role_limit) {
  for (NodeId v = 0; v < g.NodeCount(); ++v) {
    for (uint32_t concept_id : g.Labels(v).ToIds()) {
      if (concept_id >= concept_limit) return false;
    }
    for (const auto& [role_id, to] : g.OutEdges(v)) {
      (void)to;
      if (role_id >= role_limit) return false;
    }
  }
  return true;
}

bool SharedFactBoard::PublishCountermodel(const FpKey& scope_key,
                                          const Graph& g,
                                          std::size_t concept_limit,
                                          std::size_t role_limit,
                                          PipelineStats* stats) {
  if (!GraphFitsVocabulary(g, concept_limit, role_limit)) return false;
  auto add = [&](std::vector<Graph>& scope) -> std::size_t {
    if (scope.size() >= kMaxCountermodelsPerScope) return 0;
    for (const Graph& have : scope) {
      if (have == g) return 0;  // already published by a sibling
    }
    scope.push_back(g);
    return GraphBytes(g);
  };
  bool published = countermodels_.Update(scope_key, kCountermodelCost, add);
  if (published && stats != nullptr) {
    stats->facts_published.fetch_add(1, std::memory_order_relaxed);
  }
  return published;
}

std::optional<Graph> SharedFactBoard::FindRefutation(
    const FpKey& scope_key, const Crpq& p, PipelineStats* stats) const {
  std::optional<std::vector<Graph>> candidates = countermodels_.Find(scope_key);
  if (!candidates.has_value()) return std::nullopt;
  for (Graph& g : *candidates) {
    // The scope invariant gives G ⊨ T and G ⊭ Q; G ⊨ p completes the
    // countermodel for this disjunct.
    if (Matches(g, p)) {
      if (stats != nullptr) {
        stats->facts_consumed.fetch_add(1, std::memory_order_relaxed);
      }
      return std::move(g);
    }
  }
  return std::nullopt;
}

void SharedFactBoard::PublishResult(const FpKey& disjunct_key,
                                    ContainmentResult result,
                                    std::size_t concept_limit,
                                    std::size_t role_limit,
                                    PipelineStats* stats) {
  if (result.verdict == Verdict::kUnknown) return;
  if (result.countermodel.has_value() &&
      !GraphFitsVocabulary(*result.countermodel, concept_limit, role_limit)) {
    result.countermodel.reset();
  }
  if (result.central_part.has_value() &&
      !GraphFitsVocabulary(*result.central_part, concept_limit, role_limit)) {
    result.central_part.reset();
  }
  auto fill = [&](ContainmentResult& memo) -> std::size_t {
    // Memos are never kUnknown, so only a fresh entry is. First publisher
    // wins; all definite verdicts agree anyway.
    if (memo.verdict != Verdict::kUnknown) return 0;
    memo = std::move(result);
    return ResultBytes(memo);
  };
  bool published = results_.Update(disjunct_key, kVerdictMemoCost, fill);
  if (published && stats != nullptr) {
    stats->facts_published.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<ContainmentResult> SharedFactBoard::LookupResult(
    const FpKey& disjunct_key, PipelineStats* stats) const {
  std::optional<ContainmentResult> out = results_.Find(disjunct_key);
  if (out.has_value() && stats != nullptr) {
    stats->facts_consumed.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

void SharedFactBoard::SetBudget(const CacheBudget& budget) {
  countermodels_.SetBudget(budget);
  results_.SetBudget(budget);
}

std::size_t SharedFactBoard::Evict(double pressure) {
  return countermodels_.Evict(pressure).entries +
         results_.Evict(pressure).entries;
}

std::size_t SharedFactBoard::retained_bytes() const {
  return countermodels_.retained_bytes() + results_.retained_bytes();
}

void SharedFactBoard::Clear() {
  countermodels_.Clear();
  results_.Clear();
}

std::size_t SharedFactBoard::countermodel_count() const {
  std::size_t n = 0;
  countermodels_.ForEach([&](const FpKey&, const std::vector<Graph>& scope) {
    n += scope.size();
  });
  return n;
}

}  // namespace gqc
