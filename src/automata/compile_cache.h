#ifndef GQC_AUTOMATA_COMPILE_CACHE_H_
#define GQC_AUTOMATA_COMPILE_CACHE_H_

#include <memory>
#include <string>

#include "src/automata/semiautomaton.h"
#include "src/core/lifecycle.h"
#include "src/core/stats.h"
#include "src/util/sync.h"

namespace gqc {

/// Memoizes regex -> semiautomaton compilation (Thompson construction plus
/// epsilon elimination). Queries in a workload reuse a small set of path
/// expressions, and every parse recompiles them from scratch; the cache
/// compiles each distinct regex once as a standalone CompiledRegex and
/// splices cached copies into per-query automata via DisjointUnion, which
/// preserves state order and per-state transition order — the resulting
/// automaton is structurally identical to a fresh compilation.
///
/// Keys are structural serializations at the symbol-code level. Symbol codes
/// are vocabulary-relative, so a cache must only be shared across
/// vocabularies that agree on the ids they share (the batch engine's
/// vocabulary layering guarantees this); colliding ids would in any case map
/// to code-identical regexes, which compile to the same code-level automaton.
///
/// Thread-safe: one BoundedTable (compilation of a missed entry runs outside
/// its lock).
class RegexCompileCache {
 public:
  /// Evictions are counted on `stats` when non-null.
  explicit RegexCompileCache(PipelineStats* stats = nullptr)
      : cache_(kLockRankRegexCache, "regex-cache", stats) {}

  /// Compiles `regex` into `target` (disjoint union), like CompileRegexInto,
  /// reusing a cached standalone compilation when one exists. Records
  /// regex_hits / regex_misses on `stats` when non-null.
  CompiledRef CompileInto(const RegexPtr& regex, Semiautomaton* target,
                          PipelineStats* stats = nullptr);

  /// Bounds the cache (entries and/or estimated bytes; 0 = unbounded).
  /// Applies immediately and to every later insert.
  void SetBudget(const CacheBudget& budget) { cache_.SetBudget(budget); }

  /// Drops ceil(size * pressure) lowest retain-score entries and shrinks the
  /// backing arrays; returns entries dropped. Dropping is lifecycle only —
  /// the regex recompiles identically on the next miss.
  std::size_t Evict(double pressure) { return cache_.Evict(pressure).entries; }

  /// Summed resident-size estimates of the retained compilations.
  std::size_t retained_bytes() const { return cache_.retained_bytes(); }

  void Clear() { cache_.Clear(); }
  std::size_t size() const { return cache_.size(); }

 private:
  /// Keyed by the structural serialization as an FpKey.
  BoundedTable<std::shared_ptr<const CompiledRegex>> cache_;
};

/// The cache key: a prefix encoding of the regex AST over symbol codes.
/// Exposed for tests.
std::string RegexStructuralKey(const RegexPtr& regex);

}  // namespace gqc

#endif  // GQC_AUTOMATA_COMPILE_CACHE_H_
