#ifndef GQC_CORE_CACHES_H_
#define GQC_CORE_CACHES_H_

#include <memory>
#include <string>

#include "src/core/lifecycle.h"
#include "src/core/reduction.h"
#include "src/core/stats.h"
#include "src/dl/tbox.h"
#include "src/entailment/compile_memo.h"
#include "src/util/sync.h"

namespace gqc {

/// A ContainmentChecker's memoized immutable reasoning state, shared across
/// its containment calls (the batch engine keeps its own contexts instead):
///
///  - normalized-TBox cache: canonical TBox serialization -> NormalTBox.
///    Normalization interns fresh concept names, so every repeated Decide
///    call on the same schema used to pay the normalization *and* grow the
///    vocabulary; with the cache both happen once.
///  - entailment-closure cache: (NormalTBox, Q, engine) -> TpClosure, the
///    factorization Q̂ plus the realizable-type set Tp(T, Q̂). This is the
///    dominant reusable cost of the §3 reduction: it is independent of the
///    left-hand disjunct p, so one closure serves every disjunct of every P
///    checked against the same (T, Q).
///  - compile memo: the per-solve word-mask compilations
///    (src/entailment/compile_memo.h), wired into every guarded search
///    through EngineLimits so microsecond-scale solves stop paying
///    recompilation.
///
/// Keys are exact canonical serializations carried as FpKeys: the flat maps
/// probe on the precomputed 64-bit fingerprint (an 8-byte compare per probe
/// step) and verify the canonical text only on a fingerprint match, so no
/// fingerprint collision can produce a wrong verdict (DESIGN.md §11).
///
/// Each table is a BoundedTable (DESIGN.md §12). A checker's caches are
/// never budgeted, so they grow with the distinct inputs one checker sees.
///
/// Lookup/insert is mutex-protected and safe from any thread. Values are
/// computed OUTSIDE the lock; on a miss the builder may intern fresh names
/// into the vocabulary, so concurrent misses sharing one Vocabulary must be
/// externally serialized (the checker is single-threaded per vocabulary).
class ContainmentCaches {
 public:
  /// Normalized form of `tbox`, computing (and interning into `vocab`) on
  /// first use. Cached entries are keyed within one vocabulary — do not share
  /// one ContainmentCaches between checkers on different vocabularies.
  std::shared_ptr<const NormalTBox> GetNormalized(const TBox& tbox,
                                                  Vocabulary* vocab,
                                                  PipelineStats* stats);

  struct ClosureEntry {
    /// Null when the closure could not be built (factorization failure);
    /// `error` then carries the reason. Negative results are cached too.
    std::shared_ptr<const TpClosure> closure;
    std::string error;
  };

  /// Tp closure for (tbox, q) under the engine selected by `alcq_case`.
  ClosureEntry GetClosure(const Ucrpq& q, const NormalTBox& tbox, bool alcq_case,
                          Vocabulary* vocab, const ReductionOptions& options);

  /// The shared compile memo; callers wire it into EngineLimits.
  CompiledScopeMemo* compile_memo() { return &compile_memo_; }

  void Clear();

  std::size_t normalized_count() const { return normalized_.size(); }

 private:
  BoundedTable<std::shared_ptr<const NormalTBox>> normalized_{
      kLockRankNormalizeCache, "normalize-cache"};
  BoundedTable<ClosureEntry> closures_{kLockRankNormalizeCache,
                                       "closure-cache"};
  CompiledScopeMemo compile_memo_;
};

}  // namespace gqc

#endif  // GQC_CORE_CACHES_H_
