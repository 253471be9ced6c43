#ifndef GQC_GQC_H_
#define GQC_GQC_H_

/// Umbrella header: the stable public surface of the gqc library.
///
/// Everything an application needs to parse schemas and queries, decide
/// containment modulo schema (one pair or a parallel batch), check finite
/// entailment, evaluate queries over graphs, and print results:
///
///   Vocabulary                       symbol interning (graph/vocabulary.h)
///   ParseTBox / ParseSchema          schema text -> TBox
///   ParseUcrpq / ParseCrpq           query text -> UC2RPQ
///   ContainmentChecker               P ⊑_T Q for one vocabulary
///   Strategy / DecideUnion           pluggable deciders, the one strategy
///                                    runner and disjunct loop for both
///                                    modes (strategy.h, decide.h)
///   Engine / BatchItem / ...         parallel batch service with shared
///                                    caches and pipeline metrics
///   FiniteEntails                    G, T ⊨fin Q
///   QueryContainment                 schema-free containment
///   Matches                          query evaluation on a graph
///   ParseGraph / WriteGraph / ToDot  graph I/O
///   PgSchema                         programmatic PG-Schema construction
///   ComputeTpClosure                 Tp(T, Q̂) realizable-type sets (§3)
///   GenerateWorkload                 deterministic benchmark instances
///   Result<T>                        error handling used throughout
///
/// Internal layers (entailment engines, automata, frames, the §4 coil and
/// span machinery) have headers under src/ but are not part of this surface
/// and may change freely.

#include "src/core/containment.h"
#include "src/core/decide.h"
#include "src/core/strategy.h"
#include "src/dl/concept_parser.h"
#include "src/dl/normalize.h"
#include "src/engine/engine.h"
#include "src/entailment/entailment.h"
#include "src/graph/dot.h"
#include "src/graph/io.h"
#include "src/query/eval.h"
#include "src/query/parser.h"
#include "src/query/query_containment.h"
#include "src/schema/pg_schema.h"
#include "src/schema/schema_parser.h"
#include "src/schema/workload.h"
#include "src/util/json.h"
#include "src/util/result.h"

#endif  // GQC_GQC_H_
