// Seeded inputs for the end-to-end benchmark: containment questions (schema,
// P, Q) built from gqc's own workload generator, with known-answer questions
// mixed in, plus the request streams the workloads send.
//
// Each workload's questions come from a fixed corpus; the seed renames every
// symbol and variable, orders the batches and draws the request streams.
#ifndef GQC_PERFBENCH_INPUTS_H_
#define GQC_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What the benchmark knows about a question's answer before asking.
enum class Expect : uint8_t { kNone, kContained, kNotContained };

/// How a question was built.
enum class Kind : uint8_t {
  kGenerated,  // P and Q straight from the generator; answer unknown
  kSub,        // Q is P with atoms dropped: contained under any schema
  kFresh,      // Q adds a concept P lacks; not contained under the empty schema
  kChain,      // participation chain, P = C0(x), Q = B(x): not contained
};

struct Question {
  std::string schema;
  std::string p;
  std::string q;
  Kind kind = Kind::kGenerated;
  Expect expect = Expect::kNone;
  /// Dense id of the (schema, Q) text pair: the engine's query-context key.
  uint32_t ctx_key = 0;
};

/// Serve inputs: every question is one (schema, pair) cell of a cross
/// product, so a few schemas share many pairs the way one analysed program's
/// queries share a schema.
struct ServeInputs {
  std::vector<Question> questions;
  std::size_t schemas = 0;  // including the empty schema at index 0
  std::size_t pairs = 0;
  std::size_t ctx_keys = 0;
};

/// `schemas` generated schemas plus the empty schema, crossed with `pairs`
/// (P, Q) pairs; one pair in 8 is a kSub and one in 16 a kFresh pair. Only
/// the first `cells` cells of the grid are built (0 = all): question k is
/// schema k mod (schemas + 1) with pair k mod `pairs`, so with coprime
/// sizes every schema and every pair gets an even share of the questions.
/// One in four generated pairs is asked as a kFresh question under the
/// empty schema, for more questions whose answer (not contained) is known.
ServeInputs MakeServeInputs(uint64_t seed, std::size_t schemas,
                            std::size_t pairs, std::size_t cells);

/// Batch inputs: `count` questions, no two alike. About 5% are deep
/// participation chains; the rest alternate simple and concatenation
/// queries, with kSub and kFresh questions mixed in.
std::vector<Question> MakeBatchInputs(uint64_t seed, std::size_t count);

/// The order in which batch pass `pass` submits `n` questions.
std::vector<uint32_t> BatchOrder(uint64_t seed, uint64_t pass, std::size_t n);

/// `count` question indices in [0, n) following Zipf-like popularity weight
/// w_r = 1/(r+1)^exponent (exponent 0 is uniform), apportioned exactly
/// rather than drawn: rank r is asked round(count * w_r / Σw) times (largest
/// remainders), so every seed asks the same questions equally often, in its
/// own shuffled order. Ranking 0 gives rank r to question r, the order
/// MakeServeInputs deals the grid in, so every schema and every pair gets
/// an even share of the popular ranks. A ranking above 0 is a fixed random
/// permutation instead, for checking how much the results depend on which
/// questions are popular.
std::vector<uint32_t> QuotaStream(uint64_t seed, std::size_t n, double exponent,
                                  std::size_t count, uint64_t ranking);

/// A gqc_serve `decide` request for one question, less its opening
/// `{"id":"..."` so each request can carry its own id: the schema, P and Q
/// fields, the closing brace and the newline.
std::string RequestBody(const Question& question);

/// Splits a generated conjunctive query into its top-level atoms.
std::vector<std::string> SplitAtoms(const std::string& query);

}  // namespace perfbench

#endif  // GQC_PERFBENCH_INPUTS_H_
