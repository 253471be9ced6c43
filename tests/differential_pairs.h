// The generated pairs that the screen's differential suites check (mapping
// and saturation): generated instances as they come, as contained-by-
// construction (kSub) questions and as kFresh ones, plus the cross-
// validation instances in three shapes.

#ifndef GQC_TESTS_DIFFERENTIAL_PAIRS_H_
#define GQC_TESTS_DIFFERENTIAL_PAIRS_H_

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "src/schema/workload.h"
#include "tests/brute_oracle.h"

namespace gqc {
namespace testing_oracle {

struct Pair {
  std::string label;
  std::string schema;
  std::string p;
  std::string q;
};

inline std::vector<std::string> TopLevelAtoms(const std::string& query) {
  std::vector<std::string> atoms;
  std::string current;
  int depth = 0;
  for (char c : query) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      atoms.push_back(current);
      current.clear();
      continue;
    }
    if (current.empty() && c == ' ') continue;
    current.push_back(c);
  }
  if (!current.empty()) atoms.push_back(current);
  return atoms;
}

/// P with a seeded nonempty proper subset of its atoms dropped: contained
/// by construction (the benchmark's kSub questions).
inline std::string SubQuery(const std::string& p, std::mt19937_64* rng) {
  std::vector<std::string> atoms = TopLevelAtoms(p);
  if (atoms.size() <= 1) return p;
  std::vector<std::string> kept;
  for (const std::string& a : atoms) {
    if ((*rng)() % 2 == 0) kept.push_back(a);
  }
  if (kept.empty() || kept.size() == atoms.size()) {
    kept.assign(1, atoms[(*rng)() % atoms.size()]);
  }
  std::string out;
  for (const std::string& a : kept) out += (out.empty() ? "" : ", ") + a;
  return out;
}

/// Generated pairs as they come, as kSub questions and as kFresh ones (a
/// concept P never mentions added to a kSub Q), in both query shapes, plus
/// the cross-validation instances in both directions.
inline std::vector<Pair> DifferentialPairs() {
  std::vector<Pair> pairs;
  std::mt19937_64 rng(7);
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    for (bool simple : {true, false}) {
      WorkloadOptions options;
      options.simple_queries = simple;
      WorkloadInstance inst = GenerateInstance(options, seed);
      const std::string tag = std::to_string(seed) + (simple ? "s" : "c");
      pairs.push_back({"gen-" + tag, inst.schema_text, inst.p_text, inst.q_text});
      std::string sub = SubQuery(inst.p_text, &rng);
      pairs.push_back({"sub-" + tag, inst.schema_text, inst.p_text, sub});
      pairs.push_back({"fresh-" + tag, "", inst.p_text, sub + ", Z(x0)"});
    }
  }
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    GeneratedInstance inst = Generate(seed);
    const std::string tau = inst.tau_concept + "(x)";
    const std::string tag = "xval-" + std::to_string(seed);
    pairs.push_back({tag + "-tau", inst.tbox_text, tau, inst.query_text});
    pairs.push_back({tag + "-query", inst.tbox_text, inst.query_text,
                     inst.query_text + ", " + tau});
    pairs.push_back({tag + "-self", inst.tbox_text, inst.query_text + ", " + tau,
                     inst.query_text});
  }
  return pairs;
}

inline std::vector<uint32_t> Union(std::vector<uint32_t> a,
                            const std::vector<uint32_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

}  // namespace testing_oracle
}  // namespace gqc

#endif  // GQC_TESTS_DIFFERENTIAL_PAIRS_H_
