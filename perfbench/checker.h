// Answer checks: every reply parses and carries its request's id, no
// definite verdict contradicts a known answer, and no question gets two
// different definite verdicts in one run. `unknown` is always allowed.
#ifndef GQC_PERFBENCH_CHECKER_H_
#define GQC_PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/inputs.h"
#include "src/query/query_containment.h"

namespace perfbench {

/// One parsed decide reply.
struct Reply {
  bool ok = false;        // false: an error line ("ok":false)
  bool shed = false;      // answered by admission control, not decided
  gqc::Verdict verdict = gqc::Verdict::kUnknown;
  double wall_ms = 0;     // the engine's own time for the pair
};

/// Parses a decide reply line; fails (with `*error` set) when the line is
/// not a flat JSON object, lacks a field, or answers another request id.
bool ParseReply(std::string_view line, std::string_view expected_id,
                Reply* reply, std::string* error);

class AnswerChecker {
 public:
  explicit AnswerChecker(std::size_t questions) : seen_(questions, kNoneSeen) {}

  /// Records `verdict` for question `index`; returns false (and keeps a
  /// message) when it contradicts `expect` or an earlier definite verdict.
  bool Check(std::size_t index, Expect expect, gqc::Verdict verdict);
  /// Records a reply that could not be checked at all.
  void Fail(std::string message);
  /// Whether question `index` already has a definite verdict.
  bool HasDefinite(std::size_t index) const { return seen_.at(index) != kNoneSeen; }

  bool ok() const { return violations_.empty(); }
  uint64_t violation_count() const { return violation_count_; }
  /// The first few violations, for the report.
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  static constexpr int8_t kNoneSeen = -1;
  std::vector<int8_t> seen_;  // first definite verdict per question
  std::vector<std::string> violations_;
  uint64_t violation_count_ = 0;
};

/// The checker's own tests: a fabricated flip and a wrong known answer must
/// be rejected, and unknown must pass. Returns failures (empty = pass).
std::vector<std::string> SelfTestChecker();

}  // namespace perfbench

#endif  // GQC_PERFBENCH_CHECKER_H_
