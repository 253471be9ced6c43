#include "perfbench/checker.h"

#include <cstdlib>
#include <utility>

#include "src/util/json.h"

namespace perfbench {

namespace {

constexpr std::size_t kMaxKeptViolations = 8;

bool ParseVerdict(const std::string& name, gqc::Verdict* verdict) {
  for (gqc::Verdict v : {gqc::Verdict::kContained, gqc::Verdict::kNotContained,
                         gqc::Verdict::kUnknown}) {
    if (name == gqc::VerdictName(v)) {
      *verdict = v;
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParseReply(std::string_view line, std::string_view expected_id,
                Reply* reply, std::string* error) {
  auto fields = gqc::ParseFlatJsonObject(line);
  if (!fields.ok()) {
    *error = "unparsable reply: " + fields.error();
    return false;
  }
  bool have_id = false;
  bool have_ok = false;
  bool have_verdict = false;
  *reply = Reply{};
  for (const gqc::JsonField& f : fields.value()) {
    if (f.key == "id") {
      if (f.value != expected_id) {
        *error = "reply id \"" + f.value + "\" answers request \"" +
                 std::string(expected_id) + "\"";
        return false;
      }
      have_id = true;
    } else if (f.key == "ok") {
      reply->ok = f.value == "true";
      have_ok = true;
    } else if (f.key == "verdict") {
      if (!ParseVerdict(f.value, &reply->verdict)) {
        *error = "unknown verdict \"" + f.value + "\"";
        return false;
      }
      have_verdict = true;
    } else if (f.key == "unknown_reason") {
      reply->shed = f.value == "shed" || f.value == "draining";
    } else if (f.key == "wall_ms") {
      reply->wall_ms = std::strtod(f.value.c_str(), nullptr);
    }
  }
  if (!have_ok) {
    *error = "reply without \"ok\"";
    return false;
  }
  // Error lines answer malformed requests and carry no id or verdict.
  if (!reply->ok) return true;
  if (!have_id || !have_verdict) {
    *error = "decided reply without \"id\" or \"verdict\"";
    return false;
  }
  return true;
}

bool AnswerChecker::Check(std::size_t index, Expect expect,
                          gqc::Verdict verdict) {
  if (verdict == gqc::Verdict::kUnknown) return true;
  bool contained = verdict == gqc::Verdict::kContained;
  if ((expect == Expect::kContained && !contained) ||
      (expect == Expect::kNotContained && contained)) {
    Fail("question " + std::to_string(index) + " answered " +
         gqc::VerdictName(verdict) + " against its known answer");
    return false;
  }
  int8_t& first = seen_.at(index);
  if (first == kNoneSeen) {
    first = static_cast<int8_t>(verdict);
    return true;
  }
  if (first != static_cast<int8_t>(verdict)) {
    Fail("question " + std::to_string(index) + " flipped from " +
         gqc::VerdictName(static_cast<gqc::Verdict>(first)) + " to " +
         gqc::VerdictName(verdict));
    return false;
  }
  return true;
}

void AnswerChecker::Fail(std::string message) {
  ++violation_count_;
  if (violations_.size() < kMaxKeptViolations) {
    violations_.push_back(std::move(message));
  }
}

std::vector<std::string> SelfTestChecker() {
  using gqc::Verdict;
  std::vector<std::string> failures;
  auto expect = [&](bool condition, const char* what) {
    if (!condition) failures.push_back(what);
  };

  AnswerChecker flips(2);
  expect(flips.Check(0, Expect::kNone, Verdict::kContained), "first verdict");
  expect(flips.Check(0, Expect::kNone, Verdict::kUnknown),
         "unknown after a definite verdict is allowed");
  expect(flips.Check(0, Expect::kNone, Verdict::kContained), "same repeat");
  expect(!flips.Check(0, Expect::kNone, Verdict::kNotContained),
         "a flipped verdict is rejected");
  expect(!flips.ok() && flips.violation_count() == 1, "the flip is counted");

  AnswerChecker known(3);
  expect(!known.Check(0, Expect::kContained, Verdict::kNotContained),
         "a wrong known contained answer is rejected");
  expect(!known.Check(1, Expect::kNotContained, Verdict::kContained),
         "a wrong known not-contained answer is rejected");
  expect(known.Check(2, Expect::kContained, Verdict::kUnknown),
         "unknown passes a known answer");
  expect(known.violation_count() == 2, "both wrong answers are counted");

  Reply reply;
  std::string error;
  expect(ParseReply(R"({"id":"c0.1","ok":true,"verdict":"not-contained",)"
                    R"("strategy":"direct","wall_ms":1.5})",
                    "c0.1", &reply, &error) &&
             reply.verdict == Verdict::kNotContained && reply.wall_ms == 1.5,
         "a decided reply parses");
  expect(!ParseReply(R"({"id":"c0.2","ok":true,"verdict":"contained"})",
                     "c0.1", &reply, &error),
         "a reply to another request is rejected");
  expect(!ParseReply(R"({"id":"c0.1","ok":true,"verdict":"maybe"})", "c0.1",
                     &reply, &error),
         "an unknown verdict name is rejected");
  expect(!ParseReply("{\"id\":\"c0.1\",", "c0.1", &reply, &error),
         "a truncated reply is rejected");
  return failures;
}

}  // namespace perfbench
