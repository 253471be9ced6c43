// gqc_perfbench: gqc end to end, layer by layer.
//
//   gqc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE] [--passes N] [--commit ID]
//                 [--zipf X] [--ranking N]
//   gqc_perfbench --selftest
//
// Prints the run context, the workload's fixed counts and purpose figures,
// every metric by name with its unit, and as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics for
// --trace 0, per-layer metrics for --trace 1. Exits 1 when an answer check
// fails, 2 on bad arguments, 3 when the build is not optimized.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "perfbench/checker.h"
#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/util/json.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunReport;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: gqc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--passes N] [--commit ID]\n"
               "                     [--zipf X] [--ranking N]\n"
               "       gqc_perfbench --selftest\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

std::string LoadAverage() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f/%.2f/%.2f", load[0], load[1], load[2]);
  return buf;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::vector<std::string> SelfTestInputs() {
  using namespace perfbench;
  std::vector<std::string> failures;
  auto expect = [&](bool condition, const char* what) {
    if (!condition) failures.push_back(what);
  };
  auto same = [](const std::vector<Question>& a, const std::vector<Question>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].schema != b[i].schema || a[i].p != b[i].p || a[i].q != b[i].q ||
          a[i].expect != b[i].expect) {
        return false;
      }
    }
    return true;
  };
  ServeInputs s1 = MakeServeInputs(7, 4, 64, 0);
  expect(same(s1.questions, MakeServeInputs(7, 4, 64, 0).questions),
         "serve inputs repeat for one seed");
  expect(!same(s1.questions, MakeServeInputs(8, 4, 64, 0).questions),
         "serve inputs differ between seeds");
  expect(s1.questions.size() == 5 * 64, "serve inputs are schemas x pairs");
  auto distinct = [](const std::vector<Question>& questions) {
    std::set<std::string> texts;
    for (const Question& q : questions) {
      texts.insert(q.schema + '\x1f' + q.p + '\x1f' + q.q);
    }
    return texts.size();
  };
  expect(distinct(s1.questions) == s1.questions.size(),
         "the whole grid has every question once");
  std::set<std::string> top_schemas;
  for (std::size_t k = 0; k < 5; ++k) top_schemas.insert(s1.questions[k].schema);
  expect(top_schemas.size() == 5, "the first five ranks go to five schemas");
  ServeInputs churn = MakeServeInputs(7, 64, 256, 1000);
  std::set<std::string> churn_schemas;
  for (const Question& q : churn.questions) churn_schemas.insert(q.schema);
  expect(churn.questions.size() == 1000 && distinct(churn.questions) == 1000,
         "a partial grid builds only the asked cells, each once");
  expect(churn_schemas.size() == 65, "a partial grid covers every schema");
  std::size_t churn_not_contained = 0;
  for (const Question& q : churn.questions) {
    churn_not_contained += q.expect == Expect::kNotContained ? 1 : 0;
  }
  expect(churn_not_contained >= 4,
         "a partial grid has known not-contained questions");
  std::vector<Question> b1 = MakeBatchInputs(7, 160);
  expect(same(b1, MakeBatchInputs(7, 160)), "batch inputs repeat for one seed");
  expect(!same(b1, MakeBatchInputs(8, 160)), "batch inputs differ between seeds");
  std::vector<uint32_t> q7 = QuotaStream(7, 320, 0.8, 1000, 0);
  std::vector<uint32_t> q8 = QuotaStream(8, 320, 0.8, 1000, 0);
  expect(q7.size() == 1000 && q7 == QuotaStream(7, 320, 0.8, 1000, 0),
         "quota lists have the asked length and repeat for one seed");
  expect(q7 != q8, "quota lists are ordered by the seed");
  expect(std::count(q7.begin(), q7.end(), 0u) >
             std::count(q7.begin(), q7.end(), 1u),
         "ranking 0 makes question 0 the most popular");
  std::vector<uint32_t> other = QuotaStream(7, 320, 0.8, 1000, 2);
  std::sort(q7.begin(), q7.end());
  std::sort(q8.begin(), q8.end());
  std::sort(other.begin(), other.end());
  expect(q7 == q8, "every seed's quota list asks the same questions");
  expect(q7 != other, "another ranking makes other questions popular");
  std::vector<uint32_t> uniform = QuotaStream(7, 1000, 0.0, 1000, 0);
  std::sort(uniform.begin(), uniform.end());
  bool each_once = uniform.size() == 1000;
  for (std::size_t i = 0; each_once && i < uniform.size(); ++i) {
    each_once = uniform[i] == i;
  }
  expect(each_once, "a uniform quota list asks every question once");
  // Known answers are built as documented.
  std::size_t known = 0;
  for (const Question& question : s1.questions) {
    if (question.kind == Kind::kSub) {
      ++known;
      std::vector<std::string> p = SplitAtoms(question.p);
      for (const std::string& atom : SplitAtoms(question.q)) {
        bool in_p = false;
        for (const std::string& a : p) in_p = in_p || a == atom;
        expect(in_p, "a sub question's Q atoms all come from P");
      }
      expect(question.expect == Expect::kContained, "sub questions expect contained");
    }
    if (question.kind == Kind::kFresh) {
      std::vector<std::string> p = SplitAtoms(question.p);
      std::size_t foreign = 0;
      for (const std::string& atom : SplitAtoms(question.q)) {
        foreign += std::find(p.begin(), p.end(), atom) == p.end() ? 1 : 0;
      }
      expect(foreign == 1, "a fresh question's Q adds one atom P lacks");
      expect((question.expect == Expect::kNotContained) == question.schema.empty(),
             "fresh questions expect not-contained only under the empty schema");
    }
  }
  expect(known > 0, "serve inputs contain known-answer questions");
  std::size_t chains = 0;
  for (const Question& question : b1) {
    if (question.kind == Kind::kChain) {
      ++chains;
      expect(question.expect == Expect::kNotContained, "chains expect not-contained");
    }
  }
  expect(chains == 8, "5% of a 160-pair batch are chains");
  return failures;
}

int SelfTest() {
  std::vector<std::string> failures = perfbench::SelfTestChecker();
  for (const std::string& f : SelfTestInputs()) failures.push_back(f);
  for (const std::string& f : failures) {
    std::fprintf(stderr, "selftest FAILED: %s\n", f.c_str());
  }
  if (failures.empty()) std::printf("selftest passed\n");
  return failures.empty() ? 0 : 1;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s = %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && ParseUnsigned(value, &n)) {
      options.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && ParseUnsigned(value, &n) && n > 0) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && ParseUnsigned(value, &n) && n <= 1) {
      options.trace = n == 1;
      have_trace = true;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else if (arg == "--passes" && ParseUnsigned(value, &n)) {
      options.passes = n;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--fault") {
      options.fault = value;
    } else if (arg == "--zipf") {
      char* end = nullptr;
      options.zipf = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.zipf >= 0)) return Usage();
    } else if (arg == "--ranking" && ParseUnsigned(value, &n)) {
      options.ranking = n;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !known) {
    return Usage();
  }
  // Numbers from an unoptimized build are not comparable; refuse to make
  // them (the same rule as bench/build_guard.cc).
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "gqc_perfbench: built without optimizations (NDEBUG and "
                 "__OPTIMIZE__ required); rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }

  std::string load_before = LoadAverage();
  RunReport report = perfbench::RunWorkload(options);
  std::string load_after = LoadAverage();

  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("context: commit=%s build=release nproc=%ld load_before=%s "
              "load_after=%s\n",
              commit.c_str(), sysconf(_SC_NPROCESSORS_ONLN), load_before.c_str(),
              load_after.c_str());
  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& v : report.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  PrintMetrics(report.end_to_end);
  PrintMetrics(report.per_layer);
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "yes" : "no");

  std::string json = "{\"correct\":";
  json += report.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(report.attempted);
  json += ",\"failed\":" + std::to_string(report.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : options.trace ? report.per_layer : report.end_to_end) {
    if (!first) json += ",";
    first = false;
    gqc::AppendJsonString(&json, m.name);
    json += ":{\"value\":" + Number(m.value) + ",\"unit\":";
    gqc::AppendJsonString(&json, m.unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
