// Sequential outcome driver: decides the questions perfbench asks, one at a
// time on the calling thread, and prints one line per question.
//
//   gqc_outcomes [--seed N]     (default 5)
//
// The sets, in this order:
//   grid   the serve-skewed grid (4 schemas and the empty one x 64 pairs,
//          320 questions) at 2 000 steps per disjunct;
//   churn  the first 1 000 serve-churn cells at 2 000 steps;
//   batch  the 160 batch-portfolio pairs at 20 000 steps.
// Every set runs in sequential mode on one thread, with unbounded caches, so
// each line is a pure function of the sources and the seed. A line is
//
//   <set>/<index> TAB <verdict> TAB <strategy or -> TAB <note or -> TAB
//   <unknown reason>/<unknown phase or -> TAB <countermodel nodes>
//
// Diffing the output of two trees at one seed lists every question whose
// verdict, answering strategy, note or give-up point changed. Exit status:
// 0, or 1 if a question failed to parse.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/inputs.h"
#include "src/engine/engine_core.h"

namespace {

struct Set {
  const char* name;
  uint64_t max_steps;
  std::vector<perfbench::Question> questions;
};

std::string OrDash(std::string_view s) {
  return s.empty() ? "-" : std::string(s);
}

bool Decide(const Set& set) {
  gqc::EngineOptions options;
  options.threads = 1;
  options.containment.resources.max_steps = set.max_steps;
  gqc::EngineCore core(options);
  bool ok = true;
  for (std::size_t i = 0; i < set.questions.size(); ++i) {
    const perfbench::Question& question = set.questions[i];
    gqc::BatchItem item{std::to_string(i), question.schema, question.p,
                        question.q};
    gqc::EngineCore::ControlHandle handle;
    gqc::EngineCore::BatchControl control = core.StartControl(&handle);
    gqc::BatchOutcome outcome = core.DecidePair(item, control);
    core.FinishControl(handle);
    std::string line = std::string(set.name) + "/" + std::to_string(i) + "\t";
    if (!outcome.ok) {
      ok = false;
      line += "error\t-\t" + outcome.error + "\t-\t0";
    } else {
      const gqc::Attribution& attr = outcome.attr;
      line += std::string(gqc::VerdictName(outcome.verdict)) + "\t" +
              OrDash(attr.strategy) + "\t" + OrDash(attr.note) + "\t" +
              (attr.unknown.has_value()
                   ? attr.unknown->reason + "/" + OrDash(attr.unknown->phase)
                   : std::string("-")) +
              "\t" + std::to_string(outcome.countermodel_nodes);
    }
    std::printf("%s\n", line.c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: gqc_outcomes [--seed N]\n");
      return 2;
    }
  }
  // The serve sizes and budgets are perfbench's (workloads.cc).
  const Set sets[] = {
      {"grid", 2000, perfbench::MakeServeInputs(seed, 4, 64, 320).questions},
      {"churn", 2000,
       perfbench::MakeServeInputs(seed, 64, 256, 1000).questions},
      {"batch", 20000, perfbench::MakeBatchInputs(seed, 160)},
  };
  bool ok = true;
  for (const Set& set : sets) ok = Decide(set) && ok;
  return ok ? 0 : 1;
}
