// gqc command-line front end.
//
//   example_gqc_cli contain <schema-file> '<p-query>' '<q-query>'
//   example_gqc_cli batch   [--threads N] [--stats]    (JSON lines on stdin)
//   example_gqc_cli entail  <schema-file> <graph-file> '<query>'
//   example_gqc_cli eval    <graph-file> '<query>'
//
// Schema files use either the PG-Schema surface syntax (node/edge/subtype/
// participation/cardinality/key lines) or the concept syntax (lines with
// '<='); pass "-" for an empty schema. Graph files use the node/edge format
// (src/graph/io.h). Queries use the UC2RPQ syntax (src/query/parser.h).
//
// `batch` decides many pairs in parallel: each stdin line is a JSON object
//   {"id": "...", "schema": "<schema text>", "p": "<query>", "q": "<query>"}
// ("id" and "schema" optional; "schema" is inline text, not a file path).
// One JSON outcome line is written to stdout per item, in input order;
// --stats writes the engine's pipeline-stats JSON to stderr afterwards.
//
// Resource governance: --timeout-ms is a per-pair wall-clock deadline,
// --step-budget a per-disjunct search-step budget (deterministic at any
// thread count), --batch-timeout-ms a deadline for the whole batch. A pair
// that runs out of budget gets verdict "unknown" with "unknown_reason" /
// "unknown_phase" fields saying which resource gave out and where — never a
// wrong definite verdict.
//
// Strategy scheduling: --portfolio races the applicable decision strategies
// per disjunct (first definite verdict wins, losers are cancelled);
// --strategies=a,b,c restricts/reorders the strategy list (known:
// screen, direct, witness, reduction) in either mode. The winning strategy
// is reported in each outcome's "strategy" field.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/gqc.h"

namespace {

using namespace gqc;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  gqc_cli contain <schema-file|-> '<p-query>' '<q-query>'\n"
               "  gqc_cli batch   [--threads N] [--stats] [--timeout-ms MS]\n"
               "                  [--step-budget N] [--batch-timeout-ms MS]\n"
               "                  [--portfolio] [--strategies=a,b,c]\n"
               "                  < items.jsonl\n"
               "  gqc_cli entail  <schema-file|-> <graph-file> '<query>'\n"
               "  gqc_cli eval    <graph-file> '<query>'\n");
  return 2;
}

/// Strict numeric flag parsing: the whole argument must be a non-negative
/// number, else the caller falls through to Usage() instead of std::sto*
/// throwing out of main.
bool ParseCount(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - (c - '0')) / 10) return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

bool ParseMillis(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (!(value >= 0)) return false;  // rejects negatives and NaN
  *out = value;
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Loads a schema file in either surface or concept syntax; "-" = empty.
Result<TBox> LoadSchema(const std::string& path, Vocabulary* vocab) {
  if (path == "-") return TBox{};
  std::string text;
  if (!ReadFile(path, &text)) {
    return Result<TBox>::Error("cannot read schema file: " + path);
  }
  if (text.find("<=") != std::string::npos) {
    return ParseTBox(text, vocab);
  }
  return ParseSchema(text, vocab);
}

int RunContain(const std::string& schema_path, const std::string& p_text,
               const std::string& q_text) {
  Vocabulary vocab;
  auto schema = LoadSchema(schema_path, &vocab);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.error().c_str());
    return 1;
  }
  auto p = ParseUcrpq(p_text, &vocab);
  auto q = ParseUcrpq(q_text, &vocab);
  if (!p.ok() || !q.ok()) {
    std::fprintf(stderr, "%s\n", (!p.ok() ? p.error() : q.error()).c_str());
    return 1;
  }
  ContainmentChecker checker(&vocab);
  ContainmentResult r = checker.Decide(p.value(), q.value(), schema.value());
  std::printf("verdict: %s\n", VerdictName(r.verdict));
  if (!r.attr.strategy.empty()) {
    std::printf("strategy: %s\n", r.attr.strategy.c_str());
  }
  if (!r.attr.note.empty()) std::printf("note: %s\n", r.attr.note.c_str());
  if (r.countermodel.has_value()) {
    std::printf("countermodel:\n%s", WriteGraph(*r.countermodel, vocab).c_str());
  }
  if (r.central_part.has_value()) {
    std::printf("central part of star-like countermodel:\n%s",
                WriteGraph(*r.central_part, vocab).c_str());
  }
  return r.verdict == Verdict::kUnknown ? 3 : 0;
}

int RunBatch(const std::vector<std::string>& args) {
  EngineOptions options;
  bool print_stats = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    uint64_t count = 0;
    if (args[i] == "--threads" && i + 1 < args.size() &&
        ParseCount(args[i + 1], &count)) {
      options.threads = static_cast<std::size_t>(count);
      ++i;
    } else if (args[i] == "--stats") {
      print_stats = true;
    } else if (args[i] == "--timeout-ms" && i + 1 < args.size() &&
               ParseMillis(args[i + 1], &options.containment.resources.deadline_ms)) {
      ++i;
    } else if (args[i] == "--step-budget" && i + 1 < args.size() &&
               ParseCount(args[i + 1], &options.containment.resources.max_steps)) {
      ++i;
    } else if (args[i] == "--batch-timeout-ms" && i + 1 < args.size() &&
               ParseMillis(args[i + 1], &options.batch_timeout_ms)) {
      ++i;
    } else if (args[i] == "--portfolio") {
      options.portfolio = true;
    } else if (args[i].rfind("--strategies=", 0) == 0) {
      auto list = ParseStrategyList(args[i].substr(std::string("--strategies=").size()));
      if (!list.ok()) {
        std::fprintf(stderr, "%s\n", list.error().c_str());
        return 2;
      }
      options.containment.strategies = std::move(list).value();
    } else {
      return Usage();
    }
  }

  std::vector<BatchItem> items;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(std::cin, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto item = ParseBatchItemJson(line);
    if (!item.ok()) {
      std::fprintf(stderr, "line %zu: %s\n", line_no, item.error().c_str());
      return 1;
    }
    if (item.value().id.empty()) item.value().id = std::to_string(line_no);
    items.push_back(std::move(item).value());
  }

  Engine engine(options);
  std::vector<BatchOutcome> outcomes = engine.DecideBatch(items);
  for (const BatchOutcome& out : outcomes) {
    std::printf("%s\n", OutcomeToJson(out).c_str());
  }
  if (print_stats) {
    std::fprintf(stderr, "%s\n", engine.StatsJson().c_str());
  }
  bool any_error = false;
  for (const BatchOutcome& out : outcomes) any_error |= !out.ok;
  return any_error ? 1 : 0;
}

int RunEntail(const std::string& schema_path, const std::string& graph_path,
              const std::string& q_text) {
  Vocabulary vocab;
  auto schema = LoadSchema(schema_path, &vocab);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.error().c_str());
    return 1;
  }
  std::string graph_text;
  if (!ReadFile(graph_path, &graph_text)) {
    std::fprintf(stderr, "cannot read graph file: %s\n", graph_path.c_str());
    return 1;
  }
  auto g = ParseGraph(graph_text, &vocab);
  auto q = ParseUcrpq(q_text, &vocab);
  if (!g.ok() || !q.ok()) {
    std::fprintf(stderr, "%s\n", (!g.ok() ? g.error() : q.error()).c_str());
    return 1;
  }
  NormalTBox normal = Normalize(schema.value(), &vocab);
  EntailmentResult e = FiniteEntails(g.value().graph, normal, q.value(), &vocab);
  std::printf("finitely entailed: %s\n", EngineAnswerName(e.answer));
  if (e.witness.has_value()) {
    std::printf("counter-extension:\n%s", WriteGraph(*e.witness, vocab).c_str());
  }
  return e.answer == EngineAnswer::kUnknown ? 3 : 0;
}

int RunEval(const std::string& graph_path, const std::string& q_text) {
  Vocabulary vocab;
  std::string graph_text;
  if (!ReadFile(graph_path, &graph_text)) {
    std::fprintf(stderr, "cannot read graph file: %s\n", graph_path.c_str());
    return 1;
  }
  auto g = ParseGraph(graph_text, &vocab);
  auto q = ParseUcrpq(q_text, &vocab);
  if (!g.ok() || !q.ok()) {
    std::fprintf(stderr, "%s\n", (!g.ok() ? g.error() : q.error()).c_str());
    return 1;
  }
  bool matched = Matches(g.value().graph, q.value());
  std::printf("matches: %s\n", matched ? "yes" : "no");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "contain" && argc == 5) return RunContain(argv[2], argv[3], argv[4]);
  if (command == "batch") {
    return RunBatch(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (command == "entail" && argc == 5) return RunEntail(argv[2], argv[3], argv[4]);
  if (command == "eval" && argc == 4) return RunEval(argv[2], argv[3]);
  return Usage();
}
