// Serve: request latency of the serving layer, cold caches vs snapshot
// warm-start. Drives Server::HandleRequestLine in-process (the socket loop is
// a thin transport; the decision path, admission gate, and session
// bookkeeping are all exercised), so the numbers isolate the serving stack
// from kernel socket noise.
//
//   ServeCold       fresh server per iteration — every request builds its
//                   contexts from scratch (worst case, first-request latency)
//   ServeWarmStart  fresh server per iteration, warm-started from a snapshot
//                   of the workload's context keys (restart recovery cost)
//
// The warm-start column is what a restart buys back from disk. Steady-state
// latency on warm caches is measured end to end, over loopback, by
// perfbench's serve-skewed workload.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/engine/snapshot.h"
#include "src/gqc.h"
#include "src/serve/server.h"

namespace {

using namespace gqc;

std::vector<std::string> RequestLines(std::size_t count, uint64_t seed) {
  WorkloadOptions options;
  options.seed = seed;
  std::vector<std::string> lines;
  std::size_t i = 0;
  for (const WorkloadInstance& inst : GenerateWorkload(options, count)) {
    BatchItem item;
    item.id = std::to_string(i++);
    item.schema_text = inst.schema_text;
    item.p_text = inst.p_text;
    item.q_text = inst.q_text;
    JsonWriter w;
    w.BeginObject();
    w.Key("id").String(item.id);
    w.Key("schema").String(item.schema_text);
    w.Key("p").String(item.p_text);
    w.Key("q").String(item.q_text);
    w.EndObject();
    lines.push_back(w.Take());
  }
  return lines;
}

serve::ServeOptions BenchOptions() {
  serve::ServeOptions options;
  options.engine.threads = 1;  // per-request latency, not fan-out throughput
  // Safety net, matching a realistic deployment: an unexpectedly hard
  // generated instance sheds to Unknown instead of wedging the bench.
  options.request_deadline_ms = 250;
  return options;
}

void DriveAll(serve::Server* server, const std::vector<std::string>& lines) {
  auto session = server->OpenSession("bench");
  for (const std::string& line : lines) {
    std::string response = server->HandleRequestLine(line, session.get());
    benchmark::DoNotOptimize(response.data());
  }
  server->CloseSession(session->id);
}

void BM_ServeCold(benchmark::State& state) {
  std::vector<std::string> lines =
      RequestLines(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    serve::Server server(BenchOptions());
    DriveAll(&server, lines);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lines.size()));
}
BENCHMARK(BM_ServeCold)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_ServeWarmStart(benchmark::State& state) {
  std::vector<std::string> lines =
      RequestLines(static_cast<std::size_t>(state.range(0)), 7);
  // One unmeasured run exports the workload's context keys to a snapshot.
  std::string path = "/tmp/gqc_bench_serve.snap";
  {
    serve::Server seed_server(BenchOptions());
    DriveAll(&seed_server, lines);
    auto saved = SaveSnapshot(seed_server.core(), path);
    if (!saved.ok()) state.SkipWithError(saved.error().c_str());
  }
  serve::ServeOptions options = BenchOptions();
  options.snapshot_path = path;
  uint64_t loaded = 0;
  for (auto _ : state) {
    state.PauseTiming();
    serve::Server server(options);  // constructor replays the snapshot keys
    loaded = server.warmstart_loaded();
    state.ResumeTiming();
    DriveAll(&server, lines);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lines.size()));
  state.counters["warmstart_loaded"] = static_cast<double>(loaded);
  std::remove(path.c_str());
}
BENCHMARK(BM_ServeWarmStart)->Arg(20)->Unit(benchmark::kMillisecond);

}  // namespace
