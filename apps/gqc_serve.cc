// gqc_serve: JSON-lines containment server over the layered engine core.
//
//   gqc_serve [--port N] [--threads N] [--portfolio]
//             [--deadline-ms X] [--max-inflight N] [--max-queue N]
//             [--cache-entries N] [--cache-mb N] [--snapshot PATH]
//
// Listens on loopback; prints "GQC_SERVE_READY port=<port>" on stdout once
// accepting. One flat JSON object per line in, one per line out (protocol in
// src/serve/server.h). --cache-entries/--cache-mb bound each engine cache
// table separately. SIGTERM/SIGINT drain gracefully: in-flight requests
// finish, queued ones are answered "draining", the snapshot (if configured)
// is saved, and the process exits 0.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/serve/server.h"

namespace {

volatile std::sig_atomic_t g_drain = 0;

void OnSignal(int) { g_drain = 1; }

gqc::serve::Server* g_server = nullptr;

}  // namespace

int main(int argc, char** argv) {
  gqc::serve::ServeOptions options;
  options.engine.threads = 0;  // hardware concurrency
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gqc_serve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      options.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--threads") {
      options.engine.threads = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--portfolio") {
      options.engine.portfolio = true;
    } else if (arg == "--deadline-ms") {
      options.request_deadline_ms = std::atof(next());
    } else if (arg == "--max-inflight") {
      options.admission.max_in_flight = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--max-queue") {
      options.admission.max_queue = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--cache-entries") {
      options.cache_budget.max_entries = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--cache-mb") {
      options.cache_budget.max_bytes =
          static_cast<std::size_t>(std::atoi(next())) * 1024 * 1024;
    } else if (arg == "--snapshot") {
      options.snapshot_path = next();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: gqc_serve [--port N] [--threads N] [--portfolio]\n"
          "                 [--deadline-ms X] [--max-inflight N] [--max-queue N]\n"
          "                 [--cache-entries N] [--cache-mb N] [--snapshot PATH]\n");
      return 0;
    } else {
      std::fprintf(stderr, "gqc_serve: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  gqc::serve::Server server(std::move(options));
  auto listening = server.Listen();
  if (!listening.ok()) {
    std::fprintf(stderr, "gqc_serve: %s\n", listening.error().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);

  std::printf("GQC_SERVE_READY port=%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (server.warmstart_loaded() > 0) {
    std::fprintf(stderr, "gqc_serve: warm-started %llu contexts\n",
                 static_cast<unsigned long long>(server.warmstart_loaded()));
  }

  // The signal handler only flips a flag; this watcher forwards it to the
  // server's atomic so Run()'s poll tick notices within 100ms.
  std::thread watcher([&server] {
    // lint: bounded(one iteration per 50ms until drain)
    while (!g_drain && !server.drain_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.RequestDrain();
  });

  server.Run();
  g_drain = 1;  // stop the watcher if drain came from elsewhere
  watcher.join();
  std::fprintf(stderr, "%s\n", server.core().StatsJson().c_str());
  return 0;
}
