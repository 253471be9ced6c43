#ifndef GQC_SERVE_SERVER_H_
#define GQC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/result.h"
#include "src/engine/engine_core.h"
#include "src/serve/admission.h"
#include "src/serve/session.h"
#include "src/util/json.h"

namespace gqc {
namespace serve {

/// Options for the serving front end.
struct ServeOptions {
  /// Engine configuration (threads, strategies, portfolio, budgets). The
  /// engine-level batch_timeout_ms acts as the request deadline fallback.
  EngineOptions engine;
  AdmissionOptions admission;
  /// Default wall-clock budget per decide request (ms). A request's own
  /// "deadline_ms" field overrides; 0 falls back to engine.batch_timeout_ms.
  double request_deadline_ms = 0;
  /// Budget applied to each engine cache table separately, not to their
  /// sum (0/0 = unbounded).
  CacheBudget cache_budget;
  /// Warm-start snapshot: loaded (if present and valid) at construction,
  /// saved on graceful drain. Empty = persistence off.
  std::string snapshot_path;
  /// TCP port to listen on (loopback only); 0 = ephemeral, read port().
  uint16_t port = 0;
};

/// JSON-lines serving front end over EngineCore (DESIGN.md §12).
///
/// Protocol: one flat JSON object per line in, one per line out.
///   {"op":"decide","id":"r1","schema":"...","p":"...","q":"...",
///    "deadline_ms":"250"}            -> a BatchOutcome line ("op" optional;
///                                       any line with "p"/"q" decides)
///   {"op":"stats"}                   -> serve + engine stats object
///   {"op":"ping"}                    -> {"ok":true,"pong":true}
///   {"op":"evict","pressure":"0.5"}  -> {"ok":true,"evicted":N,...}
///   {"op":"snapshot"}                -> saves the warm-start snapshot
///
/// Soundness: admission control can only *shed* a request, answered as a
/// well-formed kUnknown outcome (reason "shed" or "draining"); it never
/// drops a line or alters a decided verdict. Decide requests run the exact
/// EngineCore::DecidePair path the batch engine runs, under a per-request
/// control registered with CancelAll, so per-request deadlines reuse the
/// batch preemption machinery unchanged.
///
/// Threading: one handler thread per connection; the AdmissionGate caps how
/// many of them decide concurrently (the engine pool parallelizes inside a
/// pair). HandleRequestLine is also callable in-process (tests, benches)
/// with a session from OpenSession — the socket loop is a thin transport.
class Server {
 public:
  explicit Server(ServeOptions options);

  /// In-process session (tests/benches); Close when done.
  std::shared_ptr<Session> OpenSession(std::string peer) {
    return sessions_.Open(std::move(peer));
  }
  void CloseSession(uint64_t id) { sessions_.Close(id); }

  /// Handles one protocol line and returns the response line (no trailing
  /// newline). Never throws; malformed input yields {"ok":false,...}.
  std::string HandleRequestLine(std::string_view line, Session* session);

  /// Binds the loopback listener; port() is valid afterwards.
  Result<bool> Listen();
  uint16_t port() const { return port_; }

  /// Accept/serve loop: runs until RequestDrain(), then drains — stops
  /// accepting, wakes queued waiters (answered "draining"), joins every
  /// connection handler after its in-flight request finishes, saves the
  /// snapshot (if configured), and returns.
  void Run();

  /// Flags the drain. Async-signal-safe (one atomic store); the Run loop
  /// notices within its 100ms poll tick.
  void RequestDrain() {
    drain_requested_.store(true, std::memory_order_release);
  }
  bool drain_requested() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

  EngineCore& core() { return core_; }
  AdmissionGate& admission() { return admission_; }
  SessionRegistry& sessions() { return sessions_; }
  /// Contexts rebuilt from the snapshot at construction (0 = none/invalid).
  uint64_t warmstart_loaded() const { return warmstart_loaded_; }

 private:
  std::string HandleDecide(const std::vector<JsonField>& fields,
                           Session* session);
  std::string StatsResponse();
  void HandleConnection(int fd, std::string peer);

  ServeOptions options_;
  EngineCore core_;
  AdmissionGate admission_;
  SessionRegistry sessions_;
  uint64_t warmstart_loaded_ = 0;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> drain_requested_{false};
};

}  // namespace serve
}  // namespace gqc

#endif  // GQC_SERVE_SERVER_H_
