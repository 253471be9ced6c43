#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "src/engine/snapshot.h"

namespace gqc {
namespace serve {

namespace {

/// Longest request line a connection may have pending without a newline.
/// Far above any real request; a client past it is answered with an error
/// and disconnected, so no client can grow the server without bound.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

std::string ErrorJson(std::string_view message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(false);
  w.Key("error").String(message);
  w.EndObject();
  return w.Take();
}

/// Builds the well-formed kUnknown outcome a shed/drained request gets: the
/// same BatchOutcome surface a decided request has, so clients need one
/// parser, and kUnknown keeps shedding sound (it is the tri-state's
/// "not decided", never a wrong definite answer).
BatchOutcome ShedOutcome(std::string id, bool draining) {
  BatchOutcome out;
  out.id = std::move(id);
  out.ok = true;
  out.verdict = Verdict::kUnknown;
  out.attr.unknown.emplace();
  out.attr.unknown->reason = draining ? "draining" : "shed";
  out.attr.unknown->phase = "admission";
  out.attr.note = draining ? "shed: server draining, no new work admitted"
                           : "shed: admission queue full";
  return out;
}

double ParsePositiveMs(const std::string& text) {
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || v < 0 || v != v) return 0;
  return v;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      core_(options_.engine),
      admission_(options_.admission) {
  if (options_.cache_budget.bounded()) {
    core_.SetCacheBudget(options_.cache_budget);
  }
  if (!options_.snapshot_path.empty()) {
    // Best-effort warm start: a missing or corrupt snapshot serves cold
    // (rejection is counted on stats().warmstart_rejected by LoadSnapshot;
    // a *missing* file is not a rejection).
    std::ifstream probe(options_.snapshot_path, std::ios::binary);
    if (probe) {
      probe.close();
      auto loaded = LoadSnapshot(&core_, options_.snapshot_path);
      if (loaded.ok()) warmstart_loaded_ = loaded.value();
    }
  }
}

std::string Server::HandleRequestLine(std::string_view line, Session* session) {
  session->requests.fetch_add(1, std::memory_order_relaxed);
  auto fields = ParseFlatJsonObject(line);
  if (!fields.ok()) {
    session->errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorJson("request: " + fields.error());
  }
  std::string op;
  bool has_pq = false;
  for (const JsonField& f : fields.value()) {
    if (f.key == "op") op = f.value;
    if (f.key == "p" || f.key == "q") has_pq = true;
  }
  if (op.empty()) op = has_pq ? "decide" : "ping";

  if (op == "decide") return HandleDecide(fields.value(), session);
  if (op == "ping") {
    JsonWriter w;
    w.BeginObject();
    w.Key("ok").Bool(true);
    w.Key("pong").Bool(true);
    w.EndObject();
    return w.Take();
  }
  if (op == "stats") return StatsResponse();
  if (op == "evict") {
    double pressure = 0.5;
    for (const JsonField& f : fields.value()) {
      if (f.key == "pressure") pressure = ParsePositiveMs(f.value);
    }
    std::size_t evicted = core_.Evict(pressure);
    JsonWriter w;
    w.BeginObject();
    w.Key("ok").Bool(true);
    w.Key("evicted").UInt(evicted);
    w.Key("retained_bytes").UInt(core_.retained_bytes());
    w.EndObject();
    return w.Take();
  }
  if (op == "snapshot") {
    if (options_.snapshot_path.empty()) {
      session->errors.fetch_add(1, std::memory_order_relaxed);
      return ErrorJson("snapshot: no --snapshot path configured");
    }
    auto saved = SaveSnapshot(core_, options_.snapshot_path);
    if (!saved.ok()) {
      session->errors.fetch_add(1, std::memory_order_relaxed);
      return ErrorJson(saved.error());
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("ok").Bool(true);
    w.Key("saved").Bool(true);
    w.EndObject();
    return w.Take();
  }
  session->errors.fetch_add(1, std::memory_order_relaxed);
  return ErrorJson("request: unknown op \"" + op + "\"");
}

std::string Server::HandleDecide(const std::vector<JsonField>& fields,
                                 Session* session) {
  BatchItem item;
  double deadline_ms = options_.request_deadline_ms;
  bool have_p = false;
  bool have_q = false;
  for (const JsonField& f : fields) {
    if (f.key == "op") {
      continue;
    } else if (f.key == "id") {
      item.id = f.value;
    } else if (f.key == "schema") {
      item.schema_text = f.value;
    } else if (f.key == "p") {
      item.p_text = f.value;
      have_p = true;
    } else if (f.key == "q") {
      item.q_text = f.value;
      have_q = true;
    } else if (f.key == "deadline_ms") {
      deadline_ms = ParsePositiveMs(f.value);
    } else {
      session->errors.fetch_add(1, std::memory_order_relaxed);
      return ErrorJson("decide: unknown field \"" + f.key + "\"");
    }
  }
  if (!have_p || !have_q) {
    session->errors.fetch_add(1, std::memory_order_relaxed);
    return ErrorJson("decide: fields \"p\" and \"q\" are required");
  }

  Admission admitted = admission_.Enter();
  if (admitted != Admission::kAdmitted) {
    session->shed.fetch_add(1, std::memory_order_relaxed);
    core_.stats().requests_shed.fetch_add(1, std::memory_order_relaxed);
    return OutcomeToJson(
        ShedOutcome(item.id, admitted == Admission::kDraining));
  }
  EngineCore::ControlHandle handle;
  EngineCore::BatchControl control = core_.StartControl(deadline_ms, &handle);
  BatchOutcome outcome = core_.DecidePair(item, control);
  core_.FinishControl(handle);
  admission_.Leave();
  session->decided.fetch_add(1, std::memory_order_relaxed);
  return OutcomeToJson(outcome);
}

std::string Server::StatsResponse() {
  uint64_t session_requests = 0;
  uint64_t session_decided = 0;
  uint64_t session_shed = 0;
  uint64_t session_errors = 0;
  for (const auto& s : sessions_.Snapshot()) {
    session_requests += s->requests.load(std::memory_order_relaxed);
    session_decided += s->decided.load(std::memory_order_relaxed);
    session_shed += s->shed.load(std::memory_order_relaxed);
    session_errors += s->errors.load(std::memory_order_relaxed);
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(true);
  w.Key("serve").BeginObject();
  w.Key("sessions_active").UInt(sessions_.active());
  w.Key("sessions_total").UInt(sessions_.opened_total());
  w.Key("in_flight").UInt(admission_.in_flight());
  w.Key("queued").UInt(admission_.queued());
  w.Key("draining").Bool(admission_.draining());
  w.Key("requests").UInt(session_requests);
  w.Key("decided").UInt(session_decided);
  w.Key("shed").UInt(session_shed);
  w.Key("errors").UInt(session_errors);
  w.Key("warmstart_loaded").UInt(warmstart_loaded_);
  w.EndObject();
  w.EndObject();
  std::string head = w.Take();
  // Splice the engine stats object in as a raw sub-document: the exporter
  // already emits one well-formed object.
  head.pop_back();  // trailing '}'
  head += ",\"engine\":";
  head += core_.StatsJson();
  head += "}";
  return head;
}

Result<bool> Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Result<bool>::Error("serve: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Result<bool>::Error(std::string("serve: bind() failed: ") +
                               std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Result<bool>::Error(std::string("serve: listen() failed: ") +
                               std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  return true;
}

void Server::HandleConnection(int fd, std::string peer) {
  std::shared_ptr<Session> session = sessions_.Open(std::move(peer));
  std::string buf;
  char chunk[4096];
  // lint: bounded(runs until client EOF or drain; each iteration is one poll tick)
  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    int ready = ::poll(&p, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      // Idle tick: a draining server closes idle connections (any request
      // that was in flight has already been answered above).
      if (drain_requested()) break;
      continue;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    // lint: bounded(one iteration per complete line in the receive buffer)
    while ((pos = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, pos);
      buf.erase(0, pos + 1);
      if (line.empty() || line == "\r") continue;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::string response = HandleRequestLine(line, session.get());
      response.push_back('\n');
      std::size_t sent = 0;
      // lint: bounded(short writes on a blocking socket; sends until done)
      while (sent < response.size()) {
        ssize_t wrote = ::send(fd, response.data() + sent,
                               response.size() - sent, MSG_NOSIGNAL);
        if (wrote <= 0) break;
        sent += static_cast<std::size_t>(wrote);
      }
      if (sent < response.size()) break;  // client went away mid-response
    }
    if (buf.size() > kMaxRequestLineBytes) {
      session->errors.fetch_add(1, std::memory_order_relaxed);
      std::string response =
          ErrorJson("request line exceeds " +
                    std::to_string(kMaxRequestLineBytes) + " bytes") +
          "\n";
      (void)::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
      break;
    }
  }
  ::close(fd);
  sessions_.Close(session->id);
}

void Server::Run() {
  std::vector<std::thread> handlers;
  // lint: bounded(one iteration per 100ms poll tick until drain)
  while (!drain_requested()) {
    pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    int ready = ::poll(&p, 1, 100);
    if (ready <= 0) continue;
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) continue;
    char ip[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    std::string peer_name = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
    handlers.emplace_back(
        [this, fd, peer_name] { HandleConnection(fd, peer_name); });
  }
  // Graceful drain: wake queued waiters (they answer "draining"), let every
  // in-flight decision finish, then join the handlers — no request is ever
  // abandoned without a response on its own connection.
  admission_.BeginDrain();
  for (std::thread& t : handlers) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.snapshot_path.empty()) {
    (void)SaveSnapshot(core_, options_.snapshot_path);
  }
}

}  // namespace serve
}  // namespace gqc
