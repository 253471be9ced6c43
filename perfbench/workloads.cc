#include "perfbench/workloads.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>
#include <thread>
#include <utility>

#include "perfbench/checker.h"
#include "perfbench/inputs.h"
#include "perfbench/trace.h"
#include "src/engine/engine.h"
#include "src/serve/server.h"

namespace perfbench {

namespace {

using gqc::Verdict;

// ------------------------------------------------------------ workload table

struct Spec {
  const char* name;
  bool serve;
  /// Serve: generated schemas (the empty schema is added) crossed with
  /// `pairs` (P, Q) pairs, of which `cells` are asked. Batch: `pairs`
  /// questions per batch.
  std::size_t schemas;
  std::size_t pairs;
  std::size_t cells;
  /// Zipf exponent of request popularity (0 = uniform).
  double zipf;
  /// Serve: requests each connection sends per measured pass.
  std::size_t pass_requests;
  /// Per-disjunct step budget: the only bound on a request's work.
  uint64_t max_steps;
  /// Entries per engine cache table (0 = unbounded).
  std::size_t cache_entries;
  /// Set-up repetitions; setup_s is their median.
  int setups;
  /// Percentile reported as latency_tail_ms: the highest usual level with
  /// at least ten samples beyond it in a serve pass or a batch's pairs.
  double tail_level;
};

// Two connections or two pool threads keep the load below the 4 CPUs the
// figures were taken on, so admission control never queues.
constexpr int kConnections = 2;
constexpr std::size_t kBatchThreads = 2;

constexpr Spec kSpecs[] = {
    // A few schemas, a few hundred distinct questions, skewed popularity,
    // caches warm: repeats and context hits dominate. The exponent is an
    // assumption (README.md, "Popularity").
    {"serve-skewed", true, 4, 64, 320, 0.8, 500, 2000, 0, 5, 99.0},
    // 1 000 questions spread over many schemas x many pairs, each asked once
    // per pass through caches bounded far below them: context builds and
    // eviction on most requests.
    {"serve-churn", true, 64, 256, 1000, 0.0, 500, 2000, 256, 3, 99.0},
    // Distinct cold pairs through the racing portfolio on a 2-thread pool.
    {"batch-portfolio", false, 0, 160, 160, 0.0, 0, 20000, 0, 21, 90.0},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// --------------------------------------------------------------- counters

enum Ctr : std::size_t {
  kParseNs,
  kNormalizeNs,
  kScreenNs,
  kDirectNs,
  kClosureNs,
  kReductionNs,
  kContained,
  kNotContained,
  kSchemaHits,
  kSchemaMisses,
  kQueryHits,
  kQueryMisses,
  kRegexHits,
  kRegexMisses,
  kClosureBuilds,
  kMemoHits,
  kMemoMisses,
  kEvictions,
  kStepTrips,
  kRaces,
  kDisjuncts,
  kWins,
  kCancelled = kWins + gqc::kStrategyCount,
  kInconclusive = kCancelled + gqc::kStrategyCount,
  kCounterCount = kInconclusive + gqc::kStrategyCount,
};
using Counters = std::array<uint64_t, kCounterCount>;

Counters ReadCounters(gqc::EngineCore* core) {
  core->RefreshLifecycleGauges();
  const gqc::PipelineStats& s = core->stats();
  auto v = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  Counters c{};
  c[kParseNs] = v(s.parse_ns);
  c[kNormalizeNs] = v(s.normalize_ns);
  c[kScreenNs] = v(s.screen_ns);
  c[kDirectNs] = v(s.direct_ns);
  c[kClosureNs] = v(s.entailment_ns);
  c[kReductionNs] = v(s.reduction_ns);
  c[kContained] = v(s.pairs_contained);
  c[kNotContained] = v(s.pairs_not_contained);
  c[kSchemaHits] = v(s.schema_ctx_hits);
  c[kSchemaMisses] = v(s.schema_ctx_misses);
  c[kQueryHits] = v(s.query_ctx_hits);
  c[kQueryMisses] = v(s.query_ctx_misses);
  c[kRegexHits] = v(s.regex_hits);
  c[kRegexMisses] = v(s.regex_misses);
  c[kClosureBuilds] = v(s.closure_misses);
  c[kMemoHits] = v(s.compile_memo_hits);
  c[kMemoMisses] = v(s.compile_memo_misses);
  c[kEvictions] = v(s.cache_evictions);
  c[kStepTrips] = v(s.budget_steps);
  c[kRaces] = v(s.portfolio_races);
  c[kDisjuncts] = v(s.disjuncts_total);
  for (std::size_t i = 0; i < gqc::kStrategyCount; ++i) {
    c[kWins + i] = v(s.strategy_wins[i]);
    c[kCancelled + i] = v(s.strategy_cancelled[i]);
    c[kInconclusive + i] = v(s.strategy_inconclusive[i]);
  }
  return c;
}

Counters Minus(const Counters& after, const Counters& before) {
  Counters d{};
  for (std::size_t i = 0; i < kCounterCount; ++i) d[i] = after[i] - before[i];
  return d;
}

void Add(Counters* total, const Counters& delta) {
  for (std::size_t i = 0; i < kCounterCount; ++i) (*total)[i] += delta[i];
}

uint64_t PhaseNs(const Counters& c) {
  return c[kParseNs] + c[kNormalizeNs] + c[kScreenNs] + c[kDirectNs] +
         c[kClosureNs] + c[kReductionNs];
}

// ------------------------------------------------------------ measurement

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-pass peaks: Linux resets the process's resident high-water mark to
/// its current resident size when "5" is written to /proc/self/clear_refs,
/// and reports the mark as VmHWM. Returns false where that is unsupported.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// VmHWM in MB, or 0 when it cannot be read.
double HighWaterRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending vector.
double Percentile(const std::vector<double>& sorted, double level) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(level / 100.0 * static_cast<double>(sorted.size()));
  std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

struct Tail {
  double level = 50;
  double value = 0;
  double beyond = 0;  // samples above the percentile
};

/// The `level` percentile, or the next lower usual level when fewer than
/// ten samples lie beyond it.
Tail TailOf(const std::vector<double>& sorted, double level) {
  Tail tail;
  double n = static_cast<double>(sorted.size());
  for (double l : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (l > level) continue;
    tail.level = l;
    tail.beyond = n * (1.0 - l / 100.0);
    if (tail.beyond >= 10.0) break;
  }
  tail.value = Percentile(sorted, tail.level);
  return tail;
}

/// A latency distribution's median and tail.
struct Summary {
  double p50 = 0;
  Tail tail;
  std::size_t samples = 0;
};

Summary Summarize(std::vector<double> values, double level) {
  std::sort(values.begin(), values.end());
  return {Percentile(values, 50), TailOf(values, level), values.size()};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// ---------------------------------------------------------------- samples

enum class Outcome : uint8_t { kDecided, kError, kShed, kLost, kBadReply };

struct Sample {
  uint32_t question = 0;
  Outcome outcome = Outcome::kLost;
  Verdict verdict = Verdict::kUnknown;
  double latency_ms = 0;  // client: send to reply
  double wall_ms = 0;     // engine: the reply's wall_ms
};

/// Checks one pass's samples; applies the test fault hook to the first
/// sample it fits. A flip goes to a question without a known answer, so
/// only the repeat check can catch it.
void CheckSamples(const std::vector<Sample>& samples,
                  const std::vector<Question>& questions,
                  const std::string& fault, bool* fault_done,
                  AnswerChecker* checker) {
  for (const Sample& s : samples) {
    if (s.outcome != Outcome::kDecided) continue;
    const Question& question = questions[s.question];
    Verdict verdict = s.verdict;
    bool definite = verdict != Verdict::kUnknown;
    bool fits = (fault == "flip" && definite &&
                 question.expect == Expect::kNone &&
                 checker->HasDefinite(s.question)) ||
                (fault == "wrong-known" && definite &&
                 question.expect != Expect::kNone);
    if (fits && !*fault_done) {
      verdict = verdict == Verdict::kContained ? Verdict::kNotContained
                                               : Verdict::kContained;
      *fault_done = true;
    }
    checker->Check(s.question, question.expect, verdict);
  }
}

// ----------------------------------------------------------------- client

/// One blocking loopback connection speaking gqc_serve's JSON lines.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

  /// Sends one whole line; false when the connection is lost.
  bool Send(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads what the socket has (call when poll says it is readable);
  /// false on end of stream or error.
  bool Receive() {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// Takes one complete line from the receive buffer, if there is one.
  bool PopLine(std::string* line) {
    std::size_t pos = buf_.find('\n');
    if (pos == std::string::npos) return false;
    line->assign(buf_, 0, pos);
    buf_.erase(0, pos + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// ------------------------------------------------------------- serve rig

/// One in-process gqc server (Listen, then Run on a thread) and the
/// benchmark's loopback connections to it.
class ServeRig {
 public:
  explicit ServeRig(gqc::serve::ServeOptions options)
      : server_(std::move(options)) {}
  ~ServeRig() {
    for (Client& c : clients_) c.Close();
    server_.RequestDrain();
    if (run_.joinable()) run_.join();
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  bool Start(std::string* error) {
    auto listening = server_.Listen();
    if (!listening.ok()) {
      *error = listening.error();
      return false;
    }
    run_ = std::thread([this] { server_.Run(); });
    for (Client& c : clients_) {
      if (!c.Connect(server_.port())) {
        *error = "cannot connect to the server";
        return false;
      }
    }
    return true;
  }

  gqc::EngineCore* core() { return &server_.core(); }
  Client* client(int c) { return &clients_[static_cast<std::size_t>(c)]; }

 private:
  gqc::serve::Server server_;
  std::array<Client, kConnections> clients_;
  std::thread run_;  // last: joined before the members it uses go away
};

/// One connection's list of questions and where its samples go.
struct ConnectionJob {
  const std::vector<uint32_t>* list = nullptr;
  std::vector<Sample>* out = nullptr;
};

/// The closed loop: each connection sends its next request as soon as the
/// reply to its previous one arrives. One thread serves every connection
/// by polling them without sleeping, so no client thread is created per
/// pass and replies are timestamped as soon as they arrive.
class ClosedLoop {
 public:
  ClosedLoop(ServeRig* rig, const std::vector<std::string>* bodies)
      : rig_(rig), bodies_(bodies) {}

  /// Runs every job to completion; returns the wall time. `trace` (may be
  /// null) receives the spans of this call.
  Clock::duration Run(std::array<ConnectionJob, kConnections> jobs,
                      TraceRecorder* trace, std::vector<std::string>* errors) {
    Clock::time_point start = Clock::now();
    std::array<Pending, kConnections> pending{};
    for (int c = 0; c < kConnections; ++c) SendNext(c, jobs[c], &pending[c], errors);
    std::string reply;
    for (;;) {
      std::array<pollfd, kConnections> fds{};
      int waiting = 0;
      for (int c = 0; c < kConnections; ++c) {
        fds[c].fd = pending[c].waiting ? rig_->client(c)->fd() : -1;
        fds[c].events = POLLIN;
        waiting += pending[c].waiting ? 1 : 0;
      }
      if (waiting == 0) break;
      // Busy-poll: a client that sleeps in poll() lets its virtual CPU
      // halt, and the time the host then takes to wake it on the reply
      // (long and variable when the host is busy) is not the server's.
      int ready = 0;
      Clock::time_point wait_start = Clock::now();
      do {
        ready = ::poll(fds.data(), kConnections, 0);
      } while (ready == 0 && Clock::now() - wait_start <
                                 std::chrono::milliseconds(kReplyTimeoutMs));
      if (ready < 0 && errno == EINTR) continue;
      for (int c = 0; c < kConnections; ++c) {
        if (!pending[c].waiting) continue;
        bool readable = ready > 0 && (fds[c].revents & (POLLIN | POLLHUP | POLLERR));
        if (ready > 0 && !readable) continue;
        Client* client = rig_->client(c);
        if (ready <= 0 || !client->Receive()) {
          errors->push_back("connection " + std::to_string(c) +
                            (ready <= 0 ? " got no reply to " : " lost at ") +
                            pending[c].id);
          Lose(jobs[c], &pending[c]);
          continue;
        }
        if (!client->PopLine(&reply)) continue;
        Clock::time_point t1 = Clock::now();
        Sample s = Parse(pending[c], reply, t1, errors);
        jobs[c].out->push_back(s);
        if (trace != nullptr) Record(c, pending[c], s, t1, trace);
        pending[c].waiting = false;
        SendNext(c, jobs[c], &pending[c], errors);
      }
    }
    return Clock::now() - start;
  }

 private:
  // Step budgets bound every request far below this; reaching it means the
  // server stopped answering.
  static constexpr int kReplyTimeoutMs = 60000;

  struct Pending {
    std::size_t next = 0;  // index into the job's list
    uint32_t question = 0;
    std::string id;
    Clock::time_point sent{};
    bool waiting = false;
  };

  void SendNext(int c, const ConnectionJob& job, Pending* p,
                std::vector<std::string>* errors) {
    if (p->next >= job.list->size()) return;
    p->question = (*job.list)[p->next++];
    p->id = "c" + std::to_string(c) + "." + std::to_string(seq_[c]++);
    std::string line = "{\"id\":\"" + p->id + "\"" + (*bodies_)[p->question];
    p->sent = Clock::now();
    p->waiting = true;
    if (!rig_->client(c)->Send(line)) {
      errors->push_back("connection " + std::to_string(c) + " lost at " + p->id);
      Lose(job, p);
    }
  }

  /// The pending request and the rest of the list get no reply: failed.
  static void Lose(const ConnectionJob& job, Pending* p) {
    Sample s;
    s.question = p->question;
    job.out->push_back(s);
    for (; p->next < job.list->size(); ++p->next) {
      s.question = (*job.list)[p->next];
      job.out->push_back(s);
    }
    p->waiting = false;
  }

  static Sample Parse(const Pending& p, const std::string& reply,
                      Clock::time_point t1, std::vector<std::string>* errors) {
    Sample s;
    s.question = p.question;
    s.latency_ms = Ms(t1 - p.sent);
    Reply r;
    std::string error;
    if (!ParseReply(reply, p.id, &r, &error)) {
      s.outcome = Outcome::kBadReply;
      errors->push_back(error);
    } else if (!r.ok) {
      s.outcome = Outcome::kError;
    } else if (r.shed) {
      s.outcome = Outcome::kShed;
    } else {
      s.outcome = Outcome::kDecided;
      s.verdict = r.verdict;
      s.wall_ms = r.wall_ms;
    }
    return s;
  }

  void Record(int c, const Pending& p, const Sample& s, Clock::time_point t1,
              TraceRecorder* trace) {
    uint32_t lane = static_cast<uint32_t>(c);
    trace->Span("client.request", lane, p.sent, t1, p.id, "");
    if (s.outcome == Outcome::kDecided) {
      // The engine span's length is the reply's wall_ms; where it sits in
      // the client span is not observable from outside, so it is centred.
      auto engine = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(
              std::min(s.wall_ms, s.latency_ms)));
      Clock::time_point e0 = p.sent + ((t1 - p.sent) - engine) / 2;
      trace->Span("engine.decide_pair", lane, e0, e0 + engine, p.id,
                  "client.request");
    }
    trace->Counter("engine.cache_evictions", t1,
                   static_cast<double>(rig_->core()->stats().cache_evictions.load(
                       std::memory_order_relaxed)));
  }

  ServeRig* rig_;
  const std::vector<std::string>* bodies_;
  std::array<uint64_t, kConnections> seq_{};
};

// ----------------------------------------------------------- pass records

struct Pass {
  double seconds = 0;
  std::size_t requests = 0;
  std::size_t first_sample = 0;  // the pass's samples in Measured::samples
  bool traced = false;
  Counters delta{};
  double peak_rss_mb = 0;  // 0: the pass's own peak is not observable
};

/// Everything a measured phase leaves for the report.
struct Measured {
  std::vector<Pass> passes;
  std::vector<Sample> samples;  // all measured requests or pairs
  std::size_t repeat_requests = 0;
  std::size_t first_sends = 0;
  double cpu_seconds = 0;
  std::size_t retained_bytes = 0;
  std::size_t concurrency = 1;
  std::vector<double> setups;
  double setup_peak_rss_mb = 0;  // before the first per-pass reset
  std::vector<std::string> lines;  // workload-specific report lines
};

bool MeasureMore(const RunOptions& options, std::size_t passes_done,
                 Clock::duration elapsed) {
  if (options.passes > 0) return passes_done < options.passes;
  // A traced run needs at least one untraced and one traced pass.
  if (options.trace && passes_done < 2) return true;
  return passes_done == 0 || Seconds(elapsed) < options.seconds;
}

/// The first pass's counts, split into those fixed by construction (equal
/// in every run of one seed) and those the thread interleaving moves: cache
/// hits under eviction (two connections race for the same bounded table)
/// and, under racing, step trips and strategy wins.
std::pair<std::string, std::string> FirstPassCounts(const Spec& spec,
                                                    const Pass& pass) {
  const Counters& c = pass.delta;
  std::string ctx = " query_ctx_hits=" + std::to_string(c[kQueryHits]) +
                    " query_ctx_misses=" + std::to_string(c[kQueryMisses]);
  std::string race = " step_trips=" + std::to_string(c[kStepTrips]) + " wins=";
  for (std::size_t i = 0; i < gqc::kStrategyCount; ++i) {
    if (i > 0) race += "/";
    race += std::to_string(c[kWins + i]);
  }
  bool ctx_fixed = spec.cache_entries == 0;
  bool race_fixed = spec.serve;
  std::string fixed = "requests=" + std::to_string(pass.requests) +
                      " decided=" +
                      std::to_string(c[kContained] + c[kNotContained]) +
                      " contained=" + std::to_string(c[kContained]) +
                      (ctx_fixed ? ctx : "") + (race_fixed ? race : "");
  std::string varying = std::string(ctx_fixed ? "" : ctx) +
                        (race_fixed ? "" : race);
  return {fixed, varying};
}

// ------------------------------------------------------------------ serve

gqc::serve::ServeOptions ServeOptionsFor(const Spec& spec) {
  gqc::serve::ServeOptions options;
  options.engine.threads = 1;  // concurrency comes from the connections
  options.engine.containment.resources.max_steps = spec.max_steps;
  if (spec.cache_entries > 0) {
    options.cache_budget.max_entries = spec.cache_entries;
  }
  return options;
}

bool MeasureServe(const Spec& spec, const RunOptions& options,
                  AnswerChecker* checker, TraceRecorder* trace,
                  Measured* m, std::vector<std::string>* errors) {
  std::unique_ptr<ServeRig> rig;
  std::unique_ptr<ClosedLoop> loop;
  ServeInputs in;
  std::vector<std::string> bodies;
  std::array<std::vector<uint32_t>, kConnections> lists;
  std::vector<bool> sent;
  bool fault_done = false;
  auto check = [&](const std::vector<Sample>& samples) {
    CheckSamples(samples, in.questions, options.fault, &fault_done, checker);
    for (const Sample& s : samples) sent[in.questions[s.question].ctx_key] = true;
  };

  const double zipf = options.zipf >= 0 ? options.zipf : spec.zipf;
  for (int k = 0; k < spec.setups; ++k) {
    loop.reset();
    rig.reset();  // tearing down the previous set-up is not timed
    Clock::time_point t0 = Clock::now();
    in = MakeServeInputs(options.seed, spec.schemas, spec.pairs, spec.cells);
    bodies.clear();
    for (const Question& question : in.questions) {
      bodies.push_back(RequestBody(question));
    }
    // Every pass sends the same requests, so every pass does the same work
    // and the counts fixed by construction repeat pass after pass.
    std::vector<uint32_t> pass_list =
        QuotaStream(options.seed, in.questions.size(), zipf,
                    kConnections * spec.pass_requests, options.ranking);
    for (int c = 0; c < kConnections; ++c) lists[c].clear();
    for (std::size_t i = 0; i < pass_list.size(); ++i) {
      lists[i % kConnections].push_back(pass_list[i]);
    }
    sent.assign(in.ctx_keys, false);
    rig = std::make_unique<ServeRig>(ServeOptionsFor(spec));
    std::string error;
    if (!rig->Start(&error)) {
      errors->push_back("server: " + error);
      return false;
    }
    loop = std::make_unique<ClosedLoop>(rig.get(), &bodies);
    std::array<std::vector<Sample>, kConnections> warm;
    if (spec.cache_entries == 0) {
      // Warm-up: every question once, split over the connections.
      std::array<std::vector<uint32_t>, kConnections> split;
      for (std::size_t i = 0; i < in.questions.size(); ++i) {
        split[i % kConnections].push_back(static_cast<uint32_t>(i));
      }
      loop->Run({{{&split[0], &warm[0]}, {&split[1], &warm[1]}}}, nullptr,
                  errors);
    } else {
      // Warm-up: the first half of each connection's pass list, more
      // distinct cacheable contexts than the caches hold.
      std::array<std::vector<uint32_t>, kConnections> halves;
      for (int c = 0; c < kConnections; ++c) {
        halves[c].assign(lists[c].begin(), lists[c].begin() + lists[c].size() / 2);
      }
      loop->Run({{{&halves[0], &warm[0]}, {&halves[1], &warm[1]}}}, nullptr,
                  errors);
      if (rig->core()->stats().cache_evictions.load(std::memory_order_relaxed) == 0) {
        errors->push_back("the warm-up did not fill the bounded caches");
        return false;
      }
    }
    for (const auto& w : warm) check(w);
    m->setups.push_back(Seconds(Clock::now() - t0));
  }

  // Measured phase: whole passes.
  m->setup_peak_rss_mb = PeakRssMb();
  if (options.trace) {
    for (int c = 0; c < kConnections; ++c) {
      trace->NameLane(c, "connection " + std::to_string(c));
    }
  }
  gqc::EngineCore* core = rig->core();
  Counters before = ReadCounters(core);
  double cpu0 = CpuSeconds();
  Clock::time_point start = Clock::now();
  while (MeasureMore(options, m->passes.size(), Clock::now() - start)) {
    Pass pass;
    pass.traced = options.trace && m->passes.size() % 2 == 1;
    std::vector<bool> in_pass(in.ctx_keys, false);
    for (const auto& list : lists) {
      for (uint32_t q : list) {
        uint32_t key = in.questions[q].ctx_key;
        if (!sent[key] && !in_pass[key]) {
          ++m->first_sends;
        } else {
          ++m->repeat_requests;
        }
        in_pass[key] = true;
      }
    }
    std::array<std::vector<Sample>, kConnections> out;
    pass.first_sample = m->samples.size();
    bool peak_reset = ResetPeakRss();
    pass.seconds =
        Seconds(loop->Run({{{&lists[0], &out[0]}, {&lists[1], &out[1]}}},
                            pass.traced ? trace : nullptr, errors));
    if (peak_reset) pass.peak_rss_mb = HighWaterRssMb();
    Counters after = ReadCounters(core);
    pass.delta = Minus(after, before);
    before = after;
    for (const auto& o : out) {
      check(o);
      pass.requests += o.size();
      m->samples.insert(m->samples.end(), o.begin(), o.end());
    }
    m->passes.push_back(pass);
  }
  m->cpu_seconds = CpuSeconds() - cpu0;
  m->retained_bytes = core->retained_bytes();
  m->concurrency = kConnections;
  std::size_t contained = 0, not_contained = 0;
  for (const Question& question : in.questions) {
    contained += question.expect == Expect::kContained ? 1 : 0;
    not_contained += question.expect == Expect::kNotContained ? 1 : 0;
  }
  m->lines.push_back(
      "inputs: " + std::to_string(in.questions.size()) + " questions over " +
      std::to_string(in.schemas) + " schemas x " + std::to_string(in.pairs) +
      " pairs, " + std::to_string(in.ctx_keys) + " context keys; known " +
      "answers: " + std::to_string(contained) + " contained, " +
      std::to_string(not_contained) + " not contained");
  m->lines.push_back("popularity: zipf=" + Fmt("%g", zipf) + " ranking=" +
                     (options.ranking == 0 ? std::string("dealt")
                                           : "random-" +
                                                 std::to_string(options.ranking)));
  return true;
}

// ------------------------------------------------------------------ batch

gqc::EngineOptions BatchOptionsFor(const Spec& spec) {
  gqc::EngineOptions options;
  options.threads = kBatchThreads;
  options.portfolio = true;
  options.containment.resources.max_steps = spec.max_steps;
  return options;
}

std::vector<gqc::BatchItem> ToItems(const std::vector<Question>& questions) {
  std::vector<gqc::BatchItem> items;
  for (std::size_t i = 0; i < questions.size(); ++i) {
    gqc::BatchItem item;
    item.id = "b" + std::to_string(i);
    item.schema_text = questions[i].schema;
    item.p_text = questions[i].p;
    item.q_text = questions[i].q;
    items.push_back(std::move(item));
  }
  return items;
}

/// Engine::DecideBatch's own orchestration with a span around every
/// DecidePair, on the lane of the pool worker that ran it. Used only to
/// write the trace file: the metrics come from every pass's PipelineStats,
/// and the untraced passes run DecideBatch itself.
std::vector<gqc::BatchOutcome> TracedBatch(gqc::Engine* engine,
                                           const std::vector<gqc::BatchItem>& items,
                                           TraceRecorder* trace) {
  gqc::EngineCore& core = engine->core();
  trace->ResetThreadLanes();
  Clock::time_point t0 = Clock::now();
  gqc::EngineCore::ControlHandle handle;
  gqc::EngineCore::BatchControl control = core.StartControl(&handle);
  std::vector<gqc::BatchOutcome> outcomes(items.size());
  core.pool().ParallelFor(items.size(), [&](std::size_t i) {
    uint32_t lane = trace->LaneOfThisThread("worker ");
    Clock::time_point p0 = Clock::now();
    outcomes[i] = core.DecidePair(items[i], control);
    trace->Span("engine.decide_pair", lane, p0, Clock::now(), items[i].id,
                "engine.decide_batch");
  });
  core.FinishControl(handle);
  trace->NameLane(999, "batch");
  trace->Span("engine.decide_batch", 999, t0, Clock::now(), "", "");
  return outcomes;
}

bool MeasureBatch(const Spec& spec, const RunOptions& options,
                  AnswerChecker* checker, TraceRecorder* trace, Measured* m,
                  std::vector<std::string>* errors) {
  std::vector<Question> questions;
  std::vector<gqc::BatchItem> items;
  std::unique_ptr<gqc::Engine> engine;
  for (int k = 0; k < spec.setups; ++k) {
    engine.reset();
    Clock::time_point t0 = Clock::now();
    questions = MakeBatchInputs(options.seed, spec.pairs);
    items = ToItems(questions);
    engine = std::make_unique<gqc::Engine>(BatchOptionsFor(spec));
    m->setups.push_back(Seconds(Clock::now() - t0));
  }

  bool fault_done = false;
  m->setup_peak_rss_mb = PeakRssMb();
  double cpu0 = CpuSeconds();
  Clock::time_point start = Clock::now();
  while (MeasureMore(options, m->passes.size(), Clock::now() - start)) {
    Pass pass;
    pass.traced = options.trace && m->passes.size() % 2 == 1;
    // Each pass submits the batch in its own seeded order, so a run averages
    // over where the slow pairs land on the two threads.
    std::vector<uint32_t> order = BatchOrder(options.seed, m->passes.size(),
                                             items.size());
    std::vector<gqc::BatchItem> batch;
    for (uint32_t i : order) batch.push_back(items[i]);
    bool peak_reset = ResetPeakRss();
    Clock::time_point t0 = Clock::now();
    // Cold caches on every pass: a batch user pays them on every run.
    if (engine == nullptr) {
      engine = std::make_unique<gqc::Engine>(BatchOptionsFor(spec));
    }
    std::vector<gqc::BatchOutcome> outcomes =
        pass.traced ? TracedBatch(engine.get(), batch, trace)
                    : engine->DecideBatch(batch);
    pass.seconds = Seconds(Clock::now() - t0);
    if (peak_reset) pass.peak_rss_mb = HighWaterRssMb();
    pass.delta = ReadCounters(&engine->core());
    engine.reset();
    std::vector<Sample> samples;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const gqc::BatchOutcome& o = outcomes[i];
      Sample s;
      s.question = order[i];
      if (o.id != batch[i].id) {
        s.outcome = Outcome::kBadReply;
        errors->push_back("outcome " + o.id + " answers item " + batch[i].id);
      } else if (!o.ok) {
        s.outcome = Outcome::kError;
      } else {
        s.outcome = Outcome::kDecided;
        s.verdict = o.verdict;
      }
      s.latency_ms = o.wall_ms;
      s.wall_ms = o.wall_ms;
      samples.push_back(s);
    }
    CheckSamples(samples, questions, options.fault, &fault_done, checker);
    pass.first_sample = m->samples.size();
    pass.requests = samples.size();
    m->samples.insert(m->samples.end(), samples.begin(), samples.end());
    m->passes.push_back(pass);
  }
  m->cpu_seconds = CpuSeconds() - cpu0;
  m->concurrency = kBatchThreads;
  std::size_t chains = 0, contained = 0, not_contained = 0;
  for (const Question& question : questions) {
    chains += question.kind == Kind::kChain ? 1 : 0;
    contained += question.expect == Expect::kContained ? 1 : 0;
    not_contained += question.expect == Expect::kNotContained ? 1 : 0;
  }
  m->lines.push_back("inputs: " + std::to_string(questions.size()) +
                     " distinct pairs per batch, " + std::to_string(chains) +
                     " participation chains; known answers: " +
                     std::to_string(contained) + " contained, " +
                     std::to_string(not_contained) + " not contained");
  m->lines.push_back("purpose: chain_share=" +
                     Fmt("%.4f", Ratio(chains, questions.size())));
  return true;
}

// ----------------------------------------------------------------- report

void AddMetric(std::vector<Metric>* to, std::string name, double value,
               std::string unit) {
  to->push_back({std::move(name), value, std::move(unit)});
}

void Report(const Spec& spec, const RunOptions& options, const Measured& m,
            RunReport* report) {
  Counters total{};
  std::vector<double> rps;
  std::vector<double> rps_untraced;
  std::vector<double> rps_traced;
  std::vector<double> pass_peaks;
  double measured_s = 0;
  for (const Pass& p : m.passes) {
    Add(&total, p.delta);
    if (p.peak_rss_mb > 0) pass_peaks.push_back(p.peak_rss_mb);
    double r = Ratio(static_cast<double>(p.requests), p.seconds);
    rps.push_back(r);
    (p.traced ? rps_traced : rps_untraced).push_back(r);
    measured_s += p.seconds;
  }

  std::vector<double> overhead_us;
  uint64_t decided = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  // The time split over every measured pass: client time (serve: the
  // client spans; batch: the pool's capacity, because pairs nest inside
  // each other's races and their spans overlap) and engine time (the
  // engine spans, as long as each reply's wall_ms).
  double client_ms = spec.serve ? 0.0
                                : 1e3 * measured_s *
                                      static_cast<double>(m.concurrency);
  double engine_ms = client_ms;
  for (const Sample& s : m.samples) {
    if (spec.serve) {
      client_ms += s.latency_ms;
      engine_ms += std::min(s.wall_ms, s.latency_ms);
    }
    switch (s.outcome) {
      case Outcome::kDecided:
        if (s.verdict != Verdict::kUnknown) ++decided;
        overhead_us.push_back(1e3 * (s.latency_ms - s.wall_ms));
        break;
      case Outcome::kError:
        ++errors;
        ++failed;
        break;
      case Outcome::kShed:
        ++shed;
        ++failed;
        break;
      default:
        ++failed;
        break;
    }
  }
  // Latency: every pass sends the same requests (a batch pass decides every
  // pair once), so each question's latency is its median over the measured
  // passes, which a short stall of the host does not move. A pass's p99 is
  // decided by ten requests, and a stall that caught one of the few slow
  // questions moved it. The percentiles are then taken over one pass's
  // requests, each at its question's latency: over the questions where a
  // pass asks each once (serve-churn, batch-portfolio), weighted by
  // popularity on serve-skewed. On batch, a pool thread that helps run
  // another pair while it waits inside a race charges that pair's time to
  // its own, which the median over passes also evens out.
  Summary latency;
  Summary decide;
  if (!m.passes.empty()) {
    std::vector<std::vector<double>> client_by_q, engine_by_q;
    for (const Sample& s : m.samples) {
      if (s.outcome != Outcome::kDecided) continue;
      if (client_by_q.size() <= s.question) {
        client_by_q.resize(s.question + 1);
        engine_by_q.resize(s.question + 1);
      }
      client_by_q[s.question].push_back(s.latency_ms);
      engine_by_q[s.question].push_back(s.wall_ms);
    }
    std::vector<double> client_median(client_by_q.size());
    std::vector<double> engine_median(engine_by_q.size());
    for (std::size_t q = 0; q < client_by_q.size(); ++q) {
      client_median[q] = Median(client_by_q[q]);
      engine_median[q] = Median(engine_by_q[q]);
    }
    const Pass& pass = m.passes[0];
    std::vector<double> client, engine;
    for (std::size_t i = pass.first_sample; i < pass.first_sample + pass.requests;
         ++i) {
      const Sample& s = m.samples[i];
      if (s.outcome != Outcome::kDecided) continue;
      client.push_back(client_median[s.question]);
      engine.push_back(engine_median[s.question]);
    }
    latency = Summarize(std::move(client), spec.tail_level);
    decide = Summarize(std::move(engine), spec.tail_level);
  }
  const double n = static_cast<double>(m.samples.size());
  const double kreq = n / 1000.0;

  report->attempted = m.samples.size();
  report->failed = failed;

  auto& e2e = report->end_to_end;
  AddMetric(&e2e, "setup_s", Median(m.setups), "s");
  AddMetric(&e2e, "throughput_rps", Median(rps), "1/s");
  AddMetric(&e2e, "latency_p50_ms", latency.p50, "ms");
  AddMetric(&e2e, "latency_tail_ms", latency.tail.value, "ms");
  AddMetric(&e2e, "decided_share", Ratio(decided, n), "share");
  AddMetric(&e2e, "answered_share", 1.0 - Ratio(failed, n), "share");
  // The median pass's peak where each pass's peak is observable: which
  // racers run furthest before they are cancelled moves a batch pass's
  // peak, and the process-wide peak keeps the worst of however many passes
  // the run had time for. Resetting the mark also resets getrusage's.
  const bool per_pass = pass_peaks.size() == m.passes.size();
  const double process_peak_mb =
      per_pass && !pass_peaks.empty()
          ? std::max(m.setup_peak_rss_mb,
                     *std::max_element(pass_peaks.begin(), pass_peaks.end()))
          : PeakRssMb();
  AddMetric(&e2e, "rss_peak_mb", per_pass ? Median(pass_peaks) : process_peak_mb,
            "MB");

  auto& layer = report->per_layer;
  auto per_req_us = [&](uint64_t ns) {
    return Ratio(static_cast<double>(ns) / 1e3, n);
  };
  // Client = serve self + engine self + the engine's phases, whose times
  // are PipelineStats deltas.
  double phase_ms = static_cast<double>(PhaseNs(total)) / 1e6;
  double serve_self_us = Ratio(1e3 * (client_ms - engine_ms), n);
  double engine_self_us = Ratio(1e3 * (engine_ms - phase_ms), n);
  double client_us = Ratio(1e3 * client_ms, n);
  double phase_us = Ratio(1e3 * phase_ms, n);
  AddMetric(&layer, "serve.overhead_p50_us",
            spec.serve ? Median(overhead_us) : 0.0, "us");
  AddMetric(&layer, "serve.self_us_per_req", spec.serve ? serve_self_us : 0.0,
            "us");
  AddMetric(&layer, "serve.errors", static_cast<double>(errors), "count");
  AddMetric(&layer, "serve.shed", static_cast<double>(shed), "count");
  AddMetric(&layer, "engine.decide_p50_ms", decide.p50, "ms");
  AddMetric(&layer, "engine.decide_tail_ms", decide.tail.value, "ms");
  AddMetric(&layer, "engine.self_us_per_req", engine_self_us, "us");
  AddMetric(&layer, "engine.query_ctx_hit_ratio",
            Ratio(total[kQueryHits], total[kQueryHits] + total[kQueryMisses]),
            "ratio");
  AddMetric(&layer, "engine.schema_ctx_hit_ratio",
            Ratio(total[kSchemaHits], total[kSchemaHits] + total[kSchemaMisses]),
            "ratio");
  double repeat_misses =
      std::max(0.0, static_cast<double>(total[kQueryMisses]) -
                        static_cast<double>(m.first_sends));
  AddMetric(&layer, "engine.repeat_miss_ratio",
            spec.serve ? Ratio(repeat_misses, m.repeat_requests) : 0.0, "ratio");
  AddMetric(&layer, "engine.evictions_per_kreq",
            Ratio(total[kEvictions], kreq), "1/kreq");
  AddMetric(&layer, "engine.retained_mb",
            static_cast<double>(m.retained_bytes) / (1024.0 * 1024.0), "MB");
  AddMetric(&layer, "engine.pool_busy_ratio",
            Ratio(static_cast<double>(PhaseNs(total)) / 1e9,
                  static_cast<double>(m.concurrency) * measured_s),
            "ratio");
  AddMetric(&layer, "engine.cpu_ms_per_pair", Ratio(1e3 * m.cpu_seconds, n),
            "ms");
  AddMetric(&layer, "query.parse_us_per_req",
            per_req_us(total[kParseNs]), "us");
  AddMetric(&layer, "dl.normalize_us_per_req",
            per_req_us(total[kNormalizeNs]), "us");
  AddMetric(&layer, "automata.regex_hit_ratio",
            Ratio(total[kRegexHits], total[kRegexHits] + total[kRegexMisses]),
            "ratio");
  AddMetric(&layer, "core.screen_us_per_req",
            per_req_us(total[kScreenNs]), "us");
  AddMetric(&layer, "core.direct_us_per_req",
            per_req_us(total[kDirectNs]), "us");
  AddMetric(&layer, "core.reduction_us_per_req",
            per_req_us(total[kReductionNs]), "us");
  uint64_t runs = 0;
  uint64_t cancelled = 0;
  for (std::size_t i = 0; i < gqc::kStrategyCount; ++i) {
    std::string s = gqc::StrategyName(static_cast<gqc::StrategyId>(i));
    AddMetric(&layer, "core.wins." + s, Ratio(total[kWins + i], kreq), "1/kreq");
    AddMetric(&layer, "core.cancelled." + s, Ratio(total[kCancelled + i], kreq),
              "1/kreq");
    AddMetric(&layer, "core.inconclusive." + s,
              Ratio(total[kInconclusive + i], kreq), "1/kreq");
    runs += total[kWins + i] + total[kCancelled + i] + total[kInconclusive + i];
    cancelled += total[kCancelled + i];
  }
  AddMetric(&layer, "core.race_waste_ratio", Ratio(cancelled, runs), "ratio");
  AddMetric(&layer, "core.step_trips_per_kreq", Ratio(total[kStepTrips], kreq),
            "1/kreq");
  AddMetric(&layer, "entailment.closure_us_per_req",
            per_req_us(total[kClosureNs]), "us");
  AddMetric(&layer, "entailment.closure_builds_per_kreq",
            Ratio(total[kClosureBuilds], kreq), "1/kreq");
  AddMetric(&layer, "entailment.compile_memo_hit_ratio",
            Ratio(total[kMemoHits], total[kMemoHits] + total[kMemoMisses]),
            "ratio");
  AddMetric(&layer, "trace.client_us_per_req", client_us, "us");
  AddMetric(&layer, "trace.accounted_ratio",
            Ratio(serve_self_us + phase_us, client_us), "ratio");
  double untraced_rps = Median(rps_untraced);
  AddMetric(&layer, "trace.overhead_ratio",
            rps_traced.empty()
                ? 0.0
                : Ratio(untraced_rps - Median(rps_traced), untraced_rps),
            "ratio");

  // Human-readable report.
  auto& lines = report->lines;
  lines.insert(lines.end(), m.lines.begin(), m.lines.end());
  lines.push_back("samples: " + std::to_string(m.samples.size()) + " over " +
                  std::to_string(m.passes.size()) + " passes, " +
                  Fmt("%.2f", measured_s) + " s measured");
  lines.push_back(
      "latency: p50=" + Fmt("%.4f", latency.p50) + " ms, tail p" +
      Fmt("%g", latency.tail.level) + "=" + Fmt("%.4f", latency.tail.value) +
      " ms (" + Fmt("%.0f", latency.tail.beyond) + " of " +
      std::to_string(latency.samples) + " samples beyond; a pass's " +
      (spec.serve ? "requests" : "pairs") + ", each at its question's median " +
      "over " + std::to_string(m.passes.size()) + " passes)");
  lines.push_back("pass throughput (1/s): " + [&] {
    std::vector<double> sorted = rps;
    std::sort(sorted.begin(), sorted.end());
    std::string s;
    for (double level : {0.0, 25.0, 50.0, 75.0, 100.0}) {
      s += Fmt("%.1f ", Percentile(sorted, level));
    }
    return s + "(min q1 median q3 max)";
  }());
  lines.push_back("rss (MB): process peak " + Fmt("%.1f", process_peak_mb) +
                  ", pass peaks " + [&] {
                    std::vector<double> sorted = pass_peaks;
                    std::sort(sorted.begin(), sorted.end());
                    std::string s;
                    for (double level : {0.0, 50.0, 100.0}) {
                      s += Fmt("%.1f ", Percentile(sorted, level));
                    }
                    return s + "(min median max)";
                  }());
  lines.push_back("setup_s runs (the first in a fresh process): " + [&] {
    std::string s;
    for (double v : m.setups) s += Fmt("%.4f ", v);
    return s;
  }());
  // Counts fixed by construction: identical in every run of one seed.
  if (!m.passes.empty()) {
    auto [fixed, varying] = FirstPassCounts(spec, m.passes[0]);
    lines.push_back("fixed counts, first pass: " + fixed);
    lines.push_back("interleaving-dependent counts, first pass:" + varying);
  }
  if (spec.serve) {
    lines.push_back("purpose: repeat_share=" +
                    Fmt("%.4f", Ratio(m.repeat_requests, n)) +
                    " evictions_per_kreq=" +
                    Fmt("%.3f", Ratio(total[kEvictions], kreq)));
  } else {
    lines.push_back("purpose: multi_strategy_race_share=" +
                    Fmt("%.4f", Ratio(total[kRaces], total[kDisjuncts])));
  }
  if (options.trace) {
    lines.push_back("split per request (us): client=" + Fmt("%.1f", client_us) +
                    " serve_self=" + Fmt("%.1f", serve_self_us) +
                    " engine_self=" + Fmt("%.1f", engine_self_us) +
                    " phases=" + Fmt("%.1f", phase_us));
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Spec& spec : kSpecs) out.push_back(spec.name);
    return out;
  }();
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  const Spec* spec = FindSpec(options.workload);
  if (spec == nullptr) {
    report.correct = false;
    report.violations.push_back("unknown workload " + options.workload);
    return report;
  }
  TraceRecorder trace(Clock::now());
  std::vector<std::string> errors;
  Measured m;
  AnswerChecker checker(spec->cells);
  bool ran = spec->serve
                 ? MeasureServe(*spec, options, &checker, &trace, &m, &errors)
                 : MeasureBatch(*spec, options, &checker, &trace, &m, &errors);
  if (errors.size() > 8) {
    std::size_t more = errors.size() - 8;
    errors.resize(8);
    errors.push_back("... and " + std::to_string(more) + " more");
  }
  report.violations = errors;
  for (const std::string& v : checker.violations()) {
    report.violations.push_back(v);
  }
  if (!ran) {
    report.correct = false;
    return report;
  }
  Report(*spec, options, m, &report);
  report.correct = report.violations.empty() && checker.ok();
  if (spec->cache_entries > 0) {
    double evictions = 0;
    for (const Metric& metric : report.per_layer) {
      if (metric.name == "engine.evictions_per_kreq") evictions = metric.value;
    }
    if (evictions <= 0) {
      report.correct = false;
      report.violations.push_back(
          "no evictions in the measured phase: the workload missed its purpose");
    }
  }
  if (options.trace && !options.trace_path.empty() &&
      !trace.WriteChromeJson(options.trace_path)) {
    report.correct = false;
    report.violations.push_back("cannot write " + options.trace_path);
  }
  return report;
}

}  // namespace perfbench
