// In-memory span recording for the traced benchmark run, written out once
// at the end as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Spans are recorded by the benchmark around its calls into gqc; nothing
// inside the program is instrumented. One lane (trace "thread") per client
// connection or pool worker.
#ifndef GQC_PERFBENCH_TRACE_H_
#define GQC_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class TraceRecorder {
 public:
  explicit TraceRecorder(Clock::time_point origin) : origin_(origin) {}

  /// Names a lane (shown as the trace thread name).
  void NameLane(uint32_t lane, std::string name);
  /// The lane of the calling thread, named `prefix` + index on first use.
  uint32_t LaneOfThisThread(const std::string& prefix);
  /// Forgets which thread had which lane (a new pool reuses the lanes).
  void ResetThreadLanes();

  /// Records a complete span. `parent` names the enclosing span (empty for
  /// a root); `request` is the request id the span belongs to.
  void Span(const char* name, uint32_t lane, Clock::time_point start,
            Clock::time_point end, std::string request, const char* parent);
  /// Records a counter sample (a step on a counter track).
  void Counter(const char* name, Clock::time_point at, double value);

  /// Writes every recorded event; returns false when the file cannot be
  /// written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct SpanEvent {
    const char* name;
    const char* parent;
    uint32_t lane;
    int64_t start_ns;
    int64_t end_ns;
    std::string request;
  };
  struct CounterEvent {
    const char* name;
    int64_t at_ns;
    double value;
  };
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanEvent> spans_;
  std::vector<CounterEvent> counters_;
  std::vector<std::pair<uint32_t, std::string>> lane_names_;
  std::vector<std::thread::id> thread_lanes_;  // index + kFirstThreadLane
  static constexpr uint32_t kFirstThreadLane = 1000;
};

}  // namespace perfbench

#endif  // GQC_PERFBENCH_TRACE_H_
