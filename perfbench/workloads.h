// The benchmark's workloads: set-up, measured passes, answer checks and the
// metrics they report.
#ifndef GQC_PERFBENCH_WORKLOADS_H_
#define GQC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measured-phase length; the phase ends after the pass that crosses it.
  double seconds = 10;
  /// Traced run: alternate untraced and traced passes, report per-layer
  /// metrics, and write the spans to `trace_path` (if set).
  bool trace = false;
  std::string trace_path;
  /// When > 0, run exactly this many measured passes instead of `seconds`
  /// (tests use it to compare fixed counts between runs).
  std::size_t passes = 0;
  /// Test hook: "flip" or "wrong-known" corrupts one received verdict
  /// before it is checked, so the run must fail.
  std::string fault;
  /// Sensitivity checks of the serve workloads: the Zipf exponent (below 0:
  /// the workload's own) and the popularity ranking (0: dealt over schemas
  /// and pairs; above 0: a fixed random permutation). See QuotaStream.
  double zipf = -1;
  uint64_t ranking = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines: fixed counts, the workload's purpose, samples.
  std::vector<std::string> lines;
  std::vector<std::string> violations;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload in this process. Infrastructure failures (the server
/// cannot listen, a thread cannot start) come back as violations.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // GQC_PERFBENCH_WORKLOADS_H_
