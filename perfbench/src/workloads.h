// The four benchmark workloads, each driving the real castream path in
// this process: writers -> ShardedDriver (HotKeyBuffer, shard queues,
// InsertBatch) -> SerializeShardSnapshot -> ShardPublisher -> loopback TCP
// -> SnapshotReducer [-> RelayNode -> root] -> QueryServed.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs write their spans here (tab-separated); empty skips it.
  std::string trace_out;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The end-to-end metrics (untraced run) or the per-layer metrics
  /// (traced run) of BENCHMARK.json, by name.
  std::map<std::string, double> metrics;
  /// Everything else worth reading: workload-specific end-to-end numbers
  /// (visibility, generator lag, wire bytes, failed_ops_frac), sample
  /// counts, supported tail percentiles and the stage breakdown.
  std::map<std::string, double> report;
  std::vector<std::string> errors;
};

/// \brief Whether `name` is one of the workloads RunWorkload knows.
bool KnownWorkload(const std::string& name);

/// \brief Runs one workload for options.seconds of measurement (plus
/// set-up, warm-up and checks) and returns its metrics.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
