// The benchmark's three workloads. Each runs against real mlcask_server
// processes, times its user-facing operations with the steady clock, checks
// every result for correctness, and returns named metrics.
//
// Every workload reports the same end-to-end metric names; what "main" and
// "side" time is workload-specific (see perfbench/README.md):
//
//   workload        main operation                 side operation
//   merge_sharded   MergeOperation::Merge(4)       the same merge outside its drains
//   history_mixed   pipeline update + commit       checkout of an old commit
//   service_open    merge session at `low` rate    merge session at `mid`

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: decorated deployment, spans recorded on alternate
  /// operations, per-layer metrics reported instead of end-to-end ones.
  bool trace = false;
  std::string trace_path;  ///< Where the spans are written (traced runs).
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< Units: MetricSpec tables.
  std::vector<std::string> mismatches;  ///< Why `correct` is false.
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints.
const std::vector<MetricSpec>& EndToEndMetrics();
/// The per-layer metrics every traced run prints (0 where a layer is not
/// exercised by the workload).
const std::vector<MetricSpec>& PerLayerMetrics();

mlcask::StatusOr<RunResult> RunMergeSharded(const RunConfig& config);
mlcask::StatusOr<RunResult> RunHistoryMixed(const RunConfig& config);
mlcask::StatusOr<RunResult> RunServiceOpen(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
