// perfbench — the MLCask benchmark binary.
//
//   perfbench --workload merge_sharded|history_mixed|service_open
//             --seed N --seconds S --trace 0|1
//             --run-dir DIR [--trace-file PATH]
//
// Runs one workload against freshly spawned mlcask_server processes (their
// sockets and logs live in DIR), checks every result, and prints as the last
// stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. Diagnostics go to stderr. Exit status 0 means a result was
// printed; anything else means the run could not complete.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload merge_sharded|history_mixed|"
               "service_open --seed N --seconds S --trace 0|1 --run-dir DIR "
               "[--trace-file PATH]\n");
  return 2;
}

void PrintResult(const perfbench::RunResult& r,
                 const std::vector<perfbench::MetricSpec>& specs) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const perfbench::MetricSpec& spec : specs) {
    auto it = r.metrics.find(spec.name);
    double value = it == r.metrics.end() ? 0 : it->second;
    if (!std::isfinite(value)) value = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, run_dir, trace_file;
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--run-dir") {
      run_dir = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || run_dir.empty() || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage();
  }
  config.trace_path = trace_file.empty() ? "trace.jsonl" : trace_file;
  if (::chdir(run_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter run directory %s\n", run_dir.c_str());
    return 1;
  }

  mlcask::StatusOr<perfbench::RunResult> result =
      mlcask::Status::InvalidArgument("unknown workload '" + workload + "'");
  if (workload == "merge_sharded") {
    result = perfbench::RunMergeSharded(config);
  } else if (workload == "history_mixed") {
    result = perfbench::RunHistoryMixed(config);
  } else if (workload == "service_open") {
    result = perfbench::RunServiceOpen(config);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& why : result->mismatches) {
    std::fprintf(stderr, "MISMATCH: %s\n", why.c_str());
  }
  PrintResult(*result, config.trace ? perfbench::PerLayerMetrics()
                                    : perfbench::EndToEndMetrics());
  return 0;
}
