// Parallel merge-drain scaling and cache-cap behaviour on the Fig. 9 merge
// scenario: MergeOperation::Merge (Algorithm 2) drains the PC-pruned,
// PR-seeded candidate list through the shared ExecutionCore with
// 1/2/4/8 workers.
//
// Reported per worker count:
//  - execs:       component executions. Must be IDENTICAL across worker
//    counts — the artifact cache's in-flight leases dedup racing prefixes.
//  - makespan(s): virtual wall-clock of the candidate drain (list-scheduled
//    over virtual worker slots; the repo-wide SimClock convention).
//  - CPT(s):      cumulative pipeline time (worker-count-invariant).
//  - speedup:     serial makespan / parallel makespan. Target: >= 2x at 4.
//  - best:        winning candidate's score. Must match serial exactly.
//
// A second section re-runs the merge with a byte cap on the artifact cache
// (60% of the uncapped peak): peak resident bytes must stay under the cap,
// evictions must actually happen, and the winner must be unchanged —
// eviction degrades to recomputation, never to a different merge result.
// Its `capped w>1` lines depend on timing and are not fingerprints: with
// several workers, concurrent candidates race the cache's evictions, so
// peak bytes and execs differ from run to run (only `capped w=1` repeats).
// The cap check holds through its `2 * workers * largest_entry` slack.
//
// Exit status is the PASS/FAIL verdict, so CI can gate on it. Flags:
// --short (fewer worker counts/workloads for CI), --json <path> (write the
// BENCH_micro_merge.json trajectory artifact).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "merge/merge_op.h"
#include "pipeline/execution_core.h"
#include "sim/scenario.h"

namespace mlcask {
namespace {

constexpr double kScale = 0.15;

struct MergePoint {
  size_t workers = 0;
  uint64_t executions = 0;
  double makespan_s = 0;
  double cpt_s = 0;
  double best_score = 0;
  double cpu_ms = 0;
  uint64_t cache_peak_bytes = 0;
  uint64_t cache_evictions = 0;
  uint64_t largest_entry_bytes = 0;
};

/// Runs one full metric-driven merge of the Fig. 9 two-branch scenario on a
/// fresh deployment. `widen` adds extra trained model versions on dev (same
/// knob as the parallel-search bench) so the frontier is broad enough for
/// worker scaling to show.
MergePoint RunMerge(const std::string& workload, size_t workers, int widen,
                    uint64_t cache_max_bytes) {
  // num_workers sizes the deployment pool's REAL threads too, so the drain
  // races genuinely concurrent workers (on multi-core hosts) rather than
  // an inline pool.
  auto d = bench::CheckedValue(
      sim::MakeDeployment(workload, kScale, /*folder_storage=*/false,
                          workers),
      "MakeDeployment");
  bench::CheckOk(
      sim::BuildTwoBranchScenario(d.get(), /*extra_model_versions=*/widen)
          .status(),
      "BuildTwoBranchScenario");
  merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                           d->registry.get(), d->engine.get(),
                           d->clock.get());
  merge::MergeOptions opts;
  opts.num_workers = workers;
  opts.core = d->core.get();  // the deployment-wide shared pool
  opts.cache_max_bytes = cache_max_bytes;
  auto start = std::chrono::steady_clock::now();
  auto report = bench::CheckedValue(op.Merge("master", "dev", opts), "Merge");
  auto elapsed = std::chrono::steady_clock::now() - start;

  MergePoint point;
  point.workers = workers;
  point.executions = report.component_executions;
  point.makespan_s = report.makespan_s;
  point.cpt_s = report.total_time.Total();
  point.best_score = report.best_score;
  point.cpu_ms = std::chrono::duration<double, std::milli>(elapsed).count();
  point.cache_peak_bytes = report.cache_stats.peak_bytes;
  point.cache_evictions = report.cache_stats.evictions;
  point.largest_entry_bytes = report.cache_stats.largest_entry_bytes;
  return point;
}

bool RunWorkload(const std::string& workload, const bench::BenchArgs& args,
                 bench::JsonReporter* reporter) {
  bench::Section(workload);
  const int widen = 4;
  const std::vector<size_t> worker_counts =
      args.short_mode ? std::vector<size_t>{1, 4}
                      : std::vector<size_t>{1, 2, 4, 8};

  // --- Worker scaling, unbounded cache --------------------------------
  std::vector<MergePoint> points;
  for (size_t workers : worker_counts) {
    points.push_back(RunMerge(workload, workers, widen, /*cache=*/0));
  }
  const MergePoint& serial = points.front();

  std::printf("%8s%10s%14s%10s%10s%10s%12s\n", "workers", "execs",
              "makespan(s)", "CPT(s)", "speedup", "cpu(ms)", "best");
  for (const MergePoint& p : points) {
    std::printf("%8zu%10llu%14.2f%10.1f%10.2f%10.1f%12.4f\n", p.workers,
                static_cast<unsigned long long>(p.executions), p.makespan_s,
                p.cpt_s, serial.makespan_s / p.makespan_s, p.cpu_ms,
                p.best_score);
  }

  bool ok = true;
  double speedup_at_4 = 0;
  for (const MergePoint& p : points) {
    if (p.executions != serial.executions) {
      std::printf("FAIL: executions at %zu workers (%llu) differ from serial "
                  "(%llu)\n",
                  p.workers, static_cast<unsigned long long>(p.executions),
                  static_cast<unsigned long long>(serial.executions));
      ok = false;
    }
    if (p.best_score != serial.best_score) {
      std::printf("FAIL: best score at %zu workers differs from serial\n",
                  p.workers);
      ok = false;
    }
    if (p.workers == 4) speedup_at_4 = serial.makespan_s / p.makespan_s;
    reporter->Metric(workload,
                     "makespan_s_w" + std::to_string(p.workers),
                     p.makespan_s);
  }
  std::printf("virtual makespan speedup at 4 workers: %.2fx "
              "(target >= 2x): %s\n",
              speedup_at_4, speedup_at_4 >= 2.0 ? "PASS" : "FAIL");
  ok = ok && speedup_at_4 >= 2.0;

  reporter->Metric(workload, "executions",
                   static_cast<double>(serial.executions));
  reporter->Metric(workload, "best_score", serial.best_score);
  reporter->Metric(workload, "cpt_s", serial.cpt_s);
  reporter->Metric(workload, "speedup_at_4_workers", speedup_at_4);
  reporter->Metric(workload, "uncapped_peak_cache_bytes",
                   static_cast<double>(serial.cache_peak_bytes));

  // --- Byte-bounded cache ---------------------------------------------
  // Cap at 60% of the uncapped peak: the LRU policy must keep residency
  // under the cap by trading evicted prefixes for recomputation, without
  // changing the merge result.
  const uint64_t cap =
      static_cast<uint64_t>(static_cast<double>(serial.cache_peak_bytes) * 0.6);
  std::printf("cache cap: %llu bytes (uncapped peak %llu)\n",
              static_cast<unsigned long long>(cap),
              static_cast<unsigned long long>(serial.cache_peak_bytes));
  for (size_t workers : {size_t{1}, size_t{4}}) {
    MergePoint capped = RunMerge(workload, workers, widen, cap);
    // The cap can be exceeded by the transiently pinned working set: every
    // running candidate (serial included) pins its resume checkpoint and
    // current input entry while publishing, and pinned entries are never
    // evicted — bounded by a couple of entries per worker.
    const uint64_t pin_slack = 2 * workers * capped.largest_entry_bytes;
    std::printf(
        "  capped w=%zu: peak=%llu (bound %llu) evictions=%llu execs=%llu "
        "best=%.4f\n",
        workers, static_cast<unsigned long long>(capped.cache_peak_bytes),
        static_cast<unsigned long long>(cap + pin_slack),
        static_cast<unsigned long long>(capped.cache_evictions),
        static_cast<unsigned long long>(capped.executions),
        capped.best_score);
    if (capped.cache_peak_bytes > cap + pin_slack) {
      std::printf("FAIL: capped peak exceeds its bound at %zu workers\n",
                  workers);
      ok = false;
    }
    if (capped.cache_evictions == 0) {
      std::printf("FAIL: cap below uncapped peak but nothing evicted\n");
      ok = false;
    }
    if (capped.best_score != serial.best_score) {
      std::printf("FAIL: capped merge changed the winner at %zu workers\n",
                  workers);
      ok = false;
    }
    if (capped.executions < serial.executions) {
      std::printf("FAIL: capped merge executed fewer components than "
                  "uncapped\n");
      ok = false;
    }
    const std::string prefix = "capped_w" + std::to_string(workers) + "_";
    reporter->Metric(workload, prefix + "peak_cache_bytes",
                     static_cast<double>(capped.cache_peak_bytes));
    reporter->Metric(workload, prefix + "evictions",
                     static_cast<double>(capped.cache_evictions));
    reporter->Metric(workload, prefix + "executions",
                     static_cast<double>(capped.executions));
  }
  reporter->Metric(workload, "cache_cap_bytes", static_cast<double>(cap));
  reporter->Metric(workload, "pass", ok);
  return ok;
}

}  // namespace
}  // namespace mlcask

int main(int argc, char** argv) {
  using namespace mlcask;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("micro_merge_parallel",
                "parallel merge drain: worker scaling + byte-bounded cache");
  std::printf("fig9 two-branch scenario, scale=%.2f%s\n", kScale,
              args.short_mode ? " (short mode)" : "");
  bench::JsonReporter reporter("micro_merge_parallel");
  const std::vector<std::string> workloads =
      args.short_mode ? std::vector<std::string>{"readmission"}
                      : std::vector<std::string>{"readmission", "sa"};
  bool ok = true;
  for (const std::string& workload : workloads) {
    ok = RunWorkload(workload, args, &reporter) && ok;
  }
  reporter.Metric("summary", "pass", ok);
  reporter.Write(args.json_path);
  return ok ? 0 : 1;
}
