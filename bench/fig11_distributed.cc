// Reproduces Fig. 11 twice over:
//  (a) the legacy closed-form simulation — training loss vs simulated
//      wall-clock for synchronous data-parallel training on 1/2/4/8 GPUs (a
//      real MLP stands in for ResNet18) and the pipeline-time speedup law
//      1/((1-p)+p/k);
//  (b) the REAL distributed engine — the same scaling question asked of the
//      actual stack: a sharded storage deployment (ShardedStorageEngine over
//      loopback RemoteStorageEngine proxies, so every call crosses the wire
//      format) running MergeOperation::Merge with MergeOptions::shards ∈
//      {1,2,4,8} on the widened two-branch scenario. Both curves print side
//      by side: the analytic all-reduce speedup and the measured virtual
//      makespan speedup of the sharded candidate drain.
//
// PASS requires the sharded merges to reproduce the single-node winner and
// execution count exactly and the 4-shard drain to be >= 2x faster than
// 1-shard; the exit status is the verdict, so CI gates on it. Flags:
// --short (fewer shard counts), --json <path> (write the
// BENCH_fig11_distributed.json trajectory artifact), --socket=1 (host every
// shard in its own mlcask_server OS process over unix: endpoints — the
// same merges, now crossing real process boundaries; results must stay
// bit-identical, and the JSON lands under a `real_engine_socket` section so
// socket history gates separately from loopback history).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "merge/merge_op.h"
#include "sim/distributed.h"
#include "sim/scenario.h"
#include "storage/server_cluster.h"
#include "storage/sharded_engine.h"

#ifndef MLCASK_SERVER_BIN
#define MLCASK_SERVER_BIN ""
#endif

namespace mlcask {
namespace {

void LossVsTime(bench::JsonReporter* reporter) {
  bench::Section("Fig. 11a — training loss vs time (simulated s)");
  // A real training job: 2-D blobs, 800 examples, 24 epochs.
  Pcg32 rng(11);
  ml::Matrix x(800, 4);
  std::vector<double> y(800);
  for (size_t i = 0; i < 800; ++i) {
    bool pos = rng.Bernoulli(0.5);
    for (size_t j = 0; j < 4; ++j) {
      x.At(i, j) = (pos ? 0.8 : -0.8) + rng.NextGaussian();
    }
    y[i] = pos ? 1.0 : 0.0;
  }
  ml::MlpConfig cfg;
  cfg.hidden_units = 16;
  cfg.sgd.epochs = 24;

  std::printf("%-8s", "time(s)");
  const size_t gpu_counts[] = {1, 2, 4, 8};
  std::vector<std::vector<sim::LossCurvePoint>> curves;
  for (size_t gpus : gpu_counts) {
    sim::DistributedConfig dc;
    dc.gpus = gpus;
    dc.base_epoch_seconds = 30.0;
    curves.push_back(bench::CheckedValue(
        sim::SimulateDistributedTraining(x, y, cfg, dc),
        "SimulateDistributedTraining"));
    std::printf("%12s", ("loss@" + std::to_string(gpus) + "gpu").c_str());
  }
  std::printf("\n");
  // Sample the curves on a common time grid.
  for (double t = 60.0; t <= 720.0; t += 60.0) {
    std::printf("%-8.0f", t);
    for (const auto& curve : curves) {
      double loss = curve.front().loss;
      for (const auto& p : curve) {
        if (p.time_s <= t) loss = p.loss;
      }
      std::printf("%12.4f", loss);
    }
    std::printf("\n");
  }
  for (size_t i = 0; i < std::size(gpu_counts); ++i) {
    const double speedup = sim::DistributedSpeedup(gpu_counts[i], 0.06);
    std::printf("throughput speedup @%zu GPUs: %.2fx\n", gpu_counts[i],
                speedup);
    reporter->Metric("fig11a_sim",
                     "speedup_" + std::to_string(gpu_counts[i]) + "gpu",
                     speedup);
  }
}

void SpeedupSurface() {
  bench::Section("Fig. 11b — pipeline time speedup 1/((1-p)+p/k)");
  std::printf("%-8s", "p \\ k");
  const double ks[] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (double k : ks) std::printf("%8.0f", k);
  std::printf("\n");
  for (double p = 0.1; p <= 0.95; p += 0.1) {
    double pp = p > 0.9 ? 0.95 : p;  // include the paper's p>0.9 regime
    std::printf("%-8.2f", pp);
    for (double k : ks) {
      std::printf("%8.2f", sim::PipelineTimeSpeedup(pp, k));
    }
    std::printf("\n");
    if (pp >= 0.95) break;
  }
}

constexpr double kScale = 0.12;

struct ShardPoint {
  size_t shards = 0;
  uint64_t executions = 0;
  double makespan_s = 0;
  double best_score = 0;
  size_t candidates = 0;
  /// Mean over max of the per-shard virtual drains: 1.00 when every shard
  /// finishes together, 1/shards when one shard does all the work.
  double balance = 0;
  /// 2PC commits during the MERGE itself (scenario-build commits excluded):
  /// the winner's PutMany batch plus the merge-commit metadata write.
  uint64_t merge_two_phase_commits = 0;
  /// Peak round trips one transaction phase had in flight at once — the
  /// accounting witness that the 2PC fan-out overlaps (> 1 when sharded).
  uint64_t max_inflight_round_trips = 0;
  double wall_ms = 0;  ///< Real steady-clock time of the merge call.
};

/// One full metric-driven merge of the widened fig11 scenario on a fresh
/// deployment whose storage is ACTUALLY sharded `shards` ways — behind
/// loopback remote proxies, or (socket mode) behind per-shard
/// mlcask_server OS processes dialed over unix: endpoints.
ShardPoint RunRealMerge(size_t shards, bool socket_mode) {
  storage::LocalServerCluster servers;
  sim::DeploymentConfig config;
  config.num_workers = 1;
  config.storage_shards = shards;
  if (socket_mode) {
    storage::LocalServerCluster::Options server_options;
    server_options.server_binary = MLCASK_SERVER_BIN;
    bench::CheckOk(servers.Start(shards, server_options),
                   "LocalServerCluster::Start");
    config.storage_endpoints = servers.endpoints();
  }
  auto d = bench::CheckedValue(
      sim::MakeDeployment("readmission", kScale, config), "MakeDeployment");
  bench::CheckOk(sim::BuildDistributedMergeScenario(
                     d.get(), /*extra_extractor_versions=*/2,
                     /*extra_model_versions=*/4)
                     .status(),
                 "BuildDistributedMergeScenario");
  merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                           d->registry.get(), d->engine.get(),
                           d->clock.get());
  merge::MergeOptions options;
  options.shards = shards;
  auto* sharded =
      dynamic_cast<storage::ShardedStorageEngine*>(d->engine.get());
  const uint64_t commits_before =
      sharded != nullptr ? sharded->two_phase_stats().commits : 0;
  const auto wall_start = std::chrono::steady_clock::now();
  auto report =
      bench::CheckedValue(op.Merge("master", "dev", options), "Merge");
  const auto wall_end = std::chrono::steady_clock::now();

  ShardPoint point;
  point.shards = shards;
  point.wall_ms = std::chrono::duration<double, std::milli>(wall_end -
                                                            wall_start)
                      .count();
  point.executions = report.component_executions;
  point.makespan_s = report.makespan_s;
  point.best_score = report.best_score;
  point.candidates = report.candidates_considered;
  double drain_sum = 0;
  double drain_max = 0;
  for (double drain_s : report.shard_makespans_s) {
    drain_sum += drain_s;
    drain_max = std::max(drain_max, drain_s);
  }
  if (drain_max > 0) {
    point.balance = drain_sum /
                    static_cast<double>(report.shard_makespans_s.size()) /
                    drain_max;
  }
  if (sharded != nullptr) {
    auto tp = sharded->two_phase_stats();
    point.merge_two_phase_commits = tp.commits - commits_before;
    point.max_inflight_round_trips = tp.max_inflight_round_trips;
  }
  return point;
}

bool RealEngineScaling(const bench::BenchArgs& args, bool socket_mode,
                       bench::JsonReporter* reporter) {
  bench::Section(socket_mode
                     ? "Fig. 11 (real engine, SOCKET) — merge drain scaling "
                       "over per-shard mlcask_server processes"
                     : "Fig. 11 (real engine) — sharded merge drain scaling");
  const std::vector<size_t> shard_counts =
      args.short_mode ? std::vector<size_t>{1, 4}
                      : std::vector<size_t>{1, 2, 4, 8};
  // Socket history must not mix with loopback history in bench_compare:
  // the wall-clock profile differs even though results are bit-identical.
  const std::string section =
      socket_mode ? "real_engine_socket" : "real_engine";

  std::vector<ShardPoint> points;
  for (size_t shards : shard_counts) {
    points.push_back(RunRealMerge(shards, socket_mode));
  }
  const ShardPoint& single = points.front();

  std::printf("fig11 merge scenario: %zu candidates, scale=%.2f\n",
              single.candidates, kScale);
  std::printf("%8s%8s%10s%14s%10s%10s%12s%8s%10s%10s\n", "shards", "balance",
              "execs", "makespan(s)", "measured", "analytic", "best",
              "2pc", "inflight", "wall(ms)");
  bool ok = true;
  double speedup_at_4 = 0;
  for (const ShardPoint& p : points) {
    const double measured = single.makespan_s / p.makespan_s;
    const double analytic = sim::DistributedSpeedup(p.shards, 0.06);
    std::printf("%8zu%8.2f%10llu%14.2f%9.2fx%9.2fx%12.4f%8llu%10llu%10.1f\n",
                p.shards, p.balance,
                static_cast<unsigned long long>(p.executions), p.makespan_s,
                measured, analytic, p.best_score,
                static_cast<unsigned long long>(p.merge_two_phase_commits),
                static_cast<unsigned long long>(p.max_inflight_round_trips),
                p.wall_ms);
    if (p.shards > 1 && p.max_inflight_round_trips < 2) {
      // The async fan-out must be visible in the round-trip ledger: a
      // sharded merge commits replicated metadata + the winner batch, so
      // some transaction overlapped >= 2 round trips. A regression to the
      // serial issue-one-wait-one loop pins the peak at 1.
      std::printf("FAIL: max inflight round trips at %zu shards is %llu "
                  "(expected >= 2: overlapped 2pc fan-out)\n",
                  p.shards,
                  static_cast<unsigned long long>(
                      p.max_inflight_round_trips));
      ok = false;
    }
    if (p.executions != single.executions) {
      std::printf("FAIL: executions at %zu shards (%llu) differ from "
                  "single-node (%llu)\n",
                  p.shards, static_cast<unsigned long long>(p.executions),
                  static_cast<unsigned long long>(single.executions));
      ok = false;
    }
    if (p.best_score != single.best_score) {
      std::printf("FAIL: best score at %zu shards differs from single-node\n",
                  p.shards);
      ok = false;
    }
    if (p.shards > 1 && p.merge_two_phase_commits < 2) {
      // The merge itself must transact at least twice: the winner's
      // atomic PutMany batch and the replicated merge-commit write. A
      // regression to uncoordinated per-key winner puts trips this.
      std::printf("FAIL: merge ran %llu 2pc commit(s), expected >= 2 "
                  "(winner batch + merge commit)\n",
                  static_cast<unsigned long long>(p.merge_two_phase_commits));
      ok = false;
    }
    if (p.shards == 4) speedup_at_4 = measured;
    reporter->Metric(section, "makespan_s_shards" + std::to_string(p.shards),
                     p.makespan_s);
    reporter->Metric(section, "speedup_shards" + std::to_string(p.shards),
                     measured);
    // Recorded, not gated (no makespan/speedup tag): the real merge wall
    // time, where socket round trips actually cost something.
    reporter->Metric(section,
                     "real_wall_ms_shards" + std::to_string(p.shards),
                     p.wall_ms);
    reporter->Metric(section,
                     "max_inflight_round_trips_shards" +
                         std::to_string(p.shards),
                     static_cast<double>(p.max_inflight_round_trips));
  }
  std::printf("virtual makespan speedup at 4 shards: %.2fx (target >= 2x): "
              "%s\n",
              speedup_at_4, speedup_at_4 >= 2.0 ? "PASS" : "FAIL");
  ok = ok && speedup_at_4 >= 2.0;

  reporter->Metric(section, "candidates",
                   static_cast<double>(single.candidates));
  reporter->Metric(section, "executions",
                   static_cast<double>(single.executions));
  reporter->Metric(section, "best_score", single.best_score);
  reporter->Metric(section, "speedup_at_4_shards", speedup_at_4);
  return ok;
}

}  // namespace
}  // namespace mlcask

int main(int argc, char** argv) {
  using namespace mlcask;
  bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, {{"--socket", 0}});
  const bool socket_mode = args.ints.at("--socket") != 0;
  bench::Banner("Fig. 11", "distributed training: simulation + real engine");
  bench::JsonReporter reporter("fig11_distributed");
  LossVsTime(&reporter);
  SpeedupSurface();
  bool ok = RealEngineScaling(args, socket_mode, &reporter);
  reporter.Metric("summary", "pass", ok);
  reporter.Metric("summary", "socket_mode", socket_mode);
  reporter.Write(args.json_path);
  return ok ? 0 : 1;
}
