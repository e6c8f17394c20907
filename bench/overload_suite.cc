// overload_suite — the graceful-degradation acceptance gate: adversarial
// workloads (sim/adversarial.h) drive real socket clusters OPEN LOOP at
// 1×/2×/4× of measured capacity under PR 7 fault schedules, with a per-call
// deadline stamped on every request. The invariant scored here is the
// overload contract of the admission/deadline/retry-budget stack:
//
//   every request ends in success or a TYPED ResourceExhausted /
//   DeadlineExceeded (or other typed status) within deadline+ε — never a
//   hang, never an unbounded wait — while server queue depth stays at or
//   under its admission cap and process RSS stays bounded; goodput at 4×
//   offered load retains ≥70% of 1× goodput (degradation, not collapse).
//
// ε is derived from accounting, not guessed: a call's absolute wall bound
// is max_call_replays redial episodes × redial_budget_ms each, and a 2PC
// write runs three sequential phases, so with the client tuned to
// 4 replays × 500ms budget the bound is 3 × 4 × 500ms = 6s; ε = 8s adds
// the deadline itself plus scheduling slop. Anything past that is a hang.
//
// A merges-racing-commits pass then runs the full two-branch merge while
// racer threads land replicated 2PC commits through the same cluster: the
// merge must end typed, a successful merge must be BIT-IDENTICAL to the
// fault-free reference fingerprint, and every acknowledged racer commit
// must read back — never a lost key.
//
// Flags: --short (fewer seeds, shorter levels), --json <path>.
// Gated metrics (tools/bench_compare.py): hangs / wrong_winners /
// deadline_overruns / race_lost_keys are EXACT zero-tolerance;
// shed_typed_* and the goodput numbers are counted for the trajectory.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "merge/merge_op.h"
#include "sim/adversarial.h"
#include "sim/scenario.h"
#include "storage/deadline.h"
#include "storage/fault_injector.h"
#include "storage/forkbase_engine.h"
#include "storage/remote_engine.h"
#include "storage/server_cluster.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"

namespace mlcask {
namespace {

// Per-request budget stamped by the open-loop driver.
constexpr uint64_t kDeadlineMs = 500;
// Derived overrun bound — see the file banner for the accounting.
constexpr uint64_t kEpsilonMs = 8000;
// Server-wide admission cap for the saturation clusters: small enough that
// 4× offered load must shed, large enough that 1× rarely does.
constexpr size_t kQueueCap = 256;

/// In-process socket servers: same wire, same epoll loop, same admission
/// control as mlcask_server processes, but with queue/shed counters
/// readable directly instead of scraped from log lines.
struct InProcessCluster {
  std::vector<std::unique_ptr<storage::StorageEngineService>> services;
  std::vector<std::unique_ptr<storage::SocketTransportServer>> servers;
  std::vector<std::string> endpoints;

  void Start(size_t shards, const std::string& tag,
             const std::string& server_fault_spec) {
    for (size_t s = 0; s < shards; ++s) {
      std::unique_ptr<storage::StorageEngine> engine =
          std::make_unique<storage::ForkBaseEngine>();
      storage::SocketTransportServer::Options options;
      options.max_queued_jobs = kQueueCap;
      if (!server_fault_spec.empty()) {
        auto spec = storage::FaultSpec::Parse(server_fault_spec);
        bench::CheckOk(spec.status(), "server fault spec");
        auto injector = std::make_shared<storage::FaultInjector>(*spec);
        engine = std::make_unique<storage::FaultyEngine>(std::move(engine),
                                                         injector);
        options.injector = injector;
      }
      services.push_back(
          std::make_unique<storage::StorageEngineService>(std::move(engine)));
      const std::string spec = "unix:/tmp/mlcask-overload-" +
                               std::to_string(::getpid()) + "-" + tag + "-" +
                               std::to_string(s) + ".sock";
      auto server = bench::CheckedValue(
          storage::SocketTransportServer::Bind(spec, options), "bind");
      storage::StorageEngineService* service = services.back().get();
      bench::CheckOk(
          server->Serve([service](std::string_view request) {
            return service->Handle(request);
          }),
          "serve");
      endpoints.push_back(server->endpoint());
      servers.push_back(std::move(server));
    }
  }

  uint64_t peak_queued_jobs() const {
    uint64_t peak = 0;
    for (const auto& s : servers) peak = std::max(peak, s->peak_queued_jobs());
    return peak;
  }
  uint64_t peak_queued_bytes() const {
    uint64_t peak = 0;
    for (const auto& s : servers) {
      peak = std::max(peak, s->peak_queued_bytes());
    }
    return peak;
  }
  uint64_t shed_jobs() const {
    uint64_t total = 0;
    for (const auto& s : servers) total += s->shed_jobs();
    return total;
  }
  uint64_t expired_jobs() const {
    uint64_t total = 0;
    for (const auto& s : servers) total += s->expired_jobs();
    return total;
  }
};

/// Client options tuned so the per-call wall bound above actually holds.
storage::SocketTransport::Options ClientOptions(uint64_t seed,
                                                const std::string& fault_spec) {
  storage::SocketTransport::Options options;
  options.call_timeout_ms = kDeadlineMs * 4;
  options.redial_budget_ms = 500;
  options.max_call_replays = 4;
  options.redial_jitter_seed = seed + 1000;
  if (!fault_spec.empty()) {
    auto spec = storage::FaultSpec::Parse(fault_spec);
    bench::CheckOk(spec.status(), "client fault spec");
    options.injector = std::make_shared<storage::FaultInjector>(*spec);
  }
  return options;
}

struct LevelResult {
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t shed_typed = 0;      ///< ResourceExhausted outcomes.
  uint64_t deadline_typed = 0;  ///< DeadlineExceeded outcomes.
  uint64_t other_failures = 0;  ///< Other typed statuses (all still typed).
  uint64_t overruns = 0;        ///< Wall latency past deadline+ε.
  double goodput_rps = 0;       ///< Successes per wall second.
};

/// The open-loop driver: requests are released on a FIXED schedule derived
/// from the offered rate — a slow cluster makes the drivers fall behind and
/// requests shed or expire, it never makes the generator pause (that
/// closed-loop mercy is exactly what hides overload collapse).
LevelResult RunLevel(storage::StorageEngine* engine,
                     const std::vector<sim::AdversarialRequest>& stream,
                     double offered_rps) {
  LevelResult result;
  result.offered = stream.size();
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / (offered_rps > 1 ? offered_rps : 1)));
  const size_t workers =
      std::max<size_t>(8, static_cast<size_t>(offered_rps * kDeadlineMs /
                                              1000.0 / 250.0));
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> ok{0}, shed{0}, deadline{0}, other{0}, overruns{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        std::this_thread::sleep_until(start + interval * i);
        const auto begin = std::chrono::steady_clock::now();
        Status status;
        {
          storage::DeadlineBudget budget(kDeadlineMs);
          storage::DeadlineScope scope(&budget);
          status = sim::ApplyAdversarialRequest(engine, stream[i]);
        }
        const uint64_t wall_ms =
            static_cast<uint64_t>(std::chrono::duration_cast<
                                      std::chrono::milliseconds>(
                                      std::chrono::steady_clock::now() - begin)
                                      .count());
        if (wall_ms > kDeadlineMs + kEpsilonMs) overruns.fetch_add(1);
        if (status.ok()) {
          ok.fetch_add(1);
        } else if (status.IsResourceExhausted()) {
          shed.fetch_add(1);
        } else if (status.IsDeadlineExceeded()) {
          deadline.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.ok = ok.load();
  result.shed_typed = shed.load();
  result.deadline_typed = deadline.load();
  result.other_failures = other.load();
  result.overruns = overruns.load();
  result.goodput_rps = elapsed_s > 0 ? result.ok / elapsed_s : 0;
  return result;
}

/// VmHWM from /proc/self/status, in MiB (0 when unreadable) — the whole
/// bench is one process, servers included, so this IS the server RSS bound.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

struct MergeFingerprint {
  uint64_t executions = 0;
  double best_score = 0;
  int best_index = -1;
  std::vector<std::string> winner_chain;

  bool operator==(const MergeFingerprint& other) const {
    return executions == other.executions && best_score == other.best_score &&
           best_index == other.best_index &&
           winner_chain == other.winner_chain;
  }
};

StatusOr<MergeFingerprint> FingerprintOf(const merge::MergeReport& report) {
  MergeFingerprint fp;
  fp.executions = report.component_executions;
  fp.best_score = report.best_score;
  fp.best_index = report.best_index;
  if (report.best_index < 0 ||
      static_cast<size_t>(report.best_index) >= report.outcomes.size()) {
    return Status::Internal("merge report has no winner");
  }
  for (const pipeline::ComponentVersionSpec* spec :
       report.outcomes[static_cast<size_t>(report.best_index)].chain) {
    fp.winner_chain.push_back(spec->Key());
  }
  return fp;
}

}  // namespace
}  // namespace mlcask

int main(int argc, char** argv) {
  using namespace mlcask;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("overload_suite",
                "open-loop saturation: adversarial load at 1x/2x/4x capacity");
  bench::JsonReporter reporter("overload_suite");

  const std::vector<uint64_t> seeds = args.short_mode
                                          ? std::vector<uint64_t>{7}
                                          : std::vector<uint64_t>{7, 23};
  const size_t kShards = 4;
  const double level_seconds = args.short_mode ? 2.0 : 5.0;
  const std::vector<double> multipliers = {1.0, 2.0, 4.0};

  sim::AdversarialOptions adversarial;  // deep 1000-version chain + tenants

  // --- saturation sweep ---------------------------------------------------
  bench::Section("open-loop saturation");
  const uint64_t seed = seeds.front();
  InProcessCluster cluster;
  cluster.Start(kShards, "sat",
                "seed=" + std::to_string(seed) + ",delay_ms=2:0.05");
  auto engine = bench::CheckedValue(
      storage::ConnectCluster(
          cluster.endpoints,
          ClientOptions(seed, "seed=" + std::to_string(seed + 1) +
                                  ",drop=0.01,dropafter=0.01")),
      "connect saturation cluster");

  sim::AdversarialSeedReport seeded =
      sim::SeedAdversarialState(engine.get(), adversarial);
  std::printf("seeded adversarial state: %llu acked, %llu typed failures\n",
              static_cast<unsigned long long>(seeded.acked_writes),
              static_cast<unsigned long long>(seeded.typed_failures));

  // Capacity yardstick: closed-loop single-threaded over the same request
  // mix. Only the RATIO between levels matters, so measuring through the
  // live injectors is fine — every level shares the distortion.
  const std::vector<sim::AdversarialRequest> probe =
      sim::MakeAdversarialStream(adversarial, 256);
  const auto probe_start = std::chrono::steady_clock::now();
  for (const sim::AdversarialRequest& request : probe) {
    (void)sim::ApplyAdversarialRequest(engine.get(), request);
  }
  const double probe_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - probe_start)
                             .count();
  double capacity_rps = probe_s > 0 ? probe.size() / probe_s : 100.0;
  if (capacity_rps < 50) capacity_rps = 50;  // degenerate-box floor
  std::printf("measured capacity: %.0f req/s\n", capacity_rps);
  reporter.Metric("saturation", "capacity_rps", capacity_rps);

  uint64_t deadline_overruns = 0;
  uint64_t shed_typed_total = 0;
  std::map<int, LevelResult> levels;
  for (double mult : multipliers) {
    sim::AdversarialOptions stream_options = adversarial;
    stream_options.seed = seed + static_cast<uint64_t>(mult);
    const size_t offered = std::min<size_t>(
        20000,
        static_cast<size_t>(capacity_rps * mult * level_seconds));
    const std::vector<sim::AdversarialRequest> stream =
        sim::MakeAdversarialStream(stream_options, offered);
    LevelResult level = RunLevel(engine.get(), stream, capacity_rps * mult);
    const int key = static_cast<int>(mult);
    levels[key] = level;
    deadline_overruns += level.overruns;
    shed_typed_total += level.shed_typed;
    std::printf(
        "%dx: offered %llu | ok %llu shed %llu deadline %llu other %llu | "
        "goodput %.0f req/s | overruns %llu\n",
        key, static_cast<unsigned long long>(level.offered),
        static_cast<unsigned long long>(level.ok),
        static_cast<unsigned long long>(level.shed_typed),
        static_cast<unsigned long long>(level.deadline_typed),
        static_cast<unsigned long long>(level.other_failures),
        level.goodput_rps, static_cast<unsigned long long>(level.overruns));
    const std::string tag = std::to_string(key) + "x";
    reporter.Metric("saturation", "offered_" + tag,
                    static_cast<double>(level.offered));
    reporter.Metric("saturation", "goodput_" + tag, level.goodput_rps);
    reporter.Metric("saturation", "shed_typed_" + tag,
                    static_cast<double>(level.shed_typed));
    reporter.Metric("saturation", "deadline_typed_" + tag,
                    static_cast<double>(level.deadline_typed));
    reporter.Metric("saturation", "other_failures_" + tag,
                    static_cast<double>(level.other_failures));
  }

  const double goodput_1x = levels[1].goodput_rps;
  const double goodput_4x = levels[4].goodput_rps;
  const double retention = goodput_1x > 0 ? goodput_4x / goodput_1x : 0;
  const uint64_t peak_jobs = cluster.peak_queued_jobs();
  const uint64_t peak_bytes = cluster.peak_queued_bytes();
  const double rss_mb = PeakRssMb();
  std::printf(
      "goodput retention 4x/1x: %.2f | peak queue %llu jobs / %llu bytes "
      "(cap %zu) | server sheds %llu, expired %llu | peak RSS %.0f MiB\n",
      retention, static_cast<unsigned long long>(peak_jobs),
      static_cast<unsigned long long>(peak_bytes), kQueueCap,
      static_cast<unsigned long long>(cluster.shed_jobs()),
      static_cast<unsigned long long>(cluster.expired_jobs()), rss_mb);
  reporter.Metric("saturation", "goodput_retention_4x", retention);
  reporter.Metric("saturation", "deadline_overruns",
                  static_cast<double>(deadline_overruns));
  reporter.Metric("saturation", "shed_typed",
                  static_cast<double>(shed_typed_total));
  reporter.Metric("saturation", "server_shed_jobs",
                  static_cast<double>(cluster.shed_jobs()));
  reporter.Metric("saturation", "server_expired_jobs",
                  static_cast<double>(cluster.expired_jobs()));
  reporter.Metric("saturation", "peak_queued_jobs",
                  static_cast<double>(peak_jobs));
  reporter.Metric("saturation", "peak_queued_bytes",
                  static_cast<double>(peak_bytes));
  reporter.Metric("saturation", "rss_peak_mb", rss_mb);

  // --- merges racing concurrent commits -----------------------------------
  bench::Section("merge racing concurrent commits");
  MergeFingerprint reference;
  {
    sim::DeploymentConfig config;
    config.num_workers = 1;
    auto d = bench::CheckedValue(
        sim::MakeDeployment("readmission", 0.06, config), "reference deploy");
    bench::CheckOk(sim::BuildTwoBranchScenario(d.get()).status(),
                   "reference scenario");
    merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                             d->registry.get(), d->engine.get(),
                             d->clock.get());
    auto report = bench::CheckedValue(op.Merge("master", "dev", {}),
                                      "reference merge");
    reference =
        bench::CheckedValue(FingerprintOf(report), "reference fingerprint");
  }

  uint64_t wrong_winners = 0;
  uint64_t race_merges_ok = 0;
  uint64_t race_typed_errors = 0;
  uint64_t race_lost_keys = 0;
  uint64_t racer_acked = 0;
  for (uint64_t s : seeds) {
    InProcessCluster race_servers;
    race_servers.Start(kShards, "race" + std::to_string(s),
                       "seed=" + std::to_string(s) + ",delay_ms=2:0.05");
    sim::DeploymentConfig config;
    config.num_workers = 1;
    config.storage_endpoints = race_servers.endpoints;
    config.client_fault_spec =
        "seed=" + std::to_string(s + 1) + ",drop=0.01,dropafter=0.01";
    auto deployed = sim::MakeDeployment("readmission", 0.06, config);
    if (!deployed.ok()) {
      ++race_typed_errors;
      std::printf("seed %llu: typed deploy failure: %s\n",
                  static_cast<unsigned long long>(s),
                  deployed.status().ToString().c_str());
      continue;
    }
    auto d = *std::move(deployed);
    Status scenario = sim::BuildTwoBranchScenario(d.get()).status();
    if (!scenario.ok()) {
      ++race_typed_errors;
      std::printf("seed %llu: typed scenario failure: %s\n",
                  static_cast<unsigned long long>(s),
                  scenario.ToString().c_str());
      continue;
    }
    merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                             d->registry.get(), d->engine.get(),
                             d->clock.get());
    merge::MergeOptions options;
    options.shards = kShards;
    StatusOr<MergeFingerprint> fingerprint =
        Status::Internal("merge never ran");
    sim::RaceReport race = sim::RunRacingCommits(
        d->engine.get(), /*racers=*/2, /*commits_per_racer=*/8, [&]() {
          auto report = op.Merge("master", "dev", options);
          if (!report.ok()) return report.status();
          fingerprint = FingerprintOf(*report);
          return fingerprint.status();
        });
    racer_acked += race.racer_acked;
    race_lost_keys += race.racer_lost;
    if (!race.contended_ok) {
      ++race_typed_errors;
      std::printf("seed %llu: typed merge failure under race: %s\n",
                  static_cast<unsigned long long>(s),
                  race.contended_status.c_str());
    } else if (*fingerprint == reference) {
      ++race_merges_ok;
      std::printf("seed %llu: merge fingerprint identical, %llu racer "
                  "commits acked, %llu lost\n",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(race.racer_acked),
                  static_cast<unsigned long long>(race.racer_lost));
    } else {
      ++wrong_winners;
      std::printf("seed %llu: WRONG WINNER under racing commits\n",
                  static_cast<unsigned long long>(s));
    }
  }

  // Reaching this line at all means zero hangs — the CI watchdog kills the
  // process otherwise; the metric makes the claim explicit in the report.
  const uint64_t hangs = 0;
  reporter.Metric("race", "trials", static_cast<double>(seeds.size()));
  reporter.Metric("race", "race_merges_ok",
                  static_cast<double>(race_merges_ok));
  reporter.Metric("race", "race_typed_errors",
                  static_cast<double>(race_typed_errors));
  reporter.Metric("race", "wrong_winners", static_cast<double>(wrong_winners));
  reporter.Metric("race", "racer_acked", static_cast<double>(racer_acked));
  reporter.Metric("race", "race_lost_keys",
                  static_cast<double>(race_lost_keys));
  reporter.Metric("race", "hangs", static_cast<double>(hangs));
  reporter.Write(args.json_path);

  bool fail = false;
  auto gate = [&](bool bad, const char* what) {
    if (bad) {
      std::printf("GATE FAILED: %s\n", what);
      fail = true;
    }
  };
  gate(deadline_overruns > 0, "requests exceeded deadline+epsilon");
  gate(wrong_winners > 0, "merge produced a wrong winner under racing load");
  gate(race_lost_keys > 0, "acknowledged racing commits were lost");
  gate(peak_jobs > kQueueCap, "admission queue exceeded its cap");
  gate(rss_mb > 2048, "peak RSS unbounded");
  gate(goodput_1x > 0 && retention < 0.70,
       "goodput at 4x collapsed below 70% of 1x");

  std::printf("\nOVERLOAD SUITE: %s\n", fail ? "FAIL" : "PASS");
  return fail ? 1 : 0;
}
