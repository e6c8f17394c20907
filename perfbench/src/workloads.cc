#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>

#include "cluster.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "decorators.h"
#include "deploy.h"
#include "merge/merge_op.h"
#include "pipeline/checkout.h"
#include "service/merge_client.h"
#include "service/merge_service.h"
#include "sim/linear_driver.h"
#include "stats.h"
#include "storage/socket_transport.h"
#include "trace.h"

namespace perfbench {

namespace merge = mlcask::merge;
namespace pipeline = mlcask::pipeline;
namespace service = mlcask::service;
namespace sim = mlcask::sim;
namespace storage = mlcask::storage;
using mlcask::Hash256;
using mlcask::Status;
using mlcask::StatusOr;

namespace {

/// A p90 needs 100 samples and a p99 1000 (kMinBeyond beyond each).
constexpr size_t kMinClosedLoopSamples = 100;
constexpr size_t kMinSessionsPerLevel = 1000;
/// Closed loops run a fixed number of operations per requested second, so
/// a run's work depends on --seconds alone and medians stay comparable
/// when the system gets faster.
constexpr double kClosedLoopOpsPerSecond = 5;

size_t ClosedLoopOps(double seconds) {
  return std::max(kMinClosedLoopSamples,
                  static_cast<size_t>(seconds * kClosedLoopOpsPerSecond));
}
/// A run that cannot collect its samples by then fails instead of
/// overrunning the 180 s budget of one benchmark invocation.
constexpr double kHardCapS = 150;
/// Set-up episodes per run whose median is setup_s (merge_sharded sets up
/// once per sample instead). Service set-up is milliseconds, so it takes
/// more episodes for a steady median.
constexpr int kHistorySetupEpisodes = 3;
constexpr int kServiceSetupEpisodes = 9;

double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// SplitMix64 finalizer: independent sub-seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Hash256 DigestOf(const std::vector<std::string>& parts) {
  mlcask::Sha256 sha;
  for (const std::string& part : parts) sha.Update(part);
  return sha.Finish();
}

/// Turns recording on for one traced operation and off again.
class TraceToggle {
 public:
  TraceToggle(Tracer* tracer, bool on) {
    Tracer::SetActive(on ? tracer : nullptr);
  }
  ~TraceToggle() { Tracer::SetActive(nullptr); }
  TraceToggle(const TraceToggle&) = delete;
  TraceToggle& operator=(const TraceToggle&) = delete;
};

// --- router / transport counters ---------------------------------------------

/// Cumulative counters read from the router and the transports beneath it;
/// traced operations accumulate their deltas.
struct Counters {
  double two_pc_transactions = 0;
  double two_pc_round_trips = 0;
  double broadcast_probes = 0;
  double rpc_request_bytes = 0;
  double rpc_response_bytes = 0;
  double rpc_chunk_frames = 0;
  double rpc_errors = 0;
  double rpc_redials = 0;
  double rpc_calls = 0;

  void AddDelta(const Counters& before, const Counters& after) {
    two_pc_transactions += after.two_pc_transactions - before.two_pc_transactions;
    two_pc_round_trips += after.two_pc_round_trips - before.two_pc_round_trips;
    broadcast_probes += after.broadcast_probes - before.broadcast_probes;
    rpc_request_bytes += after.rpc_request_bytes - before.rpc_request_bytes;
    rpc_response_bytes += after.rpc_response_bytes - before.rpc_response_bytes;
    rpc_chunk_frames += after.rpc_chunk_frames - before.rpc_chunk_frames;
    rpc_errors += after.rpc_errors - before.rpc_errors;
    rpc_redials += after.rpc_redials - before.rpc_redials;
    rpc_calls += after.rpc_calls - before.rpc_calls;
  }
};

Counters Snapshot(const BenchDeployment& bd) {
  Counters c;
  const auto tp = bd.router->two_phase_stats();
  c.two_pc_transactions = static_cast<double>(tp.transactions);
  c.two_pc_round_trips =
      static_cast<double>(tp.prepare_round_trips + tp.apply_round_trips);
  c.broadcast_probes =
      static_cast<double>(bd.router->broadcast_stats().probe_round_trips);
  for (const TracedTransport* t : bd.transports) {
    const storage::TransportStats s = t->stats();
    c.rpc_request_bytes += static_cast<double>(s.request_bytes);
    c.rpc_response_bytes += static_cast<double>(s.response_bytes);
    c.rpc_chunk_frames +=
        static_cast<double>(s.chunk_frames_sent + s.chunk_frames_received);
    c.rpc_errors += static_cast<double>(s.transport_errors);
    c.rpc_calls += static_cast<double>(s.calls);
    c.rpc_redials += static_cast<double>(t->socket().redials());
  }
  return c;
}

// --- per-layer metrics from spans -------------------------------------------

double TailOrZero(const std::vector<double>& samples, double p) {
  StatusOr<double> v = Percentile(samples, p);
  return v.ok() ? *v : 0;
}

/// Sum of the durations of spans named `name` among `spans`.
double BusyMs(const std::vector<Span>& spans, const std::string& name) {
  return Sum(DurationsMs(spans, name));
}

/// Busy time of every span whose name starts with "storage." but not
/// "storage.rpc." — the router's StorageEngine surface.
double StorageEngineBusyMs(const std::vector<Span>& spans) {
  double ms = 0;
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name.rfind("storage.", 0) == 0 && name.rfind("storage.rpc.", 0) != 0) {
      ms += s.ms();
    }
  }
  return ms;
}

/// Spans of operations whose root span is named `root`, and those roots'
/// total wall time.
std::vector<Span> SpansOfOps(const std::vector<Span>& spans, const char* root,
                             double* root_wall_ms) {
  std::map<uint64_t, bool> ops;
  *root_wall_ms = 0;
  for (const Span& s : spans) {
    if (s.parent == 0 && std::string(s.name) == root) {
      ops[s.op] = true;
      *root_wall_ms += s.ms();
    }
  }
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (ops.count(s.op) != 0) out.push_back(s);
  }
  return out;
}

void Put(RunResult* r, const std::string& name, double value) {
  r->metrics[name] = value;
}

/// The layer metrics every traced workload derives the same way.
void AddLayerMetrics(const Tracer& tracer, const Counters& counters,
                     RunResult* r) {
  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, double> counts = tracer.counters();
  auto count = [&](const char* name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };

  const std::vector<double> ml = DurationsMs(spans, "ml.fn");
  Put(r, "ml.fn_calls", static_cast<double>(ml.size()));
  Put(r, "ml.fn_busy_ms", Sum(ml));
  Put(r, "ml.fn_ms_mean", ml.empty() ? 0 : Sum(ml) / ml.size());

  Put(r, "pipeline.run_ms_p50", Median(DurationsMs(spans, "pipeline.run")));
  Put(r, "pipeline.library_put_ms_p50",
      Median(DurationsMs(spans, "pipeline.library_put")));
  Put(r, "version.commit_ms_p50", Median(DurationsMs(spans, "version.commit")));
  Put(r, "version.get_ms_p50", Median(DurationsMs(spans, "version.get")));

  double read_busy_ms = 0;
  for (const char* op :
       {"put", "put_many", "get", "get_version", "has_version", "versions"}) {
    const std::string span = std::string("storage.") + op;
    const std::vector<double> d = DurationsMs(spans, span);
    Put(r, span + ".calls", static_cast<double>(d.size()));
    Put(r, span + ".ms_p50", Median(d));
    Put(r, span + ".busy_ms", Sum(d));
    if (span == "storage.get" || span == "storage.get_version") {
      read_busy_ms += Sum(d);
    }
  }
  Put(r, "storage.errors", count("storage.errors"));
  Put(r, "storage.bytes_written", count("storage.bytes_written"));
  Put(r, "storage.bytes_read", count("storage.bytes_read"));
  Put(r, "storage.read_mb_per_s",
      read_busy_ms > 0 ? count("storage.bytes_read") / 1e3 / read_busy_ms : 0);
  Put(r, "storage.2pc.transactions", counters.two_pc_transactions);
  Put(r, "storage.2pc.round_trips", counters.two_pc_round_trips);
  Put(r, "storage.broadcast.probes", counters.broadcast_probes);

  const std::vector<double> rpc = DurationsMs(spans, "storage.rpc.call");
  Put(r, "storage.rpc.calls", counters.rpc_calls);
  Put(r, "storage.rpc.ms_p50", Median(rpc));
  Put(r, "storage.rpc.ms_p99", TailOrZero(rpc, 0.99));
  Put(r, "storage.rpc.busy_ms", Sum(rpc));
  Put(r, "storage.rpc.async_issued", count("storage.rpc.async_issued"));
  Put(r, "storage.rpc.request_bytes", counters.rpc_request_bytes);
  Put(r, "storage.rpc.response_bytes", counters.rpc_response_bytes);
  Put(r, "storage.rpc.chunk_frames", counters.rpc_chunk_frames);
  Put(r, "storage.rpc.errors", counters.rpc_errors);
  Put(r, "storage.rpc.redials", counters.rpc_redials);
  Put(r, "trace.spans", static_cast<double>(spans.size()));
}

/// Layer shares of the main and side operations (roots `main_root` and
/// `side_root`; nullptr when the side figure is a phase of the main
/// operation), which justify each workload's rationale.
void AddShares(const Tracer& tracer, const char* main_root,
               const char* side_root, RunResult* r) {
  const std::vector<Span> spans = tracer.spans();
  double main_wall = 0, side_wall = 0;
  const std::vector<Span> main = SpansOfOps(spans, main_root, &main_wall);
  const std::vector<Span> side =
      side_root == nullptr ? std::vector<Span>{}
                           : SpansOfOps(spans, side_root, &side_wall);
  auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0;
  };
  Put(r, "share.main.ml", share(BusyMs(main, "ml.fn"), main_wall));
  Put(r, "share.main.storage", share(StorageEngineBusyMs(main), main_wall));
  Put(r, "share.side.get_version",
      share(BusyMs(side, "storage.get_version"), side_wall));

  // Self time per span name across the run: where the time went, net of
  // the layers below. Printed for the reader, not reported as a metric.
  const std::map<uint64_t, double> self = SelfTimeMs(spans);
  std::map<std::string, double> by_name;
  for (const Span& s : spans) by_name[s.name] += self.at(s.id);
  std::fprintf(stderr, "self time by span (ms):\n");
  for (const auto& [name, ms] : by_name) {
    std::fprintf(stderr, "  %-28s %12.2f\n", name.c_str(), ms);
  }
}

void AddOverhead(const std::vector<double>& traced,
                 const std::vector<double>& untraced, const char* name,
                 RunResult* r) {
  Put(r, name, Median(traced) - Median(untraced));
}

/// The end-to-end timings: the medians of the main and side operations.
/// The highest percentile each sample count supports goes to stderr only:
/// slow samples come in multi-second host phases, so a p90 over one run's
/// samples measures the host (its spread across seeds was 12-37% on an
/// idle 4-core VM, against 3-14% for the median).
Status PutTimings(RunResult* r, const std::vector<double>& main_ms,
                  const std::vector<double>& side_ms) {
  MLCASK_ASSIGN_OR_RETURN(double main_p50, Percentile(main_ms, 0.5));
  MLCASK_ASSIGN_OR_RETURN(double side_p50, Percentile(side_ms, 0.5));
  Put(r, "main_ms_p50", main_p50);
  Put(r, "side_ms_p50", side_p50);
  for (const auto& [name, ms] : {std::make_pair("main", &main_ms),
                                 std::make_pair("side", &side_ms)}) {
    const double p = HighestSupportedPercentile(ms->size());
    std::fprintf(stderr, "%s: %zu samples, p50 %.2f ms, p%g %.2f ms\n", name,
                 ms->size(), TailOrZero(*ms, 0.5), p * 100,
                 TailOrZero(*ms, p));
  }
  return Status::Ok();
}

void Mismatch(RunResult* r, const std::string& why) {
  if (r->mismatches.size() < 8) r->mismatches.push_back(why);
  r->correct = false;
}

// --- checkout -----------------------------------------------------------------

/// Checks out `commit_id` into a fresh Executor: resolves the commit and its
/// component specs, reads every artifact back from storage and seeds the
/// executor's cache with it. Returns the artifact bytes in component order
/// so the caller can digest them outside the timed region.
StatusOr<std::vector<std::string>> CheckoutInto(sim::Deployment* d,
                                                const Hash256& commit_id) {
  const mlcask::version::Commit* commit = nullptr;
  {
    Tracer::Scoped span("version.get");
    MLCASK_ASSIGN_OR_RETURN(commit, d->repo->Get(commit_id));
  }
  MLCASK_ASSIGN_OR_RETURN(
      pipeline::Pipeline p,
      pipeline::MaterializePipeline(*commit, *d->libraries, d->repo->name()));
  pipeline::Executor fresh(d->registry.get(), d->engine.get(), d->clock.get());
  const auto& records = commit->snapshot.components;
  std::vector<pipeline::ComponentVersionSpec> chain;
  std::vector<std::string> artifacts;
  for (size_t i = 0; i < records.size(); ++i) {
    chain.push_back(p.components()[i]);
    if (!records[i].has_output()) continue;
    MLCASK_ASSIGN_OR_RETURN(std::string bytes,
                            d->engine->GetVersion(records[i].output_id));
    MLCASK_ASSIGN_OR_RETURN(mlcask::data::Table table,
                            mlcask::data::Table::Deserialize(bytes));
    const bool full = i + 1 == records.size();
    MLCASK_RETURN_IF_ERROR(fresh.SeedCache(
        chain, std::move(table), full ? commit->snapshot.score : std::nan(""),
        full ? commit->snapshot.metric : "", records[i].output_id,
        full ? commit->snapshot.metrics : std::map<std::string, double>{}));
    artifacts.push_back(std::move(bytes));
  }
  return artifacts;
}

// --- merge_sharded -------------------------------------------------------------

constexpr char kMergeWorkload[] = "readmission";
constexpr double kMergeScale = 0.12;
constexpr int kMergeExtraExtractors = 2;
constexpr int kMergeExtraModels = 4;
constexpr size_t kMergeShards = 4;

merge::MergeOptions MergeOptionsFor(uint64_t seed) {
  merge::MergeOptions options;
  options.shards = kMergeShards;
  options.seed = seed;
  return options;
}

struct MergeReference {
  Hash256 fingerprint;
  uint64_t executions = 0;
};

/// The same merge on an in-process 4-shard loopback deployment.
StatusOr<MergeReference> InProcessMergeReference(uint64_t seed) {
  sim::DeploymentConfig config;
  config.storage_shards = kMergeShards;
  MLCASK_ASSIGN_OR_RETURN(auto d, sim::MakeDeployment(kMergeWorkload,
                                                      kMergeScale, config));
  MLCASK_ASSIGN_OR_RETURN(
      sim::ScenarioInfo scenario,
      sim::BuildDistributedMergeScenario(d.get(), kMergeExtraExtractors,
                                         kMergeExtraModels));
  merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                           d->registry.get(), d->engine.get(), d->clock.get());
  MLCASK_ASSIGN_OR_RETURN(
      merge::MergeReport report,
      op.Merge(scenario.head_branch, scenario.merge_branch,
               MergeOptionsFor(seed)));
  MLCASK_ASSIGN_OR_RETURN(
      service::MergeWinner winner,
      service::WinnerFromReport(report, d->repo.get(), scenario.head_branch));
  MergeReference ref;
  ref.fingerprint = winner.Fingerprint();
  ref.executions = report.component_executions;
  return ref;
}

}  // namespace

StatusOr<RunResult> RunMergeSharded(const RunConfig& config) {
  const uint64_t merge_seed = Mix(config.seed, 1);
  MLCASK_ASSIGN_OR_RETURN(MergeReference ref,
                          InProcessMergeReference(merge_seed));
  RunResult r;
  Tracer tracer;
  Counters counters;
  std::vector<double> setup_s, main_ms, side_ms;
  std::vector<double> traced_main, untraced_main, traced_side, untraced_side;
  std::vector<double> drain_ms, parallelism;
  merge::MergeReport last;  // exact counts, identical across merges

  const size_t merges = ClosedLoopOps(config.seconds);
  const auto start = SteadyClock::now();
  for (size_t i = 0; i < merges; ++i) {
    if (SecondsSince(start) >= kHardCapS) {
      return Status::DeadlineExceeded(
          "merge_sharded ran " + std::to_string(i) + " of " +
          std::to_string(merges) + " merges in " + std::to_string(kHardCapS) +
          " s");
    }
    const bool traced = config.trace && i % 2 == 1;

    const auto t0 = SteadyClock::now();
    ServerGroup servers;
    MLCASK_RETURN_IF_ERROR(servers.Start({kMergeShards}));
    MLCASK_ASSIGN_OR_RETURN(
        BenchDeployment bd,
        AssembleDeployment(servers.endpoints(), kMergeWorkload, kMergeScale,
                           config.trace));
    sim::Deployment* d = bd.d.get();
    MLCASK_ASSIGN_OR_RETURN(
        sim::ScenarioInfo scenario,
        sim::BuildDistributedMergeScenario(d, kMergeExtraExtractors,
                                           kMergeExtraModels));
    setup_s.push_back(SecondsSince(t0));

    const Counters before = traced ? Snapshot(bd) : Counters{};
    const size_t mark = tracer.size();
    merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                             d->registry.get(), d->engine.get(),
                             d->clock.get());
    StatusOr<merge::MergeReport> report = Status::Internal("not run");
    double merge_ms = 0;
    {
      TraceToggle toggle(&tracer, traced);
      Tracer::OperationScope scope("merge.merge");
      const auto m0 = SteadyClock::now();
      report = op.Merge(scenario.head_branch, scenario.merge_branch,
                        MergeOptionsFor(merge_seed));
      merge_ms = MsBetween(m0, SteadyClock::now());
    }
    ++r.attempted;
    if (!report.ok()) {
      ++r.failed;
      Mismatch(&r, "merge " + std::to_string(i) +
                       " failed: " + report.status().ToString());
      continue;
    }
    // The side figure is the same merge outside its drains: search-space
    // build, checkpoint seeding and the winner's 2PC commit.
    const double outside_ms = merge_ms - report->drain_wall_ms;
    main_ms.push_back(merge_ms);
    side_ms.push_back(outside_ms);
    (traced ? traced_main : untraced_main).push_back(merge_ms);
    (traced ? traced_side : untraced_side).push_back(outside_ms);
    if (traced) {
      const double ml_ms = BusyMs(tracer.SpansSince(mark), "ml.fn");
      drain_ms.push_back(report->drain_wall_ms);
      parallelism.push_back(report->drain_wall_ms > 0
                                ? ml_ms / report->drain_wall_ms
                                : 0);
      counters.AddDelta(before, Snapshot(bd));
    }
    MLCASK_ASSIGN_OR_RETURN(
        service::MergeWinner winner,
        service::WinnerFromReport(*report, d->repo.get(),
                                  scenario.head_branch));
    if (winner.Fingerprint() != ref.fingerprint ||
        report->component_executions != ref.executions) {
      Mismatch(&r, "merge " + std::to_string(i) +
                       " winner differs from the in-process reference");
    }
    last.candidates_considered = report->candidates_considered;
    last.component_executions = report->component_executions;
    last.pruned_by_compatibility = report->pruned_by_compatibility;

    bd.d.reset();
    MLCASK_RETURN_IF_ERROR(servers.Stop());
  }

  Put(&r, "setup_s", Median(setup_s));
  MLCASK_RETURN_IF_ERROR(PutTimings(&r, main_ms, side_ms));
  if (config.trace) {
    AddLayerMetrics(tracer, counters, &r);
    AddShares(tracer, "merge.merge", nullptr, &r);
    const double storage_ms = StorageEngineBusyMs(tracer.spans());
    std::fprintf(stderr, "rationale: ml busy %.0f ms %s storage busy %.0f ms\n",
                 r.metrics["ml.fn_busy_ms"],
                 r.metrics["ml.fn_busy_ms"] > storage_ms ? ">" : "<=",
                 storage_ms);
    Put(&r, "merge.drain_wall_ms_p50", Median(drain_ms));
    Put(&r, "merge.outside_drain_ms_p50", Median(traced_side));
    Put(&r, "merge.drain_parallelism", Median(parallelism));
    Put(&r, "merge.candidates_considered",
        static_cast<double>(last.candidates_considered));
    Put(&r, "merge.component_executions",
        static_cast<double>(last.component_executions));
    Put(&r, "merge.pruned_by_compatibility",
        static_cast<double>(last.pruned_by_compatibility));
    AddOverhead(traced_main, untraced_main, "trace.overhead.main_ms_p50", &r);
    AddOverhead(traced_side, untraced_side, "trace.overhead.side_ms_p50", &r);
    MLCASK_RETURN_IF_ERROR(tracer.WriteJsonl(config.trace_path));
  }
  return r;
}

// --- history_mixed -------------------------------------------------------------

namespace {

constexpr char kHistoryWorkload[] = "sa";
constexpr double kHistoryScale = 4.0;
constexpr size_t kHistoryShards = 4;
constexpr size_t kHistoryBranches = 4;
/// bytes_stored_per_user_byte is read after this many timed commits, so it
/// is exact for the seed whatever the run length.
constexpr size_t kRatioCommits = kMinClosedLoopSamples;
/// Commits replayed on an in-process cluster during set-up to check that
/// the socket cluster stores exactly the same bytes.
constexpr size_t kReferenceCommits = 8;

double StoredPerUserByte(const storage::StorageEngine& engine) {
  const storage::EngineStats s = engine.stats();
  return s.logical_bytes == 0 ? 0
                              : static_cast<double>(s.physical_bytes) /
                                    static_cast<double>(s.logical_bytes);
}

/// True when `schedule` updates each component exactly as often as the
/// protocol's probabilities say (rounded): the model in 1 - p of the
/// updates, the preprocessors evenly in the rest — a representative draw of
/// the protocol rather than whichever mix one schedule seed happens to give.
bool Stratified(const std::vector<sim::ScheduledIteration>& schedule,
                const sim::Workload& workload, double p_preprocessor) {
  const size_t updates = schedule.size() - 1;
  const size_t pre_total = static_cast<size_t>(
      std::lround(p_preprocessor * static_cast<double>(updates)));
  const size_t pres = workload.preprocessors.size();
  std::map<std::string, size_t> counts;
  for (size_t i = 1; i < schedule.size(); ++i) {
    ++counts[schedule[i].updated_components.front().name];
  }
  if (counts[workload.model] != updates - pre_total) return false;
  for (const std::string& pre : workload.preprocessors) {
    const size_t n = counts[pre];
    if (n != pre_total / pres && n != (pre_total + pres - 1) / pres) {
      return false;
    }
  }
  return true;
}

/// Base seed of the branch schedules. The schedules are fixed — which
/// component each commit updates decides most of its cost, so a
/// seed-dependent schedule would move the commit median by the schedule,
/// not by the system. The run seed drives every execution's randomness
/// and the checkout choices instead.
constexpr uint64_t kScheduleSeed = 2021;

/// The linear versioning protocol (Sec. VII-B) replayed on several branches
/// at once, one schedule per branch, commits interleaved round robin.
class History {
 public:
  /// `commits` is the number of updates the run will commit after the
  /// initial pipeline; `seed` seeds every pipeline execution.
  History(sim::Deployment* d, uint64_t seed, size_t commits)
      : d_(d), seed_(seed), commits_planned_(commits) {}

  /// Builds the schedules, commits the initial pipeline on master and
  /// branches the others off it.
  Status Start() {
    const size_t per_branch =
        (commits_planned_ + kHistoryBranches - 1) / kHistoryBranches;
    for (size_t b = 0; b < kHistoryBranches; ++b) {
      sim::LinearProtocolOptions options;
      options.iterations = static_cast<int>(per_branch + 1);
      options.final_incompatibility = false;
      std::vector<sim::ScheduledIteration> schedule;
      for (uint64_t attempt = 0;; ++attempt) {
        if (attempt == 100000) {
          return Status::Internal("no stratified schedule found");
        }
        options.seed = Mix(kScheduleSeed, b + kHistoryBranches * attempt);
        MLCASK_ASSIGN_OR_RETURN(schedule,
                                sim::BuildLinearSchedule(d_->workload, options));
        if (Stratified(schedule, d_->workload,
                       options.p_update_preprocessor)) {
          break;
        }
      }
      schedules_.push_back(std::move(schedule));
      branches_.push_back(b == 0 ? "master" : "b" + std::to_string(b));
    }
    MLCASK_ASSIGN_OR_RETURN(CommitOutcome first,
                            Commit(schedules_[0][0].pipeline, "master"));
    MLCASK_RETURN_IF_ERROR(Record(schedules_[0][0].pipeline, first.id));
    for (size_t b = 1; b < kHistoryBranches; ++b) {
      MLCASK_RETURN_IF_ERROR(d_->repo->Branch(branches_[b], "master"));
    }
    return Status::Ok();
  }

  struct CommitOutcome {
    Hash256 id;
    size_t components = 0;
    size_t reused = 0;
  };

  /// The next scheduled update, committed on its branch (the timed
  /// operation).
  StatusOr<CommitOutcome> CommitNext() {
    const size_t b = next_ % kHistoryBranches;
    const size_t iteration = 1 + next_ / kHistoryBranches;
    if (iteration >= schedules_[b].size()) {
      return Status::ResourceExhausted("history schedule exhausted");
    }
    ++next_;
    return Commit(schedules_[b][iteration].pipeline, branches_[b]);
  }

  /// Records the digest of the artifacts `id` references, computed from the
  /// executor's in-memory outputs (not from storage). Outside timing.
  Status RecordLast(const Hash256& id) {
    const size_t last = next_ - 1;
    const size_t b = last % kHistoryBranches;
    return Record(schedules_[b][1 + last / kHistoryBranches].pipeline, id);
  }

  const std::vector<Hash256>& commits() const { return commits_; }
  const Hash256& digest(const Hash256& id) const { return digests_.at(id); }

 private:
  StatusOr<CommitOutcome> Commit(const pipeline::Pipeline& p,
                                 const std::string& branch) {
    for (const pipeline::ComponentVersionSpec& spec : p.components()) {
      Tracer::Scoped span("pipeline.library_put");
      MLCASK_RETURN_IF_ERROR(d_->libraries->Put(spec));
    }
    pipeline::ExecutorOptions eo;
    eo.num_workers = 1;
    eo.core = d_->core.get();
    eo.seed = seed_;
    StatusOr<pipeline::PipelineRunResult> run = Status::Internal("not run");
    {
      Tracer::Scoped span("pipeline.run");
      run = d_->executor->Run(p, eo);
    }
    MLCASK_RETURN_IF_ERROR(run.status());
    if (run->compatibility_failure) {
      return Status::Incompatible("scheduled pipeline failed at " +
                                  run->failed_component);
    }
    CommitOutcome out;
    for (const pipeline::ComponentRunInfo& c : run->components) {
      ++out.components;
      if (c.reused) ++out.reused;
    }
    Tracer::Scoped span("version.commit");
    if (!d_->repo->branches().Exists("master")) {
      MLCASK_ASSIGN_OR_RETURN(out.id, d_->repo->Init(run->snapshot, "bench",
                                                     "initial pipeline"));
    } else {
      MLCASK_ASSIGN_OR_RETURN(
          out.id, d_->repo->CommitOn(branch, run->snapshot, "bench", "update"));
    }
    return out;
  }

  Status Record(const pipeline::Pipeline& p, const Hash256& id) {
    MLCASK_ASSIGN_OR_RETURN(const mlcask::version::Commit* commit,
                            d_->repo->Get(id));
    std::vector<const pipeline::ComponentVersionSpec*> chain;
    std::vector<std::string> artifacts;
    for (size_t i = 0; i < p.components().size(); ++i) {
      chain.push_back(&p.components()[i]);
      if (!commit->snapshot.components[i].has_output()) continue;
      const mlcask::data::Table* table = d_->executor->FindCached(chain);
      if (table == nullptr) {
        return Status::Internal("committed output missing from the cache");
      }
      artifacts.push_back(table->Serialize());
    }
    digests_[id] = DigestOf(artifacts);
    commits_.push_back(id);
    return Status::Ok();
  }

  sim::Deployment* d_;
  uint64_t seed_;
  size_t commits_planned_;
  std::vector<std::vector<sim::ScheduledIteration>> schedules_;
  std::vector<std::string> branches_;
  size_t next_ = 0;
  std::vector<Hash256> commits_;
  std::map<Hash256, Hash256> digests_;
};

/// bytes_stored_per_user_byte after kReferenceCommits commits of the same
/// schedules on an in-process 4-shard loopback cluster.
StatusOr<double> InProcessStorageReference(uint64_t seed, size_t commits) {
  sim::DeploymentConfig config;
  config.storage_shards = kHistoryShards;
  MLCASK_ASSIGN_OR_RETURN(auto d, sim::MakeDeployment(kHistoryWorkload,
                                                      kHistoryScale, config));
  History history(d.get(), seed, commits);
  MLCASK_RETURN_IF_ERROR(history.Start());
  for (size_t i = 0; i < kReferenceCommits; ++i) {
    MLCASK_RETURN_IF_ERROR(history.CommitNext().status());
  }
  return StoredPerUserByte(*d->engine);
}

}  // namespace

StatusOr<RunResult> RunHistoryMixed(const RunConfig& config) {
  const uint64_t history_seed = Mix(config.seed, 2);
  const size_t commits = ClosedLoopOps(config.seconds);
  MLCASK_ASSIGN_OR_RETURN(double reference_ratio,
                          InProcessStorageReference(history_seed, commits));
  RunResult r;
  Tracer tracer;
  Counters counters;
  std::vector<double> setup_s;

  // Set up several times; the last episode's cluster serves the run.
  std::unique_ptr<ServerGroup> servers;
  BenchDeployment bd;
  std::unique_ptr<History> history;
  for (int episode = 0; episode < kHistorySetupEpisodes; ++episode) {
    history.reset();
    bd = BenchDeployment();
    if (servers != nullptr) MLCASK_RETURN_IF_ERROR(servers->Stop());
    const auto t0 = SteadyClock::now();
    servers = std::make_unique<ServerGroup>();
    MLCASK_RETURN_IF_ERROR(servers->Start({kHistoryShards}));
    MLCASK_ASSIGN_OR_RETURN(
        bd, AssembleDeployment(servers->endpoints(), kHistoryWorkload,
                               kHistoryScale, config.trace));
    history = std::make_unique<History>(bd.d.get(), history_seed, commits);
    MLCASK_RETURN_IF_ERROR(history->Start());
    setup_s.push_back(SecondsSince(t0));
  }
  sim::Deployment* d = bd.d.get();

  std::vector<double> main_ms, side_ms;
  std::vector<double> traced_main, untraced_main, traced_side, untraced_side;
  size_t components = 0, reused = 0;
  double ratio = 0;
  mlcask::Pcg32 pick(Mix(config.seed, 3));
  const auto start = SteadyClock::now();
  for (size_t i = 0; i < commits; ++i) {
    if (SecondsSince(start) >= kHardCapS) {
      return Status::DeadlineExceeded(
          "history_mixed ran " + std::to_string(i) + " of " +
          std::to_string(commits) + " commits in " +
          std::to_string(kHardCapS) + " s");
    }
    // Alternate whole rounds, so every branch's schedule lands in both the
    // traced and the untraced half.
    const bool traced = config.trace && (i / kHistoryBranches) % 2 == 1;
    const Counters before = traced ? Snapshot(bd) : Counters{};

    StatusOr<History::CommitOutcome> commit = Status::Internal("not run");
    double commit_ms = 0;
    {
      TraceToggle toggle(&tracer, traced);
      Tracer::OperationScope scope("history.commit");
      const auto c0 = SteadyClock::now();
      commit = history->CommitNext();
      commit_ms = MsBetween(c0, SteadyClock::now());
    }
    ++r.attempted;
    if (!commit.ok()) {
      ++r.failed;
      Mismatch(&r, "commit " + std::to_string(i) +
                       " failed: " + commit.status().ToString());
      if (commit.status().IsResourceExhausted()) break;
      continue;
    }
    main_ms.push_back(commit_ms);
    (traced ? traced_main : untraced_main).push_back(commit_ms);
    if (traced) {
      components += commit->components;
      reused += commit->reused;
    }
    MLCASK_RETURN_IF_ERROR(history->RecordLast(commit->id));
    if (main_ms.size() == kReferenceCommits &&
        StoredPerUserByte(*d->engine) != reference_ratio) {
      Mismatch(&r, "stored bytes after " + std::to_string(kReferenceCommits) +
                       " commits differ from the in-process reference");
    }
    if (main_ms.size() == kRatioCommits) ratio = StoredPerUserByte(*d->engine);

    // Check out a uniformly drawn earlier commit.
    const std::vector<Hash256>& commits = history->commits();
    const Hash256 target =
        commits[pick.Below(static_cast<uint32_t>(commits.size() - 1))];
    StatusOr<std::vector<std::string>> artifacts = Status::Internal("not run");
    double checkout_ms = 0;
    {
      TraceToggle toggle(&tracer, traced);
      Tracer::OperationScope scope("history.checkout");
      const auto c0 = SteadyClock::now();
      artifacts = CheckoutInto(d, target);
      checkout_ms = MsBetween(c0, SteadyClock::now());
    }
    ++r.attempted;
    if (!artifacts.ok()) {
      ++r.failed;
      Mismatch(&r, "checkout " + std::to_string(i) +
                       " failed: " + artifacts.status().ToString());
      continue;
    }
    side_ms.push_back(checkout_ms);
    (traced ? traced_side : untraced_side).push_back(checkout_ms);
    if (DigestOf(*artifacts) != history->digest(target)) {
      Mismatch(&r, "checkout read bytes that differ from the committed ones");
    }
    if (traced) counters.AddDelta(before, Snapshot(bd));
  }
  history.reset();
  bd = BenchDeployment();
  MLCASK_RETURN_IF_ERROR(servers->Stop());

  Put(&r, "setup_s", Median(setup_s));
  MLCASK_RETURN_IF_ERROR(PutTimings(&r, main_ms, side_ms));
  if (config.trace) {
    AddLayerMetrics(tracer, counters, &r);
    AddShares(tracer, "history.commit", "history.checkout", &r);
    std::fprintf(stderr,
                 "rationale: get_version busy is %.2f of checkout wall "
                 "(expected > 0.5)\n",
                 r.metrics["share.side.get_version"]);
    Put(&r, "pipeline.reuse_ratio",
        components == 0 ? 0 : static_cast<double>(reused) / components);
    Put(&r, "storage.bytes_stored_per_user_byte", ratio);
    AddOverhead(traced_main, untraced_main, "trace.overhead.main_ms_p50", &r);
    AddOverhead(traced_side, untraced_side, "trace.overhead.side_ms_p50", &r);
    MLCASK_RETURN_IF_ERROR(tracer.WriteJsonl(config.trace_path));
  }
  return r;
}

// --- service_open --------------------------------------------------------------

namespace {

constexpr size_t kServiceServers = 2;
constexpr size_t kMergeWorkersPerServer = 2;
constexpr size_t kTenants = 8;
/// Distinct spec seeds per run. Session k uses seed pool[k % kSeedPool], so
/// two sessions with one spec are kSeedPool submissions apart: they could
/// only coalesce behind a backlog that deep (reported as coalesced_share).
constexpr size_t kSeedPool = 256;
constexpr size_t kWarmupSessions = 40;
constexpr int64_t kPollIntervalNs = 3'000'000;
/// The latency limit on a level's p99 for the knee.
constexpr double kLatencyLimitMs = 250;
/// A level whose p99 generator lateness exceeds this fell behind schedule.
constexpr double kMaxLatenessMs = 20;

struct Level {
  const char* name;
  double rate;  ///< Sessions per second, offered open loop.
};
constexpr Level kLevels[] = {{"low", 60}, {"mid", 120}, {"high", 300}};

service::MergeJobSpec SpecFor(uint64_t seed) {
  service::MergeJobSpec spec;
  spec.seed = seed;
  return spec;
}

/// Client-local Algorithm 2 over the spec the server executes, through the
/// same WinnerFromReport the service uses.
StatusOr<Hash256> ClientLocalFingerprint(const service::MergeJobSpec& spec) {
  sim::DeploymentConfig config;
  config.num_workers = std::max<uint32_t>(1, spec.num_workers);
  config.storage_shards = spec.storage_shards;
  MLCASK_ASSIGN_OR_RETURN(auto d,
                          sim::MakeDeployment(spec.workload, spec.scale, config));
  MLCASK_ASSIGN_OR_RETURN(
      sim::ScenarioInfo scenario,
      sim::BuildDistributedMergeScenario(d.get(), spec.extra_extractor_versions,
                                         spec.extra_model_versions));
  merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                           d->registry.get(), d->engine.get(), d->clock.get());
  merge::MergeOptions options;
  options.shards = spec.merge_shards;
  options.num_workers = std::max<uint32_t>(1, spec.num_workers);
  options.optimize_metric = spec.optimize_metric;
  options.seed = spec.seed;
  if (spec.merge_shards <= 1) options.core = d->core.get();
  MLCASK_ASSIGN_OR_RETURN(
      merge::MergeReport report,
      op.Merge(scenario.head_branch, scenario.merge_branch, options));
  MLCASK_ASSIGN_OR_RETURN(
      service::MergeWinner winner,
      service::WinnerFromReport(report, d->repo.get(), scenario.head_branch));
  return winner.Fingerprint();
}

size_t HostThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// References for every seed of the pool, computed on HostThreads() threads.
StatusOr<std::vector<Hash256>> ComputeReferences(
    const std::vector<uint64_t>& seeds) {
  std::vector<Hash256> refs(seeds.size());
  std::vector<Status> errors(HostThreads(), Status::Ok());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < HostThreads(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < seeds.size();
           i = next.fetch_add(1)) {
        StatusOr<Hash256> fp = ClientLocalFingerprint(SpecFor(seeds[i]));
        if (!fp.ok()) {
          errors[t] = fp.status();
          return;
        }
        refs[i] = *fp;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : errors) MLCASK_RETURN_IF_ERROR(s);
  return refs;
}

enum class Outcome : uint8_t { kPending, kDone, kShed, kExpired, kFailed, kWrong };

/// One session's timeline, steady-clock ns (0 = not reached).
struct SessionRecord {
  int64_t intended = 0;
  int64_t sent = 0;       ///< Submit issued.
  int64_t submitted = 0;  ///< Submit answered.
  int64_t active = 0;     ///< First poll that saw it leave kQueued.
  int64_t terminal = 0;   ///< First poll that saw a terminal state.
  int64_t fetched = 0;    ///< Winner fetched.
  uint32_t polls = 0;
  bool coalesced = false;
  bool traced = false;    ///< Sent while span recording was on.
  double submit_ms = 0;
  double fetch_ms = 0;
  std::vector<double> poll_ms;
  std::string session_id;
  Outcome outcome = Outcome::kPending;
};

struct LevelStats {
  std::string name;
  double rate = 0;
  std::vector<double> latency_ms;  ///< Completed sessions only.
  std::vector<double> traced_ms, untraced_ms;
  double knee_rps = 0;  ///< Completed per second, when the level passes.
  size_t failed_sessions = 0;  ///< Shed, expired, failed or wrong.
  bool passed = false;
  bool behind = false;
  std::map<std::string, double> layer;  ///< service.* metrics.
};

/// Open-loop generator for one level: the calling thread submits on the
/// fixed schedule, `pollers` threads sweep accepted sessions to a terminal
/// state and fetch the winners. Every client and connection is shared per
/// thread, so the generator uses 1 + pollers threads and one connection per
/// server.
class Generator {
 public:
  Generator(const std::vector<std::unique_ptr<storage::SocketTransport>>& conns,
            const std::vector<uint64_t>& pool, const std::vector<Hash256>& refs,
            Tracer* tracer)
      : conns_(conns), pool_(pool), refs_(refs), tracer_(tracer) {}

  /// Offers `count` sessions at `rate`/s starting with session index
  /// `first`, and waits until every one resolves.
  StatusOr<std::vector<SessionRecord>> Run(size_t first, size_t count,
                                           double rate) {
    std::vector<SessionRecord> records(count);
    records_ = &records;
    first_ = first;
    done_submitting_ = false;
    const size_t pollers = std::min<size_t>(2, HostThreads() - 1);
    std::vector<std::thread> threads;
    for (size_t p = 0; p < std::max<size_t>(1, pollers); ++p) {
      threads.emplace_back([this] { PollLoop(); });
    }
    std::map<std::pair<size_t, size_t>,
             std::unique_ptr<service::MergeServiceClient>>
        clients;
    const int64_t t0 = NowNs() + 2'000'000;
    const double period_ns = 1e9 / rate;
    for (size_t i = 0; i < count; ++i) {
      SessionRecord& rec = records[i];
      rec.intended = t0 + static_cast<int64_t>(period_ns * i);
      std::this_thread::sleep_until(
          SteadyClock::time_point(std::chrono::nanoseconds(rec.intended)));
      // Traced runs record spans in alternating half-second slices.
      rec.traced = tracer_ != nullptr && ((rec.intended - t0) / 500'000'000) % 2;
      Tracer::SetActive(rec.traced ? tracer_ : nullptr);
      const size_t k = first + i;
      service::MergeServiceClient* client = Client(&clients, k);
      rec.sent = NowNs();
      StatusOr<service::SubmitResult> submitted = Status::Internal("not run");
      {
        Tracer::Scoped span("service.submit");
        submitted = client->Submit(SpecFor(pool_[k % pool_.size()]));
      }
      rec.submitted = NowNs();
      rec.submit_ms = static_cast<double>(rec.submitted - rec.sent) / 1e6;
      if (!submitted.ok()) {
        rec.outcome = submitted.status().IsResourceExhausted() ? Outcome::kShed
                      : submitted.status().IsDeadlineExceeded()
                          ? Outcome::kExpired
                          : Outcome::kFailed;
        continue;
      }
      rec.session_id = submitted->session_id;
      rec.coalesced = submitted->coalesced;
      // A seeded phase for each session's polls, so completion times are
      // not rounded up to one shared poll grid.
      Enqueue(rec.submitted + static_cast<int64_t>(Mix(k, 7) % kPollIntervalNs),
              i);
    }
    Tracer::SetActive(nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_submitting_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads) t.join();
    return records;
  }

 private:
  using Clients = std::map<std::pair<size_t, size_t>,
                           std::unique_ptr<service::MergeServiceClient>>;

  service::MergeServiceClient* Client(Clients* clients, size_t k) {
    const size_t conn = k % conns_.size();
    const size_t tenant = k % kTenants;
    auto& slot = (*clients)[{conn, tenant}];
    if (slot == nullptr) {
      slot = std::make_unique<service::MergeServiceClient>(
          conns_[conn].get(), "tenant" + std::to_string(tenant));
    }
    return slot.get();
  }

  void Enqueue(int64_t due, size_t index) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      due_.push({due, index});
    }
    cv_.notify_one();
  }

  void PollLoop() {
    Clients clients;
    while (true) {
      size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        while (true) {
          if (due_.empty()) {
            if (done_submitting_) return;
            cv_.wait(lock);
            continue;
          }
          const int64_t due = due_.top().first;
          const int64_t now = NowNs();
          if (due <= now) break;
          cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
        }
        index = due_.top().second;
        due_.pop();
      }
      SessionRecord& rec = (*records_)[index];
      const size_t k = first_ + index;
      service::MergeServiceClient* client = Client(&clients, k);
      const int64_t p0 = NowNs();
      StatusOr<service::PollResult> poll = Status::Internal("not run");
      {
        Tracer::Scoped span("service.poll");
        poll = client->Poll(rec.session_id);
      }
      const int64_t now = NowNs();
      ++rec.polls;
      rec.poll_ms.push_back(static_cast<double>(now - p0) / 1e6);
      if (!poll.ok()) {
        rec.outcome = Outcome::kFailed;
        continue;
      }
      if (poll->state != service::SessionState::kQueued && rec.active == 0) {
        rec.active = now;
      }
      if (!service::IsTerminal(poll->state)) {
        Enqueue(now + kPollIntervalNs, index);
        continue;
      }
      rec.terminal = now;
      if (poll->state != service::SessionState::kDone) {
        rec.outcome = poll->error_code == mlcask::StatusCode::kResourceExhausted
                          ? Outcome::kShed
                      : poll->error_code == mlcask::StatusCode::kDeadlineExceeded
                          ? Outcome::kExpired
                          : Outcome::kFailed;
        continue;
      }
      StatusOr<service::MergeWinner> winner = Status::Internal("not run");
      {
        Tracer::Scoped span("service.fetch");
        winner = client->Fetch(rec.session_id);
      }
      rec.fetched = NowNs();
      rec.fetch_ms = static_cast<double>(rec.fetched - now) / 1e6;
      if (!winner.ok()) {
        rec.outcome = Outcome::kFailed;
      } else if (winner->Fingerprint() != refs_[k % refs_.size()]) {
        rec.outcome = Outcome::kWrong;
      } else {
        rec.outcome = Outcome::kDone;
      }
    }
  }

  const std::vector<std::unique_ptr<storage::SocketTransport>>& conns_;
  const std::vector<uint64_t>& pool_;
  const std::vector<Hash256>& refs_;
  Tracer* tracer_;
  std::vector<SessionRecord>* records_ = nullptr;
  size_t first_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_submitting_ = false;
  std::priority_queue<std::pair<int64_t, size_t>,
                      std::vector<std::pair<int64_t, size_t>>,
                      std::greater<std::pair<int64_t, size_t>>>
      due_;
};

LevelStats Summarize(const Level& level, const std::vector<SessionRecord>& recs,
                     RunResult* r) {
  LevelStats s;
  s.name = level.name;
  s.rate = level.rate;
  std::vector<double> submit, poll, fetch, queue_wait, run, lateness;
  double polls = 0, coalesced = 0, shed = 0, expired = 0;
  int64_t last_sent = 0, first_intended = recs.front().intended, last_fetch = 0;
  for (const SessionRecord& rec : recs) last_sent = std::max(last_sent, rec.sent);
  size_t backlog = 0;
  for (const SessionRecord& rec : recs) {
    ++r->attempted;
    lateness.push_back(static_cast<double>(rec.sent - rec.intended) / 1e6);
    submit.push_back(rec.submit_ms);
    poll.insert(poll.end(), rec.poll_ms.begin(), rec.poll_ms.end());
    polls += rec.polls;
    if (rec.coalesced) ++coalesced;
    if (rec.terminal == 0 || rec.terminal > last_sent) ++backlog;
    if (rec.active != 0) {
      queue_wait.push_back(static_cast<double>(rec.active - rec.submitted) / 1e6);
    }
    if (rec.active != 0 && rec.terminal != 0) {
      run.push_back(static_cast<double>(rec.terminal - rec.active) / 1e6);
    }
    switch (rec.outcome) {
      case Outcome::kDone: {
        const double ms = static_cast<double>(rec.fetched - rec.intended) / 1e6;
        s.latency_ms.push_back(ms);
        (rec.traced ? s.traced_ms : s.untraced_ms).push_back(ms);
        fetch.push_back(rec.fetch_ms);
        last_fetch = std::max(last_fetch, rec.fetched);
        break;
      }
      case Outcome::kWrong:
        ++r->failed;
        Mismatch(r, std::string("a ") + level.name +
                        " session winner differs from its client-local "
                        "reference");
        break;
      case Outcome::kShed:
        ++shed;
        ++r->failed;
        break;
      case Outcome::kExpired:
        ++expired;
        ++r->failed;
        break;
      default:
        ++r->failed;
        break;
    }
  }
  const double n = static_cast<double>(recs.size());
  const double lateness_p99 = TailOrZero(lateness, 0.99);
  s.behind = lateness_p99 > kMaxLatenessMs;
  const double p99 = TailOrZero(s.latency_ms, 0.99);
  s.failed_sessions = recs.size() - s.latency_ms.size();
  const bool failures = s.failed_sessions > 0;
  const bool growing =
      static_cast<double>(backlog) > level.rate * kLatencyLimitMs / 1e3;
  s.passed = !s.behind && !failures && !growing && p99 > 0 &&
             p99 <= kLatencyLimitMs;
  if (last_fetch > first_intended) {
    s.knee_rps = static_cast<double>(s.latency_ms.size()) /
                 (static_cast<double>(last_fetch - first_intended) / 1e9);
  }
  const std::string sfx = std::string(".") + level.name;
  s.layer["service.session_ms_p50" + sfx] = Median(s.latency_ms);
  s.layer["service.session_ms_p99" + sfx] = p99;
  s.layer["service.submit_ms_p50" + sfx] = Median(submit);
  s.layer["service.submit_ms_p99" + sfx] = TailOrZero(submit, 0.99);
  s.layer["service.poll_ms_p50" + sfx] = Median(poll);
  s.layer["service.fetch_ms_p50" + sfx] = Median(fetch);
  s.layer["service.polls_per_session" + sfx] = polls / n;
  s.layer["service.queue_wait_ms_p50" + sfx] = Median(queue_wait);
  s.layer["service.queue_wait_ms_p99" + sfx] = TailOrZero(queue_wait, 0.99);
  s.layer["service.run_ms_p50" + sfx] = Median(run);
  s.layer["service.coalesced_share" + sfx] = coalesced / n;
  s.layer["service.shed" + sfx] = shed;
  s.layer["service.expired" + sfx] = expired;
  s.layer["service.generator_lateness_ms_p99" + sfx] = lateness_p99;
  s.layer["service.backlog_at_end" + sfx] = static_cast<double>(backlog);
  s.layer["service.passed" + sfx] = s.passed ? 1 : 0;
  std::fprintf(stderr,
               "level %-4s rate=%5.0f/s sessions=%zu completed=%zu p50=%.1fms "
               "p99=%.1fms queue_wait_p99=%.1fms lateness_p99=%.2fms "
               "backlog=%zu polls/session=%.1f %s\n",
               level.name, level.rate, recs.size(), s.latency_ms.size(),
               Median(s.latency_ms), p99,
               s.layer["service.queue_wait_ms_p99" + sfx], lateness_p99,
               backlog, polls / n,
               s.behind ? "INVALID(behind schedule)"
                        : (s.passed ? "pass" : "over limit"));
  return s;
}

}  // namespace

StatusOr<RunResult> RunServiceOpen(const RunConfig& config) {
  std::vector<uint64_t> pool;
  for (size_t i = 0; i < kSeedPool; ++i) pool.push_back(Mix(config.seed, 1000 + i));
  MLCASK_ASSIGN_OR_RETURN(std::vector<Hash256> refs, ComputeReferences(pool));

  RunResult r;
  Tracer tracer;
  std::vector<double> setup_s;
  std::unique_ptr<ServerGroup> servers;
  std::vector<std::unique_ptr<storage::SocketTransport>> conns;
  for (int episode = 0; episode < kServiceSetupEpisodes; ++episode) {
    conns.clear();
    if (servers != nullptr) MLCASK_RETURN_IF_ERROR(servers->Stop());
    const auto t0 = SteadyClock::now();
    servers = std::make_unique<ServerGroup>();
    ServerGroup::Options options;
    options.servers = kServiceServers;
    options.serve_merge = true;
    options.merge_workers = kMergeWorkersPerServer;
    MLCASK_RETURN_IF_ERROR(servers->Start(options));
    for (const std::string& endpoint : servers->endpoints()) {
      MLCASK_ASSIGN_OR_RETURN(auto conn,
                              storage::SocketTransport::Connect(endpoint));
      // Each server's first session is part of its set-up: the cold merge
      // a user waits on right after start.
      service::MergeServiceClient client(conn.get(), "setup");
      MLCASK_ASSIGN_OR_RETURN(service::SubmitResult submitted,
                              client.Submit(SpecFor(pool[0])));
      MLCASK_ASSIGN_OR_RETURN(
          service::MergeWinner winner,
          client.AwaitWinner(submitted.session_id, 2, 60'000));
      if (winner.Fingerprint() != refs[0]) {
        Mismatch(&r, "a set-up session winner differs from its reference");
      }
      conns.push_back(std::move(conn));
    }
    setup_s.push_back(SecondsSince(t0));
  }

  Generator generator(conns, pool, refs, config.trace ? &tracer : nullptr);
  // Warm-up: first deployments on fresh servers; not measured.
  MLCASK_ASSIGN_OR_RETURN(
      std::vector<SessionRecord> warmup,
      generator.Run(0, kWarmupSessions, kLevels[0].rate));
  (void)warmup;

  double inverse_rates = 0;
  for (const Level& level : kLevels) inverse_rates += 1 / level.rate;
  const size_t per_level = std::max<size_t>(
      kMinSessionsPerLevel + kMinBeyond,
      static_cast<size_t>(config.seconds / inverse_rates));
  std::vector<LevelStats> levels;
  size_t next = kWarmupSessions;
  for (const Level& level : kLevels) {
    MLCASK_ASSIGN_OR_RETURN(std::vector<SessionRecord> recs,
                            generator.Run(next, per_level, level.rate));
    next += per_level;
    levels.push_back(Summarize(level, recs, &r));
  }
  conns.clear();
  MLCASK_RETURN_IF_ERROR(servers->Stop());

  const LevelStats& low = levels[0];
  const LevelStats& mid = levels[1];
  LevelStats& high = levels[2];
  // Below the knee every session must complete: a shed, expired or failed
  // one would otherwise just drop out of the latency samples.
  for (const LevelStats* s : {&low, &mid}) {
    if (s->failed_sessions > 0) {
      Mismatch(&r, std::to_string(s->failed_sessions) + " " + s->name +
                       " sessions did not complete");
    }
  }
  // `high` must load the service: queue wait, shedding or p99 must rise.
  const bool pressure =
      high.layer["service.queue_wait_ms_p99.high"] >
          2 * levels[0].layer.at("service.queue_wait_ms_p99.low") ||
      high.layer["service.shed.high"] > 0 ||
      high.layer["service.session_ms_p99.high"] >
          2 * levels[0].layer.at("service.session_ms_p99.low");
  if (!pressure) {
    std::fprintf(stderr, "level high INVALID: it shows no pressure\n");
    high.passed = false;
  }
  double knee = 0;
  for (const LevelStats& s : levels) {
    if (s.passed) knee = s.knee_rps;
  }

  Put(&r, "setup_s", Median(setup_s));
  MLCASK_RETURN_IF_ERROR(PutTimings(&r, low.latency_ms, mid.latency_ms));
  if (config.trace) {
    for (const LevelStats& s : levels) {
      for (const auto& [name, value] : s.layer) {
        Put(&r, name, value);
      }
    }
    Put(&r, "service.knee_rps", knee);
    Put(&r, "service.high_pressure", pressure ? 1 : 0);
    AddLayerMetrics(tracer, Counters{}, &r);
    AddOverhead(low.traced_ms, low.untraced_ms, "trace.overhead.main_ms_p50",
                &r);
    AddOverhead(mid.traced_ms, mid.untraced_ms, "trace.overhead.side_ms_p50",
                &r);
    MLCASK_RETURN_IF_ERROR(tracer.WriteJsonl(config.trace_path));
  }
  return r;
}

}  // namespace perfbench

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"main_ms_p50", "ms"},
      {"side_ms_p50", "ms"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> m = {
        {"merge.drain_wall_ms_p50", "ms"},
        {"merge.outside_drain_ms_p50", "ms"},
        {"merge.drain_parallelism", "ratio"},
        {"merge.candidates_considered", "count"},
        {"merge.component_executions", "count"},
        {"merge.pruned_by_compatibility", "count"},
        {"ml.fn_calls", "count"},
        {"ml.fn_busy_ms", "ms"},
        {"ml.fn_ms_mean", "ms"},
        {"pipeline.run_ms_p50", "ms"},
        {"pipeline.library_put_ms_p50", "ms"},
        {"pipeline.reuse_ratio", "ratio"},
        {"version.commit_ms_p50", "ms"},
        {"version.get_ms_p50", "ms"},
    };
    static const char* const kOps[] = {"put",         "put_many",
                                       "get",         "get_version",
                                       "has_version", "versions"};
    static std::deque<std::string> names;  // owns the composed names
    auto add = [&](std::string name, const char* unit) {
      names.push_back(std::move(name));
      m.push_back({names.back().c_str(), unit});
    };
    for (const char* op : kOps) {
      add(std::string("storage.") + op + ".calls", "count");
      add(std::string("storage.") + op + ".ms_p50", "ms");
      add(std::string("storage.") + op + ".busy_ms", "ms");
    }
    for (const MetricSpec& s : std::vector<MetricSpec>{
             {"storage.errors", "count"},
             {"storage.bytes_written", "bytes"},
             {"storage.bytes_read", "bytes"},
             {"storage.read_mb_per_s", "MB/s"},
             {"storage.2pc.transactions", "count"},
             {"storage.2pc.round_trips", "count"},
             {"storage.broadcast.probes", "count"},
             {"storage.bytes_stored_per_user_byte", "ratio"},
             {"storage.rpc.calls", "count"},
             {"storage.rpc.ms_p50", "ms"},
             {"storage.rpc.ms_p99", "ms"},
             {"storage.rpc.busy_ms", "ms"},
             {"storage.rpc.async_issued", "count"},
             {"storage.rpc.request_bytes", "bytes"},
             {"storage.rpc.response_bytes", "bytes"},
             {"storage.rpc.chunk_frames", "count"},
             {"storage.rpc.errors", "count"},
             {"storage.rpc.redials", "count"},
         }) {
      m.push_back(s);
    }
    static const MetricSpec kLevelMetrics[] = {
        {"service.session_ms_p50", "ms"},
        {"service.session_ms_p99", "ms"},
        {"service.submit_ms_p50", "ms"},
        {"service.submit_ms_p99", "ms"},
        {"service.poll_ms_p50", "ms"},
        {"service.fetch_ms_p50", "ms"},
        {"service.polls_per_session", "ratio"},
        {"service.queue_wait_ms_p50", "ms"},
        {"service.queue_wait_ms_p99", "ms"},
        {"service.run_ms_p50", "ms"},
        {"service.coalesced_share", "ratio"},
        {"service.shed", "count"},
        {"service.expired", "count"},
        {"service.generator_lateness_ms_p99", "ms"},
        {"service.backlog_at_end", "count"},
        {"service.passed", "count"},
    };
    for (const Level& level : kLevels) {
      for (const MetricSpec& s : kLevelMetrics) {
        add(std::string(s.name) + "." + level.name, s.unit);
      }
    }
    for (const MetricSpec& s : std::vector<MetricSpec>{
             {"service.knee_rps", "1/s"},
             {"service.high_pressure", "count"},
             {"share.main.ml", "ratio"},
             {"share.main.storage", "ratio"},
             {"share.side.get_version", "ratio"},
             {"trace.spans", "count"},
             {"trace.overhead.main_ms_p50", "ms"},
             {"trace.overhead.side_ms_p50", "ms"},
         }) {
      m.push_back(s);
    }
    return m;
  }();
  return metrics;
}

}  // namespace perfbench
