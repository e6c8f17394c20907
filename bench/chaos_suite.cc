// chaos_suite — the seeded fault sweep behind the self-healing acceptance
// gate: real 4-shard mlcask_server clusters under deterministic injection
// (server-side job delays + client-side connection kills before/after
// send), each running the full two-branch merge. The invariant scored
// here is the robustness contract of the transport/2PC stack:
//
//   every trial ends in a TYPED failure or a recovered merge whose winner,
//   execution count, and artifact hashes are BIT-IDENTICAL to the
//   fault-free reference — never a hang, never a wrong winner.
//
// A kill-schedule pass then SIGKILLs a durable shard, restarts it, and
// requires router-level 2PC recovery to leave ZERO staged intents behind.
//
// A migration pass runs AddShard with the same fault specs live: the
// rebalance either completes or fails with a typed status, and either way
// every acknowledged write must still read back — never a lost key.
//
// Flags: --short (fewer seeds), --json <path> (machine-readable report).
// Gated metrics (see tools/bench_compare.py): recovered_merges may not
// regress, typed_failures / hangs / migration_lost_keys may not grow.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "merge/merge_op.h"
#include "sim/scenario.h"
#include "storage/fault_injector.h"
#include "storage/remote_engine.h"
#include "storage/server_cluster.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"

#ifndef MLCASK_SERVER_BIN
#define MLCASK_SERVER_BIN ""
#endif

namespace mlcask {
namespace {

struct MergeFingerprint {
  uint64_t executions = 0;
  double best_score = 0;
  int best_index = -1;
  std::vector<std::string> winner_chain;
  std::vector<std::string> artifact_hashes;

  bool operator==(const MergeFingerprint& other) const {
    return executions == other.executions && best_score == other.best_score &&
           best_index == other.best_index &&
           winner_chain == other.winner_chain &&
           artifact_hashes == other.artifact_hashes;
  }
};

StatusOr<MergeFingerprint> RunMerge(size_t shards,
                                    const std::vector<std::string>& endpoints,
                                    const std::string& client_fault_spec) {
  sim::DeploymentConfig config;
  config.num_workers = 1;
  config.storage_shards = shards;
  config.storage_endpoints = endpoints;
  config.client_fault_spec = client_fault_spec;
  MLCASK_ASSIGN_OR_RETURN(auto d,
                          sim::MakeDeployment("readmission", 0.06, config));
  MLCASK_RETURN_IF_ERROR(sim::BuildTwoBranchScenario(d.get()).status());
  merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                           d->registry.get(), d->engine.get(), d->clock.get());
  merge::MergeOptions options;
  options.shards = shards;
  MLCASK_ASSIGN_OR_RETURN(merge::MergeReport report,
                          op.Merge("master", "dev", options));

  MergeFingerprint fp;
  fp.executions = report.component_executions;
  fp.best_score = report.best_score;
  fp.best_index = report.best_index;
  const merge::CandidateChain& winner =
      report.outcomes[static_cast<size_t>(report.best_index)].chain;
  for (const pipeline::ComponentVersionSpec* spec : winner) {
    fp.winner_chain.push_back(spec->Key());
  }
  MLCASK_ASSIGN_OR_RETURN(auto head, d->repo->Head("master"));
  for (const version::ComponentRecord& rec : head->snapshot.components) {
    fp.artifact_hashes.push_back(rec.output_id.ToHex());
  }
  return fp;
}

size_t CountStagedKeys(const storage::ShardedStorageEngine& cluster) {
  size_t staged = 0;
  for (size_t s = 0; s < cluster.num_shards(); ++s) {
    for (const auto& [key, id] : cluster.shard(s)->ListAllVersions()) {
      (void)id;
      if (key.rfind("__2pc__/", 0) == 0) ++staged;
    }
  }
  return staged;
}

}  // namespace
}  // namespace mlcask

int main(int argc, char** argv) {
  using namespace mlcask;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("chaos_suite",
                "seeded fault sweep: 4-shard merges under injection");
  bench::JsonReporter reporter("chaos_suite");

  const std::vector<uint64_t> seeds =
      args.short_mode ? std::vector<uint64_t>{7}
                      : std::vector<uint64_t>{7, 23, 101};
  const size_t kShards = 4;

  bench::Section("fault-free reference");
  MergeFingerprint reference =
      bench::CheckedValue(RunMerge(1, {}, ""), "reference merge");
  std::printf("reference: %llu executions, best_index %d\n",
              static_cast<unsigned long long>(reference.executions),
              reference.best_index);

  // --- the sweep ----------------------------------------------------------
  // Every trial either recovers to the bit-identical fingerprint
  // (recovered_merges) or fails with a typed status (typed_failures). A
  // wrong winner is an immediate FAIL; a hang trips the CI watchdog.
  uint64_t recovered_merges = 0;
  uint64_t typed_failures = 0;
  uint64_t wrong_winners = 0;

  bench::Section("seeded merge sweep");
  for (uint64_t seed : seeds) {
    storage::LocalServerCluster servers;
    storage::LocalServerCluster::Options options;
    options.server_binary = MLCASK_SERVER_BIN;
    options.fault_spec = "seed=" + std::to_string(seed) + ",delay_ms=2:0.05";
    bench::CheckOk(servers.Start(kShards, options), "cluster start");
    const std::string client_spec = "seed=" + std::to_string(seed + 1) +
                                    ",drop=0.01,dropafter=0.01";
    auto fp = RunMerge(kShards, servers.endpoints(), client_spec);
    if (!fp.ok()) {
      // A typed failure is an acceptable outcome — the contract forbids
      // hangs and wrong answers, not honest errors.
      ++typed_failures;
      std::printf("seed %llu: typed failure: %s\n",
                  static_cast<unsigned long long>(seed),
                  fp.status().ToString().c_str());
    } else if (*fp == reference) {
      ++recovered_merges;
      std::printf("seed %llu: recovered, fingerprint identical\n",
                  static_cast<unsigned long long>(seed));
    } else {
      ++wrong_winners;
      std::printf("seed %llu: WRONG WINNER (executions %llu vs %llu)\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(fp->executions),
                  static_cast<unsigned long long>(reference.executions));
    }
    bench::CheckOk(servers.Stop(), "cluster stop");
  }

  // --- kill -9 + durable recovery drill -----------------------------------
  bench::Section("kill -9 recovery drill");
  uint64_t recovered_transactions = 0;
  uint64_t staged_residue = 0;
  {
    storage::LocalServerCluster servers;
    storage::LocalServerCluster::Options options;
    options.server_binary = MLCASK_SERVER_BIN;
    options.durable = true;
    bench::CheckOk(servers.Start(2, options), "durable cluster start");
    {
      auto cluster = bench::CheckedValue(
          storage::ConnectCluster(servers.endpoints()), "connect");
      // Debris of a coordinator that died after its commit decision.
      for (size_t s = 0; s < 2; ++s) {
        bench::CheckOk(cluster->shard(s)
                           ->Put("__2pc__/txn42/s" + std::to_string(s) + "/w0",
                                 std::string("__2pc-intent__\x1f") +
                                     "pipeline/drill/commits" + '\x1f' +
                                     "the-commit")
                           .status(),
                       "stage intent");
      }
      bench::CheckOk(cluster->shard(0)
                         ->Put("__2pc__/txn42/decision",
                               std::string("__2pc-intent__\x1f") + "commit")
                         .status(),
                     "stage decision");
    }
    for (size_t s = 0; s < 2; ++s) {
      bench::CheckOk(servers.KillShard(s), "kill -9");
    }
    for (size_t s = 0; s < 2; ++s) {
      bench::CheckOk(servers.RestartShard(s), "restart");
    }
    auto cluster = bench::CheckedValue(
        storage::ConnectCluster(servers.endpoints()), "reconnect");
    bench::CheckOk(cluster->RecoverTwoPhase(), "recover");
    recovered_transactions =
        cluster->two_phase_stats().recovered_transactions;
    staged_residue = CountStagedKeys(*cluster);
    bench::CheckOk(servers.Stop(), "durable cluster stop");
    std::printf("recovered %llu transaction(s), %llu staged keys left\n",
                static_cast<unsigned long long>(recovered_transactions),
                static_cast<unsigned long long>(staged_residue));
  }

  // --- migration under injected faults ------------------------------------
  // Elastic rebalance with the SAME fault schedules live on both sides of
  // the wire. The contract mirrors the merge sweep: AddShard either
  // completes or returns a typed status (the durable plan keeps the
  // migration resumable either way) — and in EVERY outcome each
  // acknowledged write still reads back. Reads retry a few times because
  // the injector keeps dropping ~1% of calls afterwards; a drop absorbed
  // by redial replay is noise, a key no retry can see is loss.
  bench::Section("migration under injected faults");
  uint64_t migration_recovered = 0;
  uint64_t migration_typed_errors = 0;
  uint64_t migration_lost_keys = 0;
  for (uint64_t seed : seeds) {
    storage::LocalServerCluster servers;
    storage::LocalServerCluster::Options options;
    options.server_binary = MLCASK_SERVER_BIN;
    options.fault_spec = "seed=" + std::to_string(seed) + ",delay_ms=2:0.05";
    bench::CheckOk(servers.Start(2, options), "migration cluster start");

    storage::SocketTransport::Options client;
    auto spec = storage::FaultSpec::Parse("seed=" + std::to_string(seed + 1) +
                                          ",drop=0.01,dropafter=0.01");
    bench::CheckOk(spec.status(), "client fault spec");
    client.injector = std::make_shared<storage::FaultInjector>(*spec);
    auto cluster = bench::CheckedValue(
        storage::ConnectCluster(servers.endpoints(), client),
        "migration cluster connect");

    // Only acknowledged writes join the loss contract; a put the injector
    // failed with a typed status made no durability promise.
    std::map<std::string, std::string> acked;
    for (size_t i = 0; i < 32; ++i) {
      const std::string key = "artifact/obj" + std::to_string(i);
      if (cluster->Put(key, "payload " + key).ok()) {
        acked[key] = "payload " + key;
      }
    }

    auto endpoint = servers.AddShard();
    bench::CheckOk(endpoint.status(), "spawn joining shard");
    Status migrated = Status::Ok();
    auto transport = storage::SocketTransport::Connect(*endpoint, client);
    if (!transport.ok()) {
      migrated = transport.status();
    } else {
      migrated = cluster->AddShard(std::make_unique<storage::RemoteStorageEngine>(
          *std::move(transport)));
    }
    if (!migrated.ok()) {
      ++migration_typed_errors;
      std::printf("seed %llu: migration typed error: %s\n",
                  static_cast<unsigned long long>(seed),
                  migrated.ToString().c_str());
      // Best effort: a typed failure leaves the durable plan behind, so one
      // resume attempt is fair game. Keys must read back either way.
      (void)cluster->ResumeMigration();
    }

    size_t lost = 0;
    for (const auto& [key, payload] : acked) {
      bool seen = false;
      for (int attempt = 0; attempt < 5 && !seen; ++attempt) {
        auto got = cluster->Get(key);
        seen = got.ok() && *got == payload;
      }
      if (!seen) ++lost;
    }
    migration_lost_keys += lost;
    if (migrated.ok() && lost == 0) {
      ++migration_recovered;
      std::printf("seed %llu: migration recovered, %zu/%zu keys intact\n",
                  static_cast<unsigned long long>(seed), acked.size(),
                  acked.size());
    } else if (lost > 0) {
      std::printf("seed %llu: LOST %zu of %zu acknowledged keys\n",
                  static_cast<unsigned long long>(seed), lost, acked.size());
    }
    bench::CheckOk(servers.Stop(), "migration cluster stop");
  }

  // --- verdict ------------------------------------------------------------
  // Reaching this line at all means zero hangs (the CI watchdog would have
  // killed us); the metric makes the claim explicit in the report.
  const uint64_t hangs = 0;
  reporter.Metric("chaos", "trials", static_cast<double>(seeds.size()));
  reporter.Metric("chaos", "recovered_merges",
                  static_cast<double>(recovered_merges));
  reporter.Metric("chaos", "typed_failures",
                  static_cast<double>(typed_failures));
  reporter.Metric("chaos", "wrong_winners",
                  static_cast<double>(wrong_winners));
  reporter.Metric("chaos", "hangs", static_cast<double>(hangs));
  reporter.Metric("chaos", "recovered_transactions",
                  static_cast<double>(recovered_transactions));
  reporter.Metric("chaos", "staged_residue",
                  static_cast<double>(staged_residue));
  // migration_lost_keys carries the exact zero-tolerance "lost_keys" gate;
  // the recovered/typed split is recorded for the trajectory but left
  // ungated (which calls a drop fault lands on can shift with async
  // interleaving, losing a key cannot).
  reporter.Metric("migration", "trials", static_cast<double>(seeds.size()));
  reporter.Metric("migration", "migration_recovered",
                  static_cast<double>(migration_recovered));
  reporter.Metric("migration", "migration_typed_errors",
                  static_cast<double>(migration_typed_errors));
  reporter.Metric("migration", "migration_lost_keys",
                  static_cast<double>(migration_lost_keys));
  reporter.Write(args.json_path);

  std::printf(
      "\n%llu/%zu merges recovered bit-identical, %llu typed failures, "
      "%llu wrong winners, %llu hangs\n",
      static_cast<unsigned long long>(recovered_merges), seeds.size(),
      static_cast<unsigned long long>(typed_failures),
      static_cast<unsigned long long>(wrong_winners),
      static_cast<unsigned long long>(hangs));
  if (wrong_winners > 0 || staged_residue > 0 ||
      recovered_transactions != 1 || migration_lost_keys > 0) {
    std::printf("CHAOS SUITE: FAIL\n");
    return 1;
  }
  std::printf("CHAOS SUITE: PASS\n");
  return 0;
}
