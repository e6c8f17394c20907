// Elastic cluster: live shard add/remove with incremental key migration.
// Covers the ring/plan policy layer (pure functions), id-preserving
// migration on loopback clusters, dual-epoch routing while a migration is
// paused mid-flight, merge-during-rebalance bit-identity, crash-resume over
// REAL server processes (kill -9, durable cursor), the replicated-namespace
// coordinator handoff when shard 0 retires, and the LocalServerCluster
// temp-root cleanup regression.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "merge/merge_op.h"
#include "sim/scenario.h"
#include "storage/forkbase_engine.h"
#include "storage/persistence.h"
#include "storage/remote_engine.h"
#include "storage/server_cluster.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"

#ifndef MLCASK_SERVER_BIN
#define MLCASK_SERVER_BIN ""
#endif

namespace mlcask::storage {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<ShardedStorageEngine> MakeCluster(size_t shards) {
  return MakeLoopbackCluster(
      shards, [] { return std::make_unique<ForkBaseEngine>(); });
}

std::vector<size_t> Slots(size_t n) {
  std::vector<size_t> members(n);
  for (size_t i = 0; i < n; ++i) members[i] = i;
  return members;
}

std::vector<std::string> ObjectKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("artifact/obj" + std::to_string(i));
  }
  return keys;
}

// ------------------------------------------------- ring + plan (policy) ---

TEST(RingPolicyTest, PlanMigrationMovesOnlyOntoTheJoiningSlot) {
  const size_t vnodes = 384;
  ShardRing from = BuildShardRing(0, Slots(4), vnodes);
  ShardRing to = BuildShardRing(1, Slots(5), vnodes);
  std::vector<std::string> keys = ObjectKeys(2000);
  std::vector<KeyMove> moves = PlanMigration(from, to, keys);
  ASSERT_FALSE(moves.empty());
  for (const KeyMove& mv : moves) {
    // Slot labels depend only on the slot id, so adding slot 4 must never
    // shuffle a key between the surviving shards — minimal movement.
    EXPECT_EQ(mv.to, 4u) << mv.key;
    EXPECT_NE(mv.from, 4u);
    EXPECT_EQ(RingOwner(from, mv.key), mv.from);
    EXPECT_EQ(RingOwner(to, mv.key), mv.to);
  }
  // Roughly a 1/5 share moves (loose bounds; the split is hash-driven).
  EXPECT_GT(moves.size(), keys.size() / 10);
  EXPECT_LT(moves.size(), keys.size() / 3);
  // Moves come back sorted by key: the order the durable cursor advances.
  for (size_t i = 1; i < moves.size(); ++i) {
    EXPECT_LT(moves[i - 1].key, moves[i].key);
  }
  // Identity plan = empty plan.
  EXPECT_TRUE(PlanMigration(from, from, keys).empty());
}

TEST(RingPolicyTest, RemovalPlanScattersOnlyTheLeaverKeys) {
  const size_t vnodes = 384;
  ShardRing from = BuildShardRing(0, Slots(4), vnodes);
  ShardRing to = BuildShardRing(1, {0, 2, 3}, vnodes);
  std::vector<KeyMove> moves = PlanMigration(from, to, ObjectKeys(2000));
  ASSERT_FALSE(moves.empty());
  for (const KeyMove& mv : moves) {
    EXPECT_EQ(mv.from, 1u) << mv.key;  // only the leaver's keys move
    EXPECT_NE(mv.to, 1u);
  }
}

/// Satellite: ownership balance. Measured empirically before hard-coding:
/// at kVirtualNodesPerShard the max/min ownership ratio stays under 1.3
/// for 2, 4 and 8 shards over 20k keys (16 vnodes skewed to 2.4×, which is
/// why the constant is 384).
TEST(RingPolicyTest, OwnershipSkewStaysUnder1Point3) {
  const std::vector<std::string> keys = ObjectKeys(20000);
  for (size_t shards : {2u, 4u, 8u}) {
    ShardRing ring = BuildShardRing(
        0, Slots(shards), ShardedStorageEngine::kVirtualNodesPerShard);
    std::map<size_t, size_t> owned;
    for (const std::string& key : keys) owned[RingOwner(ring, key)] += 1;
    size_t min_owned = keys.size(), max_owned = 0;
    for (size_t s = 0; s < shards; ++s) {
      min_owned = std::min(min_owned, owned[s]);
      max_owned = std::max(max_owned, owned[s]);
    }
    ASSERT_GT(min_owned, 0u) << shards << " shards";
    EXPECT_LT(static_cast<double>(max_owned) /
                  static_cast<double>(min_owned),
              1.3)
        << shards << " shards: min=" << min_owned << " max=" << max_owned;
  }
}

// ------------------------------------------------ loopback live scaling ---

TEST(ElasticClusterTest, AddShardMigratesKeysPreservingIds) {
  auto cluster = MakeCluster(2);
  std::map<std::string, std::vector<Hash256>> ids_before;
  for (const std::string& key : ObjectKeys(40)) {
    ASSERT_TRUE(cluster->Put(key, "v1 of " + key).ok());
    ASSERT_TRUE(cluster->Put(key, "v2 of " + key).ok());
    ids_before[key] = cluster->Versions(key);
    ASSERT_EQ(ids_before[key].size(), 2u);
  }
  ASSERT_TRUE(cluster->Put("pipeline/demo/commits", "commit-json").ok());

  auto added =
      cluster->AddShard(MakeLoopbackShard(std::make_unique<ForkBaseEngine>()));
  ASSERT_TRUE(added.ok()) << added;
  EXPECT_FALSE(cluster->migration_in_progress());
  EXPECT_EQ(cluster->num_shards(), 3u);
  EXPECT_EQ(cluster->ring_epoch(), 1u);

  auto stats = cluster->migration_stats();
  EXPECT_GT(stats.keys_migrated, 0u);
  EXPECT_EQ(stats.versions_migrated, stats.keys_migrated * 2);
  EXPECT_GT(stats.cursor_writes, 0u);

  // Every key reads back, every version id survived the move bit-for-bit.
  for (const auto& [key, ids] : ids_before) {
    auto got = cluster->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, "v2 of " + key);
    EXPECT_EQ(cluster->Versions(key), ids) << key;
    for (const Hash256& id : ids) {
      auto by_id = cluster->GetVersion(id);
      ASSERT_TRUE(by_id.ok()) << key;
    }
  }
  // The new shard actually took ownership of a share of the keys, and the
  // replicated namespace was seeded onto it.
  size_t on_new_shard = 0;
  bool new_shard_has_replicated = false;
  for (const auto& [key, id] : cluster->shard(2)->ListAllVersions()) {
    if (key == "pipeline/demo/commits") {
      new_shard_has_replicated = true;
    } else if (key.rfind("__migration__/", 0) != 0) {
      ++on_new_shard;
    }
  }
  EXPECT_GT(on_new_shard, 0u);
  EXPECT_TRUE(new_shard_has_replicated);
  // The logical view is unchanged: 40 keys x 2 versions + 1 replicated.
  EXPECT_EQ(cluster->ListAllVersions().size(), 81u);
  // The only bookkeeping residue is the durable topology record — the
  // plan and cursor are retired by finalize.
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    for (const auto& [key, id] : cluster->shard(s)->ListAllVersions()) {
      if (key.rfind("__migration__/", 0) == 0) {
        EXPECT_EQ(key, "__migration__/topology") << "shard " << s;
      }
    }
  }
}

/// Regression for the cursor-overtake race: a key written to its OLD owner
/// while a batch pass was in flight could end up at or below the cursor
/// without being migrated — reads went NotFound (data stranded at a shard
/// the router no longer consults for that key) and a re-Put landed at the
/// new owner as ordinal 0, wedging every later MigrateBatch with a
/// permanent "migration id mismatch". The fix tracks such writes in a
/// dirty set that each batch folds in before the cursor advances.
TEST(ElasticClusterTest, WritesDuringMigrationAreNeverLostToTheCursor) {
  // Migration reads versions with GetVersion; the writer only uses
  // Put/Get. Slowing GetVersion alone stretches every batch's in-flight
  // window from microseconds to ~a millisecond, so concurrent writes
  // reliably land inside it — without it the race is too narrow to hit
  // deterministically in-process.
  struct SlowVersionReads : ForkBaseEngine {
    StatusOr<std::string> GetVersion(const Hash256& id) override {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      return ForkBaseEngine::GetVersion(id);
    }
  };
  auto cluster = MakeLoopbackCluster(
      2, [] { return std::make_unique<SlowVersionReads>(); });
  for (const std::string& key : ObjectKeys(120)) {
    ASSERT_TRUE(cluster->Put(key, "seed " + key).ok());
  }

  // Hammer writes concurrently with the migration. The "-live" suffix
  // interleaves the written keys lexicographically with the seeded ones,
  // so every batch boundary is a chance for the cursor to overtake a
  // freshly written key. Re-writing the same 60 keys exercises the re-Put
  // half of the race (ordinal-0 copies at the new owner).
  std::atomic<bool> stop{false};
  std::map<std::string, std::string> last_acked;
  std::map<std::string, size_t> puts_per_key;
  std::vector<std::string> writer_failures;
  std::thread writer([&] {
    size_t counter = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string key =
          "artifact/obj" + std::to_string(counter % 60) + "-live";
      const std::string value = "w" + std::to_string(counter);
      auto put = cluster->Put(key, value);
      if (!put.ok()) {
        writer_failures.push_back(key + ": put: " + put.status().message());
        break;
      }
      last_acked[key] = value;
      puts_per_key[key] += 1;
      // Read-after-write: an acknowledged write must be visible NOW, not
      // after the next migration pass happens to re-enumerate it.
      auto got = cluster->Get(key);
      if (!got.ok()) {
        writer_failures.push_back(key + ": get: " + got.status().message());
        break;
      }
      if (*got != value) {
        writer_failures.push_back(key + ": stale read: got '" + *got +
                                  "' want '" + value + "'");
        break;
      }
      ++counter;
    }
  });

  ShardedStorageEngine::MigrationOptions opts;
  opts.batch_keys = 1;  // maximize cursor advances = race windows
  auto added = cluster->AddShard(
      MakeLoopbackShard(std::make_unique<ForkBaseEngine>()), opts);
  stop.store(true, std::memory_order_release);
  writer.join();

  // Before the fix this failed two ways: the writer saw NotFound/stale
  // reads, and AddShard died with Internal "migration id mismatch".
  ASSERT_TRUE(added.ok()) << added;
  EXPECT_FALSE(cluster->migration_in_progress());
  EXPECT_TRUE(writer_failures.empty())
      << writer_failures.size() << " failures, first: "
      << writer_failures.front();
  ASSERT_GT(puts_per_key.size(), 0u);
  // Every acknowledged write survived the rebalance: latest value AND the
  // full version history (an overtaken re-Put would fork the history).
  for (const auto& [key, value] : last_acked) {
    auto got = cluster->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status();
    EXPECT_EQ(*got, value) << key;
    EXPECT_EQ(cluster->Versions(key).size(), puts_per_key[key]) << key;
  }
}

/// Satellite regression: replicated-prefix reads used to hard-code shard 0.
/// Removing shard 0 (the original coordinator) must hand the replicated
/// namespace and 2PC authority to the next live member.
TEST(ElasticClusterTest, RemoveShardZeroHandsOffTheCoordinator) {
  auto cluster = MakeCluster(3);
  ASSERT_TRUE(cluster->Put("pipeline/demo/commits", "commit-json").ok());
  ASSERT_TRUE(cluster->Put("library/lut", "lut-payload").ok());
  std::map<std::string, std::vector<Hash256>> ids_before;
  for (const std::string& key : ObjectKeys(30)) {
    ASSERT_TRUE(cluster->Put(key, "payload " + key).ok());
    ids_before[key] = cluster->Versions(key);
  }
  ASSERT_EQ(cluster->coordinator_shard(), 0u);

  auto removed = cluster->RemoveShard(0);
  ASSERT_TRUE(removed.ok()) << removed;
  EXPECT_FALSE(cluster->migration_in_progress());
  EXPECT_EQ(cluster->coordinator_shard(), 1u);

  // Replicated metadata still reads through the router (the failing-before
  // case: a hard-coded shard 0 would ask a drained slot).
  auto commits = cluster->Get("pipeline/demo/commits");
  ASSERT_TRUE(commits.ok()) << commits.status();
  EXPECT_EQ(*commits, "commit-json");
  auto lut = cluster->Get("library/lut");
  ASSERT_TRUE(lut.ok());
  EXPECT_EQ(*lut, "lut-payload");
  EXPECT_FALSE(cluster->Versions("pipeline/demo/commits").empty());

  // The drained slot is EMPTY — objects, replicated copies, bookkeeping.
  EXPECT_TRUE(cluster->shard(0)->ListAllVersions().empty());
  // Every object key survived with its id.
  for (const auto& [key, ids] : ids_before) {
    auto got = cluster->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(cluster->Versions(key), ids) << key;
  }
  // Replicated writes still commit by 2PC on the NEW member set.
  ASSERT_TRUE(cluster->Put("pipeline/demo/commits", "commit-json-2").ok());
  for (size_t s : cluster->live_members()) {
    auto got = cluster->shard(s)->Get("pipeline/demo/commits");
    ASSERT_TRUE(got.ok()) << "shard " << s;
    EXPECT_EQ(*got, "commit-json-2");
  }
}

TEST(ElasticClusterTest, PausedMigrationServesDualEpochReadsAndWrites) {
  auto cluster = MakeCluster(2);
  for (const std::string& key : ObjectKeys(60)) {
    ASSERT_TRUE(cluster->Put(key, "payload " + key).ok());
  }
  ShardedStorageEngine::MigrationOptions opts;
  opts.batch_keys = 4;
  opts.max_batches = 1;  // pause after one batch, dual-epoch stays live
  auto added = cluster->AddShard(
      MakeLoopbackShard(std::make_unique<ForkBaseEngine>()), opts);
  ASSERT_TRUE(added.ok()) << added;
  ASSERT_TRUE(cluster->migration_in_progress());
  EXPECT_EQ(cluster->migration_stats().batches, 1u);

  // Mid-migration, every key still reads and writes through the router —
  // already-moved keys route to the new epoch, pending ones to the old.
  for (const std::string& key : ObjectKeys(60)) {
    auto got = cluster->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, "payload " + key);
  }
  ASSERT_TRUE(cluster->Put("artifact/obj7", "rewritten mid-migration").ok());
  ASSERT_TRUE(cluster->Put("pipeline/demo/commits", "mid-migration").ok());

  ShardedStorageEngine::MigrationOptions rest;
  rest.batch_keys = 16;
  auto resumed = cluster->ResumeMigration(rest);
  ASSERT_TRUE(resumed.ok()) << resumed;
  EXPECT_FALSE(cluster->migration_in_progress());
  auto got = cluster->Get("artifact/obj7");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "rewritten mid-migration");
  EXPECT_EQ(cluster->Versions("artifact/obj7").size(), 2u);
  auto commits = cluster->Get("pipeline/demo/commits");
  ASSERT_TRUE(commits.ok());
  EXPECT_EQ(*commits, "mid-migration");
}

/// A destination that already holds a batch's versions (the signature of a
/// driver killed between the copy landing and the cursor write) reports
/// them as SKIPPED, not re-applied — replay is idempotent.
TEST(ElasticClusterTest, ReplayedBatchIsSkippedNotDuplicated) {
  auto cluster = MakeCluster(2);
  std::map<std::string, std::vector<std::string>> payloads;
  for (const std::string& key : ObjectKeys(40)) {
    payloads[key] = {"v1 of " + key, "v2 of " + key};
    for (const std::string& payload : payloads[key]) {
      ASSERT_TRUE(cluster->Put(key, payload).ok());
    }
  }
  // Compute which keys slot 2 will take, then pre-copy a few of them into
  // the new shard's BACKEND before it joins — exactly the on-disk state a
  // kill -9 between MigrateBatch and the cursor write leaves behind.
  ShardRing from = BuildShardRing(0, Slots(2),
                                  ShardedStorageEngine::kVirtualNodesPerShard);
  ShardRing to = BuildShardRing(1, Slots(3),
                                ShardedStorageEngine::kVirtualNodesPerShard);
  std::vector<KeyMove> plan = PlanMigration(from, to, ObjectKeys(40));
  ASSERT_GT(plan.size(), 2u);
  auto backend = std::make_unique<ForkBaseEngine>();
  size_t pre_copied_versions = 0;
  for (size_t i = 0; i < 2; ++i) {
    MigrateKeyVersions entry;
    entry.key = plan[i].key;
    for (const Hash256& id : cluster->Versions(entry.key)) {
      auto data = cluster->GetVersion(id);
      ASSERT_TRUE(data.ok());
      entry.versions.emplace_back(id, *data);
    }
    auto applied = backend->MigrateBatch({entry});
    ASSERT_TRUE(applied.ok()) << applied.status();
    pre_copied_versions += applied->applied_versions;
  }
  ASSERT_EQ(pre_copied_versions, 4u);

  auto added = cluster->AddShard(MakeLoopbackShard(std::move(backend)));
  ASSERT_TRUE(added.ok()) << added;
  auto stats = cluster->migration_stats();
  EXPECT_EQ(stats.skipped_versions, pre_copied_versions);
  // No duplicate versions anywhere: each key still has exactly v1, v2.
  for (const auto& [key, expect] : payloads) {
    std::vector<Hash256> ids = cluster->Versions(key);
    ASSERT_EQ(ids.size(), 2u) << key;
    for (size_t v = 0; v < 2; ++v) {
      auto data = cluster->GetVersion(ids[v]);
      ASSERT_TRUE(data.ok());
      EXPECT_EQ(*data, expect[v]);
    }
  }
}

/// Regression: ResumeMigration used to treat ANY plan-scan failure as "no
/// plan" — an unreachable shard made the router silently serve single-epoch
/// against a ring that did not match the physical data layout. A scan
/// failure must surface; only NotFound means "no plan here".
TEST(ElasticClusterTest, ResumeMigrationSurfacesPlanScanFailures) {
  struct GetFailsEngine : ForkBaseEngine {
    StatusOr<std::string> Get(const std::string& /*key*/) override {
      return Status::Unavailable("injected: shard unreachable");
    }
  };
  std::vector<std::unique_ptr<StorageEngine>> shards;
  shards.push_back(std::make_unique<GetFailsEngine>());
  shards.push_back(std::make_unique<ForkBaseEngine>());
  ShardedStorageEngine cluster(std::move(shards));
  auto resumed = cluster.ResumeMigration(ShardedStorageEngine::MigrationOptions());
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.IsUnavailable()) << resumed;
}

/// Regression: finalize used to retire the plan and cursor without leaving
/// any durable membership record, so a router rebuilt from the ORIGINAL
/// endpoint list (drained slot included) rebuilt an epoch-0 ring containing
/// the empty shard and routed a slice of the keyspace to it. Finalize now
/// persists a __migration__/topology record on every surviving member and
/// ResumeMigration restores it when no plan is found.
TEST(ElasticClusterTest, RebuiltRouterHonorsTheDurableTopologyRecord) {
  std::vector<fs::path> dirs;
  for (size_t s = 0; s < 3; ++s) {
    std::string tmpl = "/tmp/mlcask-topo-XXXXXX";
    char* made = ::mkdtemp(tmpl.data());
    ASSERT_NE(made, nullptr);
    dirs.emplace_back(made);
  }
  auto open_cluster = [&] {
    std::vector<std::unique_ptr<StorageEngine>> shards;
    for (const fs::path& dir : dirs) {
      auto backend = DurableForkBaseEngine::Open(dir.string());
      MLCASK_CHECK_OK(backend.status());
      shards.push_back(MakeLoopbackShard(*std::move(backend)));
    }
    return std::make_unique<ShardedStorageEngine>(std::move(shards));
  };

  std::map<std::string, std::string> expect;
  {
    auto cluster = open_cluster();
    for (const std::string& key : ObjectKeys(30)) {
      expect[key] = "durable " + key;
      ASSERT_TRUE(cluster->Put(key, expect[key]).ok()) << key;
    }
    ASSERT_TRUE(cluster->Put("pipeline/demo/commits", "commit-json").ok());
    expect["pipeline/demo/commits"] = "commit-json";
    auto removed = cluster->RemoveShard(0);
    ASSERT_TRUE(removed.ok()) << removed;
    ASSERT_EQ(cluster->ring_epoch(), 1u);
  }  // the router dies; slot 0's store is drained on disk

  // A fresh router dialing the STALE full endpoint list starts at epoch 0
  // with the drained slot back in the ring...
  auto cluster = open_cluster();
  ASSERT_EQ(cluster->ring_epoch(), 0u);
  // ...until the resume scan finds the durable topology record and
  // reinstalls the post-migration membership.
  auto resumed = cluster->ResumeMigration(ShardedStorageEngine::MigrationOptions());
  ASSERT_TRUE(resumed.ok()) << resumed;
  EXPECT_EQ(cluster->ring_epoch(), 1u);
  EXPECT_EQ(cluster->coordinator_shard(), 1u);
  EXPECT_EQ(cluster->live_members(), (std::vector<size_t>{1, 2}));
  for (const auto& [key, value] : expect) {
    auto got = cluster->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status();
    EXPECT_EQ(*got, value) << key;
  }
  for (const fs::path& dir : dirs) fs::remove_all(dir);
}

/// The byte budget bounds how long one batch holds the transaction lock: a
/// batch of large artifacts ships a truncated prefix and goes around again
/// instead of stalling the control plane for the whole payload.
TEST(ElasticClusterTest, BatchByteBudgetBoundsEachBatchPayload) {
  auto cluster = MakeCluster(2);
  std::map<std::string, std::string> expect;
  for (const std::string& key : ObjectKeys(24)) {
    expect[key] = key + std::string(64 * 1024, 'x');
    ASSERT_TRUE(cluster->Put(key, expect[key]).ok());
  }
  ShardedStorageEngine::MigrationOptions opts;
  opts.batch_keys = 32;           // nominally "everything in one batch"...
  opts.batch_bytes = 64 * 1024;   // ...but the budget caps each at ~1 key
  auto added = cluster->AddShard(
      MakeLoopbackShard(std::make_unique<ForkBaseEngine>()), opts);
  ASSERT_TRUE(added.ok()) << added;
  auto stats = cluster->migration_stats();
  ASSERT_GT(stats.keys_migrated, 1u);
  // Every 64 KiB payload blows the budget on its own, so no batch can have
  // carried more than one key: at least one batch per migrated key.
  EXPECT_GE(stats.batches, stats.keys_migrated);
  for (const auto& [key, value] : expect) {
    auto got = cluster->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
}

// ------------------------------------------- merge during the rebalance ---

struct MergeFingerprint {
  uint64_t executions = 0;
  double best_score = 0;
  int best_index = -1;
  std::vector<std::string> winner_chain;
  std::vector<std::string> artifact_hashes;

  bool operator==(const MergeFingerprint& other) const {
    return executions == other.executions &&
           best_score == other.best_score &&
           best_index == other.best_index &&
           winner_chain == other.winner_chain &&
           artifact_hashes == other.artifact_hashes;
  }
};

/// Runs the fig9 merge on a fresh `shards`-wide loopback deployment.
/// `mid_merge` (optional) runs on a side thread once the merge has started;
/// the returned deployment keeps the engine alive for inspection.
MergeFingerprint RunMergeWithRebalance(
    size_t shards, const std::function<void(ShardedStorageEngine*)>& mid_merge =
                       nullptr) {
  sim::DeploymentConfig config;
  config.num_workers = 1;
  config.storage_shards = shards;
  auto deployment = sim::MakeDeployment("readmission", 0.06, config);
  MLCASK_CHECK_OK(deployment.status());
  auto d = *std::move(deployment);
  MLCASK_CHECK_OK(sim::BuildTwoBranchScenario(d.get()).status());
  merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                           d->registry.get(), d->engine.get(),
                           d->clock.get());
  merge::MergeOptions options;
  options.shards = shards;

  std::thread side;
  if (mid_merge != nullptr) {
    ShardedStorageEngine* sharded = d->sharded_engine();
    MLCASK_CHECK_MSG(sharded != nullptr, "deployment engine is not sharded");
    side = std::thread([&, sharded] {
      // Let the merge get underway first, so the topology change genuinely
      // overlaps candidate execution instead of finishing before it starts.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      mid_merge(sharded);
    });
  }
  auto report = op.Merge("master", "dev", options);
  if (side.joinable()) side.join();
  MLCASK_CHECK_OK(report.status());

  MergeFingerprint fp;
  fp.executions = report->component_executions;
  fp.best_score = report->best_score;
  fp.best_index = report->best_index;
  const merge::CandidateChain& winner =
      report->outcomes[static_cast<size_t>(report->best_index)].chain;
  for (const pipeline::ComponentVersionSpec* spec : winner) {
    fp.winner_chain.push_back(spec->Key());
  }
  auto head = d->repo->Head("master");
  MLCASK_CHECK_OK(head.status());
  for (const version::ComponentRecord& rec : (*head)->snapshot.components) {
    fp.artifact_hashes.push_back(rec.output_id.ToHex());
    EXPECT_TRUE(d->engine->HasVersion(rec.output_id));
  }
  return fp;
}

/// The tentpole acceptance: a merge that STARTS before the topology change
/// completes produces the bit-identical winner, execution count and
/// persisted artifact hashes as a fixed-topology run.
TEST(MergeDuringRebalanceTest, AddShardMidMergeIsBitIdentical) {
  MergeFingerprint reference = RunMergeWithRebalance(4);
  Status rebalance = Status::Ok();
  MergeFingerprint live =
      RunMergeWithRebalance(4, [&](ShardedStorageEngine* engine) {
        rebalance = engine->AddShard(
            MakeLoopbackShard(std::make_unique<ForkBaseEngine>()));
      });
  ASSERT_TRUE(rebalance.ok()) << rebalance;
  EXPECT_TRUE(live == reference);
}

TEST(MergeDuringRebalanceTest, RemoveShardMidMergeIsBitIdentical) {
  MergeFingerprint reference = RunMergeWithRebalance(4);
  Status rebalance = Status::Ok();
  MergeFingerprint live =
      RunMergeWithRebalance(4, [&](ShardedStorageEngine* engine) {
        // Retire the original coordinator while candidates execute.
        rebalance = engine->RemoveShard(0);
      });
  ASSERT_TRUE(rebalance.ok()) << rebalance;
  EXPECT_TRUE(live == reference);
}

// ------------------------------------- real processes: kill -9 + resume ---

LocalServerCluster::Options DurableServerOptions() {
  LocalServerCluster::Options options;
  options.server_binary = MLCASK_SERVER_BIN;
  options.durable = true;
  return options;
}

/// The crash drill the durable cursor exists for: pause a migration
/// mid-flight over REAL durable server processes, kill -9 every shard
/// (machine crash), restart them, build a FRESH router with no memory of
/// the migration — ResumeMigration must find the durable plan + cursor and
/// finish the job with zero lost keys.
TEST(ElasticClusterProcessTest, KillNineMidMigrationResumesWithoutLoss) {
  LocalServerCluster servers;
  auto started = servers.Start(2, DurableServerOptions());
  ASSERT_TRUE(started.ok()) << started;

  std::map<std::string, std::string> expect;
  {
    auto cluster = ConnectCluster(servers.endpoints());
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    for (const std::string& key : ObjectKeys(24)) {
      expect[key] = "durable payload " + key;
      ASSERT_TRUE((*cluster)->Put(key, expect[key]).ok()) << key;
    }
    ASSERT_TRUE((*cluster)->Put("pipeline/demo/commits", "commit-json").ok());
    expect["pipeline/demo/commits"] = "commit-json";

    // Scale out by one real process and migrate only ONE batch before
    // pausing: the durable plan + cursor are now on the shards, the
    // migration is provably incomplete.
    auto endpoint = servers.AddShard();
    ASSERT_TRUE(endpoint.ok()) << endpoint.status();
    auto transport = SocketTransport::Connect(*endpoint);
    ASSERT_TRUE(transport.ok()) << transport.status();
    ShardedStorageEngine::MigrationOptions opts;
    opts.batch_keys = 3;
    opts.max_batches = 1;
    auto added = (*cluster)->AddShard(
        std::make_unique<RemoteStorageEngine>(*std::move(transport)), opts);
    ASSERT_TRUE(added.ok()) << added;
    ASSERT_TRUE((*cluster)->migration_in_progress());
    auto stats = (*cluster)->migration_stats();
    ASSERT_EQ(stats.batches, 1u);
    ASSERT_GT(stats.keys_migrated, 0u);
    ASSERT_LT(stats.keys_migrated, expect.size());
  }  // the router dies with its in-memory rings and cursor

  // Machine crash: kill -9 every shard, no flush, no goodbye.
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(servers.KillShard(s).ok()) << s;
  }
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(servers.RestartShard(s).ok()) << s;
  }

  // A fresh router has no idea a migration was running...
  auto cluster = ConnectCluster(servers.endpoints());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ASSERT_FALSE((*cluster)->migration_in_progress());
  // ...until it scans for the durable plan and resumes from the cursor.
  ShardedStorageEngine::MigrationOptions opts;
  opts.batch_keys = 3;
  auto resumed = (*cluster)->ResumeMigration(opts);
  ASSERT_TRUE(resumed.ok()) << resumed;
  EXPECT_FALSE((*cluster)->migration_in_progress());
  auto stats = (*cluster)->migration_stats();
  EXPECT_EQ(stats.resumes, 1u);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ((*cluster)->ring_epoch(), 1u);

  // ZERO lost keys: every acknowledged write reads back bit-for-bit.
  for (const auto& [key, payload] : expect) {
    auto got = (*cluster)->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status();
    EXPECT_EQ(*got, payload) << key;
  }
  // The new shard ended up owning its share.
  size_t on_new_shard = 0;
  for (const auto& [key, id] : (*cluster)->shard(2)->ListAllVersions()) {
    if (key.rfind("artifact/", 0) == 0) ++on_new_shard;
  }
  EXPECT_GT(on_new_shard, 0u);

  auto stopped = servers.Stop();
  EXPECT_TRUE(stopped.ok()) << stopped;
}

// ------------------------------------------- process-launcher satellites ---

TEST(ServerClusterTest, AddAndDrainShardProcesses) {
  LocalServerCluster servers;
  LocalServerCluster::Options options;
  options.server_binary = MLCASK_SERVER_BIN;
  auto started = servers.Start(2, options);
  ASSERT_TRUE(started.ok()) << started;
  ASSERT_EQ(servers.endpoints().size(), 2u);

  auto endpoint = servers.AddShard();
  ASSERT_TRUE(endpoint.ok()) << endpoint.status();
  ASSERT_EQ(servers.endpoints().size(), 3u);
  // The new process answers real requests.
  auto transport = SocketTransport::Connect(*endpoint);
  ASSERT_TRUE(transport.ok()) << transport.status();
  RemoteStorageEngine proxy(*std::move(transport));
  ASSERT_TRUE(proxy.Put("artifact/x", "on the new shard").ok());
  auto got = proxy.Get("artifact/x");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "on the new shard");

  const std::string socket = endpoint->substr(5);  // strip "unix:"
  auto drained = servers.DrainShard(2);
  EXPECT_TRUE(drained.ok()) << drained;
  EXPECT_FALSE(fs::exists(socket));  // slot can never be dialed again
  // Draining twice is an error, not a crash.
  EXPECT_FALSE(servers.DrainShard(2).ok());
  auto stopped = servers.Stop();
  EXPECT_TRUE(stopped.ok()) << stopped;
}

/// Satellite regression: Stop() used to pair per-file unlinks with a bare
/// ::rmdir, which fails SILENTLY on a non-empty directory — so any file the
/// launcher did not expect (a crashed child's core file, a half-written
/// artifact) leaked the mkdtemp root under /tmp forever.
TEST(ServerClusterTest, StopRemovesTheTempRootEvenWithCrashArtifacts) {
  LocalServerCluster servers;
  LocalServerCluster::Options options;
  options.server_binary = MLCASK_SERVER_BIN;
  auto started = servers.Start(1, options);
  ASSERT_TRUE(started.ok()) << started;
  ASSERT_EQ(servers.endpoints().size(), 1u);
  // endpoints()[0] = "unix:<root>/shard0.sock"
  const fs::path socket = servers.endpoints()[0].substr(5);
  const fs::path root = socket.parent_path();
  ASSERT_TRUE(fs::is_directory(root));
  // Plant a file the unlink list does not know about (the failing-before
  // case: with ::rmdir the root silently survived Stop()).
  {
    std::ofstream artifact(root / "core.12345");
    artifact << "crash artifact";
  }
  auto stopped = servers.Stop();
  EXPECT_TRUE(stopped.ok()) << stopped;
  EXPECT_FALSE(fs::exists(root)) << root;
}

}  // namespace
}  // namespace mlcask::storage
