// Checkpoint seeding reads history once per merge: a counting storage
// decorator pins the number of reads a sharded merge makes, and a failing
// one pins that a failed checkpoint read is a typed error, never a silently
// smaller set of green nodes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "merge/merge_op.h"
#include "sim/scenario.h"
#include "storage/storage_engine.h"

namespace mlcask {
namespace {

/// Forwards every call to a borrowed engine, counting GetVersion per id and
/// HasVersion in total. GetVersion of the failing id returns the injected
/// status instead of reading, and HasVersion of it answers false — what an
/// engine without an error channel reports when the read fails.
class CountingEngine : public storage::StorageEngine {
 public:
  explicit CountingEngine(storage::StorageEngine* inner) : inner_(inner) {}

  void FailGetVersion(const Hash256& id, Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_id_ = id;
    fail_status_ = std::move(status);
  }
  std::map<Hash256, size_t> get_version_calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return get_version_calls_;
  }
  size_t has_version_calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return has_version_calls_;
  }

  StatusOr<storage::PutResult> Put(const std::string& key,
                                   std::string_view data) override {
    return inner_->Put(key, data);
  }
  StatusOr<std::vector<storage::PutResult>> PutMany(
      const std::vector<storage::PutRequest>& batch) override {
    return inner_->PutMany(batch);
  }
  StatusOr<std::string> Get(const std::string& key) override {
    return inner_->Get(key);
  }
  StatusOr<std::string> GetVersion(const Hash256& id) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      get_version_calls_[id] += 1;
      if (id == fail_id_) return fail_status_;
    }
    return inner_->GetVersion(id);
  }
  bool HasVersion(const Hash256& id) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      has_version_calls_ += 1;
      if (id == fail_id_) return false;
    }
    return inner_->HasVersion(id);
  }
  std::vector<Hash256> Versions(const std::string& key) const override {
    return inner_->Versions(key);
  }
  std::vector<std::pair<std::string, Hash256>> ListAllVersions()
      const override {
    return inner_->ListAllVersions();
  }
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override {
    return inner_->DeleteVersion(id);
  }
  storage::EngineStats stats() const override { return inner_->stats(); }
  std::string Name() const override { return "counting:" + inner_->Name(); }
  double ReadCost(uint64_t bytes) const override {
    return inner_->ReadCost(bytes);
  }

 private:
  storage::StorageEngine* inner_;
  mutable std::mutex mu_;
  std::map<Hash256, size_t> get_version_calls_;
  mutable size_t has_version_calls_ = 0;
  Hash256 fail_id_;
  Status fail_status_;
};

/// The fig11 distributed-merge scenario on 4 storage shards, merged
/// through a CountingEngine.
struct CountedMerge {
  std::unique_ptr<sim::Deployment> deployment;
  std::unique_ptr<CountingEngine> counting;
  /// Distinct output ids recorded in the merge's history, before merging.
  std::set<Hash256> checkpoint_ids;
  StatusOr<merge::MergeReport> report = Status::Internal("not run");
};

std::unique_ptr<sim::Deployment> Fig11Deployment() {
  sim::DeploymentConfig config;
  config.num_workers = 1;
  config.storage_shards = 4;
  auto deployment = sim::MakeDeployment("readmission", 0.06, config);
  MLCASK_CHECK_OK(deployment.status());
  MLCASK_CHECK_OK(sim::BuildDistributedMergeScenario(
                      deployment->get(), /*extra_extractor_versions=*/2,
                      /*extra_model_versions=*/2)
                      .status());
  return *std::move(deployment);
}

/// Every commit whose outputs seed the merge of dev into master.
std::vector<const version::Commit*> MergeHistory(const sim::Deployment& d) {
  auto space =
      merge::BuildSearchSpace(*d.repo, *d.libraries, "master", "dev");
  MLCASK_CHECK_OK(space.status());
  return space->history;
}

std::set<Hash256> CheckpointIds(const std::vector<const version::Commit*>& h) {
  std::set<Hash256> ids;
  for (const version::Commit* commit : h) {
    for (const version::ComponentRecord& rec : commit->snapshot.components) {
      if (rec.has_output()) ids.insert(rec.output_id);
    }
  }
  return ids;
}

/// Merges dev into master with `shards` drain shards. When `fail_id` is
/// set, GetVersion of that id returns `fail_status`.
CountedMerge RunCountedMerge(size_t shards, const Hash256* fail_id = nullptr,
                             Status fail_status = Status::Ok()) {
  CountedMerge run;
  run.deployment = Fig11Deployment();
  sim::Deployment& d = *run.deployment;
  run.checkpoint_ids = CheckpointIds(MergeHistory(d));
  run.counting = std::make_unique<CountingEngine>(d.engine.get());
  if (fail_id != nullptr) run.counting->FailGetVersion(*fail_id, fail_status);
  merge::MergeOperation op(d.repo.get(), d.libraries.get(), d.registry.get(),
                           run.counting.get(), d.clock.get());
  merge::MergeOptions options;
  options.shards = shards;
  run.report = op.Merge("master", "dev", options);
  return run;
}

std::vector<std::string> WinnerChain(const merge::MergeReport& report) {
  std::vector<std::string> keys;
  const merge::CandidateChain& winner =
      report.outcomes[static_cast<size_t>(report.best_index)].chain;
  for (const pipeline::ComponentVersionSpec* spec : winner) {
    keys.push_back(spec->Key());
  }
  return keys;
}

TEST(CheckpointReadsTest, ShardedMergeReadsEachCheckpointOnce) {
  CountedMerge four = RunCountedMerge(4);
  ASSERT_TRUE(four.report.ok()) << four.report.status();
  const std::set<Hash256>& ids = four.checkpoint_ids;
  ASSERT_FALSE(ids.empty());

  // One GetVersion per distinct checkpoint id, whichever shard seeds it,
  // and no other version read; no existence probe at all.
  const std::map<Hash256, size_t> calls = four.counting->get_version_calls();
  EXPECT_EQ(calls.size(), ids.size());
  for (const Hash256& id : ids) {
    auto it = calls.find(id);
    ASSERT_NE(it, calls.end()) << "checkpoint " << id.ShortHex() << " unread";
    EXPECT_EQ(it->second, 1u) << "checkpoint " << id.ShortHex();
  }
  EXPECT_EQ(four.counting->has_version_calls(), 0u);

  // Reading once changes nothing the search sees: identical to the
  // single-node merge and to the figures of the per-shard seeding it
  // replaced (which probed and read every checkpoint once per shard).
  CountedMerge one = RunCountedMerge(1);
  ASSERT_TRUE(one.report.ok()) << one.report.status();
  EXPECT_EQ(one.counting->get_version_calls(), calls);
  for (const CountedMerge* run : {&four, &one}) {
    const merge::MergeReport& report = *run->report;
    EXPECT_EQ(report.checkpoints_marked, 17u);
    EXPECT_EQ(report.component_executions, 24u);
    EXPECT_EQ(report.best_index, 21);
    EXPECT_EQ(report.best_score, 0.86111111111111116);  // exact, not near
    EXPECT_EQ(WinnerChain(report),
              (std::vector<std::string>{
                  "dataset@master@0.0", "data_cleansing@master@0.1",
                  "feature_extract@master@1.0", "cnn@master@0.6"}));
  }
}

/// The output id of the common ancestor's first component: a checkpoint
/// every branch shares.
Hash256 AncestorRootOutput() {
  std::unique_ptr<sim::Deployment> d = Fig11Deployment();
  const version::Commit* ancestor = MergeHistory(*d).front();
  const version::ComponentRecord& root = ancestor->snapshot.components[0];
  MLCASK_CHECK(root.has_output());
  return root.output_id;
}

TEST(CheckpointReadsTest, UnreachableCheckpointFailsTheMergeTyped) {
  const Hash256 id = AncestorRootOutput();
  CountedMerge run =
      RunCountedMerge(4, &id, Status::Unavailable("shard unreachable"));
  ASSERT_FALSE(run.report.ok());
  EXPECT_EQ(run.report.status().code(), StatusCode::kUnavailable)
      << run.report.status();
  // Nothing was merged: master still points at its pre-merge head.
  auto head = run.deployment->repo->Head("master");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ((*head)->parents.size(), 1u);
}

TEST(CheckpointReadsTest, CollectedCheckpointIsSkippedAndRecomputed) {
  const Hash256 id = AncestorRootOutput();
  CountedMerge full = RunCountedMerge(4);
  CountedMerge missing =
      RunCountedMerge(4, &id, Status::NotFound("garbage-collected"));
  ASSERT_TRUE(full.report.ok()) << full.report.status();
  ASSERT_TRUE(missing.report.ok()) << missing.report.status();

  // Exactly the search-tree nodes that only the collected output seeded
  // lose their green mark: the ancestor's first component, one node.
  EXPECT_EQ(missing.counting->get_version_calls().at(id), 1u);
  EXPECT_EQ(missing.report->checkpoints_marked,
            full.report->checkpoints_marked - 1);
  EXPECT_GT(missing.report->component_executions,
            full.report->component_executions);
  EXPECT_EQ(missing.report->best_index, full.report->best_index);
  EXPECT_EQ(missing.report->best_score, full.report->best_score);
  EXPECT_EQ(WinnerChain(*missing.report), WinnerChain(*full.report));
}

}  // namespace
}  // namespace mlcask
