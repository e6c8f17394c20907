// Parallel prioritized merge search: N workers draining the candidate
// frontier must find the same optimal pipeline as the serial search and —
// thanks to the artifact cache's in-flight guards — perform exactly the
// same number of component executions (the paper's pruned-candidate
// metric), at a lower virtual wall-clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "merge/merge_op.h"
#include "merge/prioritized.h"
#include "sim/scenario.h"

namespace mlcask::merge {
namespace {

class ParallelSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = sim::MakeDeployment("readmission", /*scale=*/0.08);
    MLCASK_CHECK_OK(d.status());
    deployment_ = std::move(d).value();
    MLCASK_CHECK_OK(sim::BuildTwoBranchScenario(deployment_.get(),
                                                /*extra_model_versions=*/2)
                        .status());
    search_ = std::make_unique<PrioritizedSearch>(
        deployment_->repo.get(), deployment_->libraries.get(),
        deployment_->registry.get(), deployment_->engine.get());
    MLCASK_CHECK_OK(search_->Prepare("master", "dev"));
  }

  TrialResult Trial(SearchMode mode, uint64_t seed, size_t workers) {
    TrialOptions options;
    options.mode = mode;
    options.seed = seed;
    options.num_workers = workers;
    auto trial = search_->RunTrial(options);
    MLCASK_CHECK_OK(trial.status());
    return *std::move(trial);
  }

  std::unique_ptr<sim::Deployment> deployment_;
  std::unique_ptr<PrioritizedSearch> search_;
};

TEST_F(ParallelSearchTest, VisitsEveryCandidateExactlyOnce) {
  for (size_t workers : {size_t{2}, size_t{4}}) {
    TrialResult trial = Trial(SearchMode::kPrioritized, 1, workers);
    ASSERT_EQ(trial.steps.size(), search_->num_candidates());
    std::set<size_t> seen;
    for (const SearchStep& s : trial.steps) {
      EXPECT_TRUE(seen.insert(s.candidate_index).second)
          << "candidate visited twice";
    }
  }
}

TEST_F(ParallelSearchTest, SameOptimalAndExecutionsAsSerial) {
  for (uint64_t seed : {1, 2, 3}) {
    TrialResult serial = Trial(SearchMode::kPrioritized, seed, 1);
    for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
      TrialResult parallel = Trial(SearchMode::kPrioritized, seed, workers);
      EXPECT_DOUBLE_EQ(parallel.best_score, serial.best_score)
          << "workers=" << workers << " seed=" << seed;
      // The paper metric must not regress: in-flight guards dedup shared
      // prefixes across workers, so the counts are identical.
      EXPECT_EQ(parallel.executions, serial.executions)
          << "workers=" << workers << " seed=" << seed;
    }
  }
}

TEST_F(ParallelSearchTest, ParallelWallClockIsFaster) {
  TrialResult serial = Trial(SearchMode::kPrioritized, 1, 1);
  TrialResult parallel = Trial(SearchMode::kPrioritized, 1, 4);
  EXPECT_LT(parallel.wall_clock_s, serial.wall_clock_s);
  // And never better than the critical path allows: the makespan cannot
  // beat serial divided by the worker count.
  EXPECT_GE(parallel.wall_clock_s, serial.wall_clock_s / 4.0 - 1e-9);
}

TEST_F(ParallelSearchTest, SerialTrialMatchesLegacyOverload) {
  TrialResult via_options = Trial(SearchMode::kPrioritized, 5, 1);
  auto legacy = search_->RunTrial(SearchMode::kPrioritized, 5);
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->steps.size(), via_options.steps.size());
  for (size_t i = 0; i < via_options.steps.size(); ++i) {
    EXPECT_EQ(legacy->steps[i].candidate_index,
              via_options.steps[i].candidate_index);
    EXPECT_DOUBLE_EQ(legacy->steps[i].end_time_s,
                     via_options.steps[i].end_time_s);
  }
  EXPECT_EQ(legacy->executions, via_options.executions);
}

TEST_F(ParallelSearchTest, ParallelStepsOrderedByVirtualEndTime) {
  TrialResult trial = Trial(SearchMode::kPrioritized, 2, 4);
  double prev = -1;
  for (const SearchStep& s : trial.steps) {
    EXPECT_GE(s.end_time_s, prev);
    prev = s.end_time_s;
  }
  EXPECT_DOUBLE_EQ(trial.wall_clock_s, trial.steps.back().end_time_s);
}

TEST_F(ParallelSearchTest, RandomModeParallelCoversAllCandidates) {
  TrialResult trial = Trial(SearchMode::kRandom, 3, 4);
  ASSERT_EQ(trial.steps.size(), search_->num_candidates());
  std::set<size_t> seen;
  for (const SearchStep& s : trial.steps) seen.insert(s.candidate_index);
  EXPECT_EQ(seen.size(), search_->num_candidates());
}

enum class MergeScenario { kFig9, kFig11 };

/// One Algorithm 2 merge of the dpm workload on a fresh deployment with an
/// inline core (1 real thread), so virtual claim order is deterministic at
/// any virtual width. dpm's schema-bumped preprocessor costs ~3x its model,
/// so at 4 virtual workers cross-branch candidates reuse prefixes that a
/// sibling timeline is still producing and wait for their full finish.
MergeReport RunDpmMerge(MergeScenario scenario, size_t virtual_workers) {
  auto deployment = sim::MakeDeployment("dpm", 0.06,
                                        /*folder_storage=*/false,
                                        /*num_workers=*/1);
  MLCASK_CHECK_OK(deployment.status());
  auto d = *std::move(deployment);
  if (scenario == MergeScenario::kFig9) {
    MLCASK_CHECK_OK(
        sim::BuildTwoBranchScenario(d.get(), /*extra_model_versions=*/4)
            .status());
  } else {
    MLCASK_CHECK_OK(sim::BuildDistributedMergeScenario(
                        d.get(), /*extra_extractor_versions=*/2,
                        /*extra_model_versions=*/2)
                        .status());
  }
  MergeOperation op(d->repo.get(), d->libraries.get(), d->registry.get(),
                    d->engine.get(), d->clock.get());
  MergeOptions options;
  options.num_workers = virtual_workers;
  options.core = d->core.get();
  auto report = op.Merge("master", "dev", options);
  MLCASK_CHECK_OK(report.status());
  return *std::move(report);
}

TEST(ParallelMergeTest, WaitingOnSharedPrefixesKeepsResultAndShrinksMakespan) {
  for (MergeScenario scenario : {MergeScenario::kFig9, MergeScenario::kFig11}) {
    SCOPED_TRACE(scenario == MergeScenario::kFig9 ? "fig9" : "fig11");
    MergeReport serial = RunDpmMerge(scenario, 1);
    MergeReport parallel = RunDpmMerge(scenario, 4);
    EXPECT_EQ(parallel.component_executions, serial.component_executions);
    EXPECT_EQ(parallel.best_index, serial.best_index);
    EXPECT_EQ(parallel.best_score, serial.best_score);
    EXPECT_GT(parallel.makespan_s, 0.0);
    EXPECT_LE(parallel.makespan_s, serial.makespan_s);
  }
}

}  // namespace
}  // namespace mlcask::merge
