// Tests for general DAG execution (Definition 1 beyond chains): a diamond
// pipeline where two feature branches are joined before the model.

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

#include "common/logging.h"
#include "pipeline/executor.h"
#include "sim/libraries.h"
#include "sim/workloads.h"
#include "storage/forkbase_engine.h"

namespace mlcask::pipeline {
namespace {

ComponentVersionSpec Spec(const std::string& name, ComponentKind kind,
                          uint64_t in_schema, uint64_t out_schema,
                          const std::string& impl, double cost = 1.0) {
  ComponentVersionSpec s;
  s.name = name;
  s.kind = kind;
  s.input_schema = in_schema;
  s.output_schema = out_schema;
  s.impl = impl;
  s.cost_per_krow_s = cost;
  return s;
}

class DagExecutorTest : public ::testing::Test {
 protected:
  DagExecutorTest() : executor_(&registry_, &engine_, &clock_) {
    MLCASK_CHECK_OK(sim::RegisterWorkloadLibraries(&registry_));
  }

  /// Diamond: readmission data fans out to path_a (feature extraction) and
  /// path_b (zero-impute cleansing), whose outputs a join concatenates
  /// before the model.
  Pipeline MakeDiamond() {
    Pipeline p("diamond");
    auto ds = Spec("dataset", ComponentKind::kDataset, 0, 1,
                   "gen_readmission", 1.0);
    ds.params.Set("rows", Json::Int(300));
    MLCASK_CHECK_OK(p.AddComponent(ds));
    auto a = Spec("path_a", ComponentKind::kPreprocessor, 1, 2,
                  "extract_ehr_features", 5.0);
    MLCASK_CHECK_OK(p.AddComponent(a));
    auto b = Spec("path_b", ComponentKind::kPreprocessor, 1, 2,
                  "cleanse_impute", 3.0);
    b.params.Set("strategy", Json::Str("zero"));
    MLCASK_CHECK_OK(p.AddComponent(b));
    auto join =
        Spec("join", ComponentKind::kPreprocessor, 2, 3, "concat_features", 1.0);
    MLCASK_CHECK_OK(p.AddComponent(join));
    auto model = Spec("model", ComponentKind::kModel, 3, 4, "train_logreg", 10.0);
    MLCASK_CHECK_OK(p.AddComponent(model));
    MLCASK_CHECK_OK(p.Connect("dataset", "path_a"));
    MLCASK_CHECK_OK(p.Connect("dataset", "path_b"));
    MLCASK_CHECK_OK(p.Connect("path_a", "join"));
    MLCASK_CHECK_OK(p.Connect("path_b", "join"));
    MLCASK_CHECK_OK(p.Connect("join", "model"));
    return p;
  }

  LibraryRegistry registry_;
  storage::ForkBaseEngine engine_;
  SimClock clock_;
  Executor executor_;
};

TEST_F(DagExecutorTest, DiamondValidatesButIsNotChain) {
  Pipeline p = MakeDiamond();
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_FALSE(p.IsChain());
  EXPECT_EQ(p.Predecessors("join").size(), 2u);
}

TEST_F(DagExecutorTest, RunExecutesDiamondAndScores) {
  auto result = executor_.Run(MakeDiamond(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->compatibility_failure);
  ASSERT_EQ(result->components.size(), 5u);
  ASSERT_TRUE(result->has_score());
  EXPECT_GT(result->score, 0.5);
  EXPECT_EQ(executor_.executions(), 5u);
}

TEST_F(DagExecutorTest, RunHandlesWorkloadChains) {
  auto w = sim::MakeWorkload("readmission", 0.05);
  ASSERT_TRUE(w.ok());
  auto chain_result = executor_.Run(w->initial, {});
  ASSERT_TRUE(chain_result.ok());
  EXPECT_TRUE(chain_result->has_score());
}

TEST_F(DagExecutorTest, ChainComponentReceivesItsSingleInput) {
  // A chain component gets ExecInput::inputs of size 1 (library_registry.h),
  // so a join-style library works after a single predecessor too — the same
  // contract a DAG join relies on.
  Pipeline p("chain_join");
  auto ds = Spec("dataset", ComponentKind::kDataset, 0, 1, "gen_readmission");
  ds.params.Set("rows", Json::Int(200));
  MLCASK_CHECK_OK(p.AddComponent(ds));
  MLCASK_CHECK_OK(p.AddComponent(Spec("join", ComponentKind::kPreprocessor, 1,
                                      2, "concat_features")));
  MLCASK_CHECK_OK(p.AddComponent(
      Spec("model", ComponentKind::kModel, 2, 3, "train_logreg", 10.0)));
  MLCASK_CHECK_OK(p.Connect("dataset", "join"));
  MLCASK_CHECK_OK(p.Connect("join", "model"));
  ASSERT_TRUE(p.IsChain());

  auto result = executor_.Run(p, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->compatibility_failure);
  EXPECT_TRUE(result->has_score());
  EXPECT_EQ(executor_.executions(), 3u);
}

TEST_F(DagExecutorTest, WidthOneRunStaysOnTheCallingThread) {
  // Merge candidates, prioritized trials and commits run at width 1: every
  // component executes inline on the caller, even when the run is handed a
  // shared multi-thread pool, and no pool thread is involved.
  std::mutex mu;
  std::set<std::thread::id> threads;
  MLCASK_CHECK_OK(registry_.Register(
      "record_thread", [&](const ExecInput& in) -> StatusOr<ExecOutput> {
        {
          std::lock_guard<std::mutex> lock(mu);
          threads.insert(std::this_thread::get_id());
        }
        ExecOutput out;
        if (in.input != nullptr) out.table = *in.input;
        return out;
      }));
  Pipeline p("inline_chain");
  for (int i = 0; i < 4; ++i) {
    MLCASK_CHECK_OK(p.AddComponent(
        Spec("c" + std::to_string(i),
             i == 0 ? ComponentKind::kDataset : ComponentKind::kPreprocessor,
             i == 0 ? 0 : 1, 1, "record_thread")));
    if (i > 0) {
      MLCASK_CHECK_OK(
          p.Connect("c" + std::to_string(i - 1), "c" + std::to_string(i)));
    }
  }
  ExecutionCore shared(3);
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.core = &shared;
  auto result = executor_.Run(p, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(shared.stats().tasks_stolen, 0u);
  EXPECT_EQ(shared.stats().tasks_run, 1u);
}

TEST_F(DagExecutorTest, DagCacheReusesWholePipeline) {
  ASSERT_TRUE(executor_.Run(MakeDiamond(), {}).ok());
  auto second = executor_.Run(MakeDiamond(), {});
  ASSERT_TRUE(second.ok());
  for (const auto& c : second->components) {
    EXPECT_TRUE(c.reused) << c.name;
  }
  EXPECT_EQ(executor_.executions(), 5u);
  EXPECT_DOUBLE_EQ(second->time.Total(), 0.0);
}

TEST_F(DagExecutorTest, BranchChangeOnlyRerunsAffectedSubgraph) {
  ASSERT_TRUE(executor_.Run(MakeDiamond(), {}).ok());
  // Update only path_b; path_a and the dataset must stay cached, while the
  // join and model (downstream of the change) re-run.
  Pipeline p = MakeDiamond();
  auto specs = p.components();
  Pipeline updated("diamond");
  for (auto spec : specs) {
    if (spec.name == "path_b") {
      spec.version = spec.version.BumpIncrement();
      spec.params.Set("variant", Json::Int(1));
    }
    MLCASK_CHECK_OK(updated.AddComponent(spec));
  }
  MLCASK_CHECK_OK(updated.Connect("dataset", "path_a"));
  MLCASK_CHECK_OK(updated.Connect("dataset", "path_b"));
  MLCASK_CHECK_OK(updated.Connect("path_a", "join"));
  MLCASK_CHECK_OK(updated.Connect("path_b", "join"));
  MLCASK_CHECK_OK(updated.Connect("join", "model"));

  auto result = executor_.Run(updated, {});
  ASSERT_TRUE(result.ok());
  for (const auto& c : result->components) {
    if (c.name == "dataset" || c.name == "path_a") {
      EXPECT_TRUE(c.reused) << c.name;
    } else {
      EXPECT_TRUE(c.executed) << c.name;
    }
  }
  EXPECT_EQ(executor_.executions(), 5u + 3u);
}

TEST_F(DagExecutorTest, JoinConcatenatesFeatureColumns) {
  Pipeline p = MakeDiamond();
  ExecutorOptions opts;
  opts.store_outputs = true;
  auto result = executor_.Run(p, opts);
  ASSERT_TRUE(result.ok());
  // Fetch the join output and verify it has columns from both branches.
  const version::ComponentRecord* join_rec = result->snapshot.Find("join");
  ASSERT_NE(join_rec, nullptr);
  ASSERT_TRUE(join_rec->has_output());
  auto bytes = engine_.GetVersion(join_rec->output_id);
  ASSERT_TRUE(bytes.ok());
  auto table = data::Table::Deserialize(*bytes);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->HasColumn("f0"));    // from extract (path_a)
  EXPECT_TRUE(table->HasColumn("age"));   // from cleanse (path_b)
  EXPECT_TRUE(table->HasColumn("label"));
}

TEST_F(DagExecutorTest, RuntimeIncompatibilityDetectedAtJoin) {
  Pipeline p("broken");
  auto ds = Spec("dataset", ComponentKind::kDataset, 0, 1, "gen_readmission");
  ds.params.Set("rows", Json::Int(100));
  MLCASK_CHECK_OK(p.AddComponent(ds));
  auto a = Spec("path_a", ComponentKind::kPreprocessor, 1, 2,
                "cleanse_impute");
  MLCASK_CHECK_OK(p.AddComponent(a));
  // join declares input schema 9, matching neither branch.
  auto join = Spec("join", ComponentKind::kPreprocessor, 9, 3,
                   "concat_features");
  MLCASK_CHECK_OK(p.AddComponent(join));
  MLCASK_CHECK_OK(p.Connect("dataset", "path_a"));
  MLCASK_CHECK_OK(p.Connect("path_a", "join"));

  ExecutorOptions opts;
  opts.precheck_compatibility = false;
  auto result = executor_.Run(p, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->compatibility_failure);
  EXPECT_EQ(result->failed_component, "join");

  // With the precheck the run is refused before any execution.
  executor_.ClearCache();
  uint64_t execs_before = executor_.executions();
  auto prechecked = executor_.Run(p, {});
  ASSERT_TRUE(prechecked.ok());
  EXPECT_TRUE(prechecked->compatibility_failure);
  EXPECT_EQ(executor_.executions(), execs_before);
}

TEST_F(DagExecutorTest, RunNeverConstructsPerCallPools) {
  // The pool-lifetime regression the shared-core refactor exists for:
  // repeated runs must not construct ExecutionCores per call. The
  // fallback path builds exactly one lazy pool per executor; the shared
  // path builds none at all.
  Pipeline p = MakeDiamond();
  const uint64_t before = ExecutionCore::instances_created();
  for (int i = 0; i < 5; ++i) {
    ExecutorOptions opts;
    opts.num_workers = 2;
    auto result = executor_.Run(p, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->compatibility_failure);
  }
  EXPECT_EQ(ExecutionCore::instances_created() - before, 1u)
      << "fallback pool must be built lazily, once";

  ExecutionCore shared(2);
  const uint64_t with_shared = ExecutionCore::instances_created();
  for (int i = 0; i < 5; ++i) {
    ExecutorOptions opts;
    opts.num_workers = 2;
    opts.core = &shared;
    auto result = executor_.Run(p, opts);
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ(ExecutionCore::instances_created() - with_shared, 0u)
      << "a shared pool must be reused, not copied per call";
  EXPECT_EQ(shared.stats().batches_run, 5u);
}

TEST_F(DagExecutorTest, ReuseWaitsForTheProducersFullFinish) {
  // The one wait rule for shared artifacts: a run that reuses an output
  // another run published advances its clock to that output's ready_at_s,
  // the producer's full finish. Run A starts at t=100 on its own clock;
  // run B starts at t=0, reuses A's dataset -> extract prefix, and must
  // finish no earlier than that prefix's ready time plus B's own model
  // seconds.
  auto chain = [](int model_variant) {
    Pipeline p("chain");
    auto ds = Spec("dataset", ComponentKind::kDataset, 0, 1,
                   "gen_readmission");
    ds.params.Set("rows", Json::Int(300));
    MLCASK_CHECK_OK(p.AddComponent(ds));
    MLCASK_CHECK_OK(p.AddComponent(Spec("extract",
                                        ComponentKind::kPreprocessor, 1, 2,
                                        "extract_ehr_features", 5.0)));
    auto model =
        Spec("model", ComponentKind::kModel, 2, 3, "train_logreg", 10.0);
    model.params.Set("variant", Json::Int(model_variant));
    MLCASK_CHECK_OK(p.AddComponent(model));
    MLCASK_CHECK_OK(p.Connect("dataset", "extract"));
    MLCASK_CHECK_OK(p.Connect("extract", "model"));
    return p;
  };

  SimClock clock_a;
  clock_a.AdvanceTo(100.0);
  ExecutorOptions run_a;
  run_a.clock = &clock_a;
  Pipeline producer = chain(0);
  ASSERT_TRUE(executor_.Run(producer, run_a).ok());
  std::vector<const ComponentVersionSpec*> prefix;
  for (const ComponentVersionSpec& spec : producer.components()) {
    if (spec.name != "model") prefix.push_back(&spec);
  }
  ArtifactCache::EntryPtr shared = executor_.FindCachedEntry(prefix);
  ASSERT_NE(shared, nullptr);
  EXPECT_GT(shared->ready_at_s, 100.0);

  SimClock clock_b;
  ExecutorOptions run_b;
  run_b.clock = &clock_b;
  auto consumer = executor_.Run(chain(1), run_b);
  ASSERT_TRUE(consumer.ok()) << consumer.status().ToString();
  ASSERT_EQ(consumer->components.size(), 3u);
  EXPECT_TRUE(consumer->components[1].reused);
  const ComponentRunInfo& model = consumer->components[2];
  ASSERT_TRUE(model.executed);
  EXPECT_GT(model.exec_s, 0.0);
  EXPECT_GE(clock_b.Now(), shared->ready_at_s + model.exec_s);
}

TEST_F(DagExecutorTest, ConcatRequiresLabel) {
  // A join whose inputs carry no label is a hard library error.
  data::Table no_label;
  MLCASK_CHECK_OK(no_label.AddDoubleColumn("x", {1.0, 2.0}));
  ExecInput in;
  in.inputs = {&no_label};
  in.input = &no_label;
  Json params = Json::Object();
  in.params = &params;
  auto fn = registry_.Get("concat_features");
  ASSERT_TRUE(fn.ok());
  EXPECT_TRUE((**fn)(in).status().IsInvalidArgument());
}

}  // namespace
}  // namespace mlcask::pipeline
