// The benchmark's own tests: the percentile helper's sample-count rules,
// self-time computation, and that the traced (decorated) deployment is
// bit-identical in behaviour to the plain one.
//
//   cmake --build .bench_build --target perfbench_tests
//   (cd .bench_build && ./perfbench_tests)

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <numeric>
#include <set>

#include "cluster.h"
#include "decorators.h"
#include "deploy.h"
#include "merge/merge_op.h"
#include "service/merge_service.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(PercentileTest, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(99), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
}

TEST(PercentileTest, RefusesUnsupportedPercentiles) {
  EXPECT_FALSE(Percentile(Ramp(99), 0.9).ok());
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).ok());
  EXPECT_FALSE(Percentile(Ramp(19), 0.5).ok());
  EXPECT_FALSE(Percentile(Ramp(100), 1.0).ok());

  auto p90 = Percentile(Ramp(100), 0.9);
  ASSERT_TRUE(p90.ok());
  EXPECT_EQ(*p90, 90);  // nearest rank: exactly 10 samples lie above
  auto p99 = Percentile(Ramp(1000), 0.99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(*p99, 990);
  auto p50 = Percentile(Ramp(20), 0.5);
  ASSERT_TRUE(p50.ok());
  EXPECT_EQ(*p50, 10);
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  const int64_t ms = 1'000'000;
  std::vector<Span> spans = {
      {"root", 0, 100 * ms, 1, 0, 1},
      {"a", 10 * ms, 40 * ms, 2, 1, 1},
      {"b", 30 * ms, 50 * ms, 3, 1, 1},   // overlaps a: union 10..50
      {"c", 90 * ms, 120 * ms, 4, 1, 1},  // clipped to the parent: 90..100
      {"a.child", 15 * ms, 20 * ms, 5, 2, 1},
  };
  const std::map<uint64_t, double> self = SelfTimeMs(spans);
  EXPECT_DOUBLE_EQ(self.at(1), 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(self.at(2), 30 - 5);
  EXPECT_DOUBLE_EQ(self.at(3), 20);
  EXPECT_DOUBLE_EQ(self.at(5), 5);
}

TEST(TraceTest, OperationScopeParentsSpansFromOtherThreads) {
  Tracer tracer;
  Tracer::SetActive(&tracer);
  {
    Tracer::OperationScope op("op.root");
    std::thread worker([] { Tracer::Scoped span("worker.span"); });
    worker.join();
    Tracer::Scoped local("local.span");
  }
  Tracer::SetActive(nullptr);
  { Tracer::Scoped ignored("not.recorded"); }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  uint64_t root = 0, op = 0;
  for (const Span& s : spans) {
    if (std::string(s.name) == "op.root") {
      root = s.id;
      op = s.op;
    }
  }
  ASSERT_NE(root, 0u);
  for (const Span& s : spans) {
    EXPECT_EQ(s.op, op) << s.name;
    if (s.id != root) {
      EXPECT_EQ(s.parent, root) << s.name;
    }
  }
}

struct MergeOutcome {
  mlcask::Hash256 fingerprint;
  mlcask::Hash256 dev_head;
  mlcask::Hash256 merge_head;
  uint64_t logical_bytes = 0;
  uint64_t physical_bytes = 0;
  uint64_t rpc_calls = 0;  ///< TransportStats::calls over every shard.
};

MergeOutcome MergeOnce(bool decorated) {
  ServerGroup servers;
  EXPECT_TRUE(servers.Start({4}).ok());
  auto bd = AssembleDeployment(servers.endpoints(), "readmission", 0.12,
                               decorated);
  EXPECT_TRUE(bd.ok()) << bd.status().ToString();
  mlcask::sim::Deployment* d = bd->d.get();
  auto scenario = mlcask::sim::BuildDistributedMergeScenario(d, 2, 4);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  MergeOutcome out;
  out.dev_head = (*d->repo->Head("dev"))->id;
  mlcask::merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                                   d->registry.get(), d->engine.get(),
                                   d->clock.get());
  mlcask::merge::MergeOptions options;
  options.shards = 4;
  options.seed = 7;
  auto report = op.Merge("master", "dev", options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  auto winner =
      mlcask::service::WinnerFromReport(*report, d->repo.get(), "master");
  EXPECT_TRUE(winner.ok());
  out.fingerprint = winner->Fingerprint();
  out.merge_head = (*d->repo->Head("master"))->id;
  const mlcask::storage::EngineStats stats = d->engine->stats();
  out.logical_bytes = stats.logical_bytes;
  out.physical_bytes = stats.physical_bytes;
  for (const TracedTransport* t : bd->transports) out.rpc_calls += t->stats().calls;
  bd->d.reset();
  EXPECT_TRUE(servers.Stop().ok());
  return out;
}

class DecoratedDeploymentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::mkdir("perfbench-test-run", 0755);
    ASSERT_EQ(::chdir("perfbench-test-run"), 0);
  }
  void TearDown() override {
    ASSERT_EQ(::chdir(".."), 0);
    ::rmdir("perfbench-test-run");
  }
};

TEST_F(DecoratedDeploymentTest, DecoratorsDoNotChangeResults) {
  const MergeOutcome plain = MergeOnce(false);
  Tracer tracer;
  Tracer::SetActive(&tracer);
  const MergeOutcome traced = MergeOnce(true);
  Tracer::SetActive(nullptr);

  EXPECT_EQ(plain.fingerprint, traced.fingerprint);
  EXPECT_EQ(plain.dev_head, traced.dev_head);
  EXPECT_EQ(plain.merge_head, traced.merge_head);
  EXPECT_EQ(plain.logical_bytes, traced.logical_bytes);
  EXPECT_EQ(plain.physical_bytes, traced.physical_bytes);

  // Every decorated layer recorded spans.
  std::set<std::string> names;
  for (const Span& s : tracer.spans()) names.insert(s.name);
  for (const char* layer : {"ml.fn", "storage.put", "storage.put_many",
                            "storage.get_version", "storage.rpc.call"}) {
    EXPECT_EQ(names.count(layer), 1u) << layer;
  }
  // Every round trip is timed, the async ones (2PC, probes) included.
  EXPECT_EQ(DurationsMs(tracer.spans(), "storage.rpc.call").size(),
            traced.rpc_calls);
}

}  // namespace
}  // namespace perfbench
