// Tests for the artifact cache's byte-bounded LRU eviction: leased slots
// and pinned entries are untouchable, eviction order is LRU with Find
// refreshing recency, and a byte cap on a full merge trades recomputation
// for residency without ever changing the merge result.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <list>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "merge/merge_op.h"
#include "pipeline/artifact_cache.h"
#include "sim/libraries.h"
#include "sim/scenario.h"
#include "storage/forkbase_engine.h"

namespace mlcask::pipeline {
namespace {

/// Key pinned to one shard (shard index = bytes[0] % 16) so LRU order is
/// strict within the test's working set.
Hash256 ShardKey(uint8_t shard, uint8_t id) {
  Hash256 key;
  key.bytes[0] = shard;
  key.bytes[1] = id;
  return key;
}

/// An entry whose payload is `rows` doubles — sized so a handful of entries
/// exceed a small cap.
ArtifactEntry MakeEntry(double score, size_t rows = 64) {
  ArtifactEntry entry;
  std::vector<double> values(rows, score);
  MLCASK_CHECK_OK(entry.table.AddDoubleColumn("v", std::move(values)));
  entry.score = score;
  return entry;
}

uint64_t OneEntryBytes() {
  static const uint64_t bytes = ArtifactCache::EntryBytes(MakeEntry(0));
  return bytes;
}

TEST(CacheEvictionTest, UnboundedCacheNeverEvicts) {
  ArtifactCache cache;  // default options: no cap
  for (uint8_t i = 0; i < 32; ++i) {
    cache.Insert(ShardKey(i % 16, i), MakeEntry(i));
  }
  EXPECT_EQ(cache.size(), 32u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheEvictionTest, EvictsLeastRecentlyUsedWhenOverCap) {
  ArtifactCache::Options options;
  options.max_bytes = 3 * OneEntryBytes() + OneEntryBytes() / 2;
  ArtifactCache cache(options);
  for (uint8_t i = 0; i < 6; ++i) {
    cache.Insert(ShardKey(3, i), MakeEntry(i));
    EXPECT_LE(cache.stats().bytes, options.max_bytes) << "after insert " << +i;
  }
  // Only the three most recent survive.
  EXPECT_EQ(cache.Find(ShardKey(3, 0)), nullptr);
  EXPECT_EQ(cache.Find(ShardKey(3, 1)), nullptr);
  EXPECT_EQ(cache.Find(ShardKey(3, 2)), nullptr);
  EXPECT_NE(cache.Find(ShardKey(3, 3)), nullptr);
  EXPECT_NE(cache.Find(ShardKey(3, 4)), nullptr);
  EXPECT_NE(cache.Find(ShardKey(3, 5)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_LE(cache.stats().peak_bytes, options.max_bytes);
}

TEST(CacheEvictionTest, FindRefreshesRecency) {
  ArtifactCache::Options options;
  options.max_bytes = 2 * OneEntryBytes() + OneEntryBytes() / 2;
  ArtifactCache cache(options);
  cache.Insert(ShardKey(5, 0), MakeEntry(0));
  cache.Insert(ShardKey(5, 1), MakeEntry(1));
  // Touch 0 so 1 becomes the LRU victim of the next insert.
  EXPECT_NE(cache.Find(ShardKey(5, 0)), nullptr);
  cache.Insert(ShardKey(5, 2), MakeEntry(2));
  EXPECT_NE(cache.Find(ShardKey(5, 0)), nullptr);
  EXPECT_EQ(cache.Find(ShardKey(5, 1)), nullptr);
  EXPECT_NE(cache.Find(ShardKey(5, 2)), nullptr);
}

TEST(CacheEvictionTest, PinnedEntriesAreNeverEvicted) {
  ArtifactCache::Options options;
  options.max_bytes = 2 * OneEntryBytes();
  ArtifactCache cache(options);
  // Hold an EntryPtr to the oldest entry: the LRU policy must skip it even
  // though it is the nominal victim, and the held pointer stays valid.
  ArtifactCache::EntryPtr pinned = cache.Insert(ShardKey(7, 0), MakeEntry(42));
  for (uint8_t i = 1; i < 8; ++i) {
    cache.Insert(ShardKey(7, i), MakeEntry(i));
  }
  ArtifactCache::EntryPtr found = cache.Find(ShardKey(7, 0));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found.get(), pinned.get());
  EXPECT_DOUBLE_EQ(pinned->score, 42.0);
  // Once unpinned it becomes evictable again.
  found.reset();
  pinned.reset();
  for (uint8_t i = 8; i < 12; ++i) {
    cache.Insert(ShardKey(7, i), MakeEntry(i));
  }
  EXPECT_EQ(cache.Find(ShardKey(7, 0)), nullptr);
}

TEST(CacheEvictionTest, LeasedSlotsSurviveEvictionSweeps) {
  ArtifactCache::Options options;
  options.max_bytes = 2 * OneEntryBytes();
  ArtifactCache cache(options);
  ArtifactCache::Acquired acquired = cache.Acquire(ShardKey(9, 0));
  ASSERT_NE(acquired.lease, nullptr);
  // Sweeps triggered by these inserts must not disturb the pending slot.
  for (uint8_t i = 1; i < 10; ++i) {
    cache.Insert(ShardKey(9, i), MakeEntry(i));
  }
  // The lease still publishes, and a waiter sees the published entry.
  ArtifactCache::EntryPtr published =
      cache.Fulfill(acquired.lease.get(), MakeEntry(0.25));
  ArtifactCache::EntryPtr found = cache.Find(ShardKey(9, 0));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found.get(), published.get());
}

TEST(CacheEvictionTest, OversizedEntryIsStillAdmitted) {
  ArtifactCache::Options options;
  options.max_bytes = OneEntryBytes() / 2;  // smaller than any entry
  ArtifactCache cache(options);
  cache.Insert(ShardKey(11, 0), MakeEntry(1.0));
  // Correctness first: the publish succeeds (high-water-mark semantics)
  // even though the cap can never be met.
  EXPECT_NE(cache.Find(ShardKey(11, 0)), nullptr);
  EXPECT_GT(cache.stats().bytes, options.max_bytes);
}

TEST(CacheEvictionTest, ClearResetsByteAccounting) {
  ArtifactCache::Options options;
  options.max_bytes = 64 * OneEntryBytes();
  ArtifactCache cache(options);
  for (uint8_t i = 0; i < 8; ++i) {
    cache.Insert(ShardKey(i, i), MakeEntry(i));
  }
  EXPECT_GT(cache.stats().bytes, 0u);
  cache.Clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

/// GATING regression for the global recency epoch. The byte cap used to be
/// enforced by a per-shard LRU swept round-robin from shard 0, which this
/// recorded trace measured at ~5.3x the recomputations of an ideal global
/// LRU on an adversarial layout (hot keys concentrated on the low shards
/// the sweep drained first, cold keys on high shards). Eviction now picks
/// the globally-oldest unpinned entry via the cross-shard recency heap, so
/// the same trace must stay within 1.5x of the oracle — a regression back
/// to any shard-local eviction order fails here. The trace replays through
/// (a) the real capped cache, counting recomputations (granted leases), and
/// (b) an ideal global-LRU oracle of the same capacity, counting misses.
TEST(CacheEvictionTest, GlobalEpochEvictionTracksGlobalLruOracle) {
  constexpr size_t kHot = 16;    // 4 keys on each of shards 0..3
  constexpr size_t kCold = 16;   // 2 keys on each of shards 8..15
  constexpr size_t kCapacityEntries = 24;
  constexpr int kRounds = 30;

  std::vector<Hash256> hot, cold;
  for (size_t i = 0; i < kHot; ++i) {
    hot.push_back(ShardKey(static_cast<uint8_t>(i % 4),
                           static_cast<uint8_t>(i)));
  }
  for (size_t j = 0; j < kCold; ++j) {
    cold.push_back(ShardKey(static_cast<uint8_t>(8 + j % 8),
                            static_cast<uint8_t>(64 + j)));
  }
  // The trace: every round touches the whole hot set, then one cold key.
  // A capacity of 24 fits the 16 hot keys plus churn; a global LRU keeps
  // the hot set resident for the entire trace.
  std::vector<Hash256> trace;
  for (int r = 0; r < kRounds; ++r) {
    for (const Hash256& key : hot) trace.push_back(key);
    trace.push_back(cold[static_cast<size_t>(r) % kCold]);
  }

  // (a) The real cache.
  ArtifactCache::Options options;
  options.max_bytes =
      kCapacityEntries * OneEntryBytes() + OneEntryBytes() / 2;
  ArtifactCache cache(options);
  uint64_t recomputations = 0;
  for (const Hash256& key : trace) {
    ArtifactCache::Acquired acquired = cache.Acquire(key);
    if (acquired.lease != nullptr) {
      ++recomputations;
      cache.Fulfill(acquired.lease.get(), MakeEntry(1.0));
    }
  }

  // (b) The ideal global-LRU oracle at the same entry capacity.
  uint64_t oracle_misses = 0;
  std::list<Hash256> lru;  // least recent first
  std::unordered_map<Hash256, std::list<Hash256>::iterator, Hash256Hasher>
      resident;
  for (const Hash256& key : trace) {
    auto it = resident.find(key);
    if (it != resident.end()) {
      lru.erase(it->second);
    } else {
      ++oracle_misses;
      if (resident.size() == kCapacityEntries) {
        resident.erase(lru.front());
        lru.pop_front();
      }
    }
    lru.push_back(key);
    resident[key] = std::prev(lru.end());
  }

  const double ratio = static_cast<double>(recomputations) /
                       static_cast<double>(oracle_misses);
  std::printf("[trace] sharded-LRU recomputations=%llu, global-LRU oracle "
              "misses=%llu, ratio=%.2fx over %zu accesses\n",
              static_cast<unsigned long long>(recomputations),
              static_cast<unsigned long long>(oracle_misses), ratio,
              trace.size());
  ::testing::Test::RecordProperty("sharded_recomputations",
                                  static_cast<int>(recomputations));
  ::testing::Test::RecordProperty("global_lru_oracle_misses",
                                  static_cast<int>(oracle_misses));

  // Every key misses at least once, under either policy, and the real
  // cache can at best match the ideal oracle.
  EXPECT_GE(oracle_misses, kHot + kCold);
  EXPECT_GE(recomputations, oracle_misses);
  // The gate: global-epoch eviction must track the global-LRU oracle on
  // the layout that defeated the per-shard sweep (~5.3x). The measured
  // ratio is 1.0x; 1.5x leaves headroom for policy tweaks (batching,
  // approximate heaps) without readmitting shard-local eviction order.
  EXPECT_LE(static_cast<double>(recomputations),
            1.5 * static_cast<double>(oracle_misses));
}

TEST(CacheEvictionTest, ConcurrentChurnRecomputesNotCorrupts) {
  // Threads churn a keyspace several times larger than the cap through the
  // Acquire/Fulfill protocol. Entries are evicted and recomputed
  // constantly; every observed entry must carry its key's canonical value
  // and every held EntryPtr must stay readable.
  ArtifactCache::Options options;
  options.max_bytes = 6 * OneEntryBytes();
  ArtifactCache cache(options);
  constexpr int kKeys = 24;
  constexpr int kIters = 300;
  std::atomic<bool> corrupt{false};
  std::atomic<uint64_t> computes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int id = (i * 7 + t * 3) % kKeys;
        const double canonical = id * 0.5;
        ArtifactCache::Acquired acquired =
            cache.Acquire(ShardKey(static_cast<uint8_t>(id % 16),
                                   static_cast<uint8_t>(id)));
        if (acquired.lease != nullptr) {
          computes.fetch_add(1);
          cache.Fulfill(acquired.lease.get(), MakeEntry(canonical));
        } else if (acquired.entry->score != canonical) {
          corrupt = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(corrupt.load());
  // Churn forces recomputation: more computes than distinct keys.
  EXPECT_GT(computes.load(), static_cast<uint64_t>(kKeys));
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(CacheEvictionTest, LinearRunPinsAtMostItsInputAndOutput) {
  // A run pins only the tables it still reads: each is released once its
  // last executing reader finishes. Under a cap smaller than any entry,
  // every publish evicts everything unpinned, so the high-water mark is the
  // pinned working set itself — for a chain, the current input plus the
  // output being published, never the whole run.
  LibraryRegistry registry;
  MLCASK_CHECK_OK(sim::RegisterWorkloadLibraries(&registry));
  auto w = sim::MakeWorkload("readmission", 0.05);
  MLCASK_CHECK_OK(w.status());
  ASSERT_TRUE(w->initial.IsChain());
  storage::ForkBaseEngine engine;
  SimClock clock;
  ArtifactCache::Options cap;
  cap.max_bytes = 1;
  Executor executor(&registry, &engine, &clock, cap);
  ExecutorOptions options;
  options.store_outputs = false;
  auto run = executor.Run(w->initial, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GE(run->components.size(), 3u);
  EXPECT_EQ(executor.executions(), run->components.size());
  const ArtifactCache::Stats stats = executor.cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.peak_bytes, 2 * stats.largest_entry_bytes);
}

}  // namespace
}  // namespace mlcask::pipeline

namespace mlcask::merge {
namespace {

struct MergeResultSummary {
  uint64_t executions = 0;
  double best_score = 0;
  int best_index = -1;
  uint64_t peak_bytes = 0;
  uint64_t evictions = 0;
  uint64_t largest_entry_bytes = 0;
  size_t components = 0;
  size_t materialized_outputs = 0;  ///< Merge-commit components with output.
};

MergeResultSummary RunScenarioMerge(size_t workers, uint64_t cache_max_bytes) {
  // Real pool threads = workers, so the parallel cases genuinely race the
  // cache's publish/evict paths instead of running inline.
  auto deployment = sim::MakeDeployment("readmission", 0.1,
                                        /*folder_storage=*/false, workers);
  MLCASK_CHECK_OK(deployment.status());
  auto d = *std::move(deployment);
  MLCASK_CHECK_OK(sim::BuildTwoBranchScenario(d.get()).status());
  MergeOperation op(d->repo.get(), d->libraries.get(), d->registry.get(),
                    d->engine.get(), d->clock.get());
  MergeOptions options;
  options.num_workers = workers;
  options.core = d->core.get();
  options.cache_max_bytes = cache_max_bytes;
  auto report = op.Merge("master", "dev", options);
  MLCASK_CHECK_OK(report.status());
  MergeResultSummary summary;
  summary.executions = report->component_executions;
  summary.best_score = report->best_score;
  summary.best_index = report->best_index;
  summary.peak_bytes = report->cache_stats.peak_bytes;
  summary.evictions = report->cache_stats.evictions;
  summary.largest_entry_bytes = report->cache_stats.largest_entry_bytes;
  auto head = d->repo->Head("master");
  MLCASK_CHECK_OK(head.status());
  for (const version::ComponentRecord& rec : (*head)->snapshot.components) {
    summary.components += 1;
    if (!rec.output_id.IsZero()) summary.materialized_outputs += 1;
  }
  return summary;
}

TEST(MergeCacheCapTest, GenerousCapKeepsExecutionsIdentical) {
  MergeResultSummary uncapped = RunScenarioMerge(1, 0);
  // A cap above the working set must be invisible: same executions, same
  // winner, nothing evicted — serial and parallel alike.
  const uint64_t generous = uncapped.peak_bytes * 2;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    MergeResultSummary capped = RunScenarioMerge(workers, generous);
    EXPECT_EQ(capped.executions, uncapped.executions) << "workers=" << workers;
    EXPECT_EQ(capped.best_score, uncapped.best_score) << "workers=" << workers;
    EXPECT_EQ(capped.best_index, uncapped.best_index) << "workers=" << workers;
    EXPECT_EQ(capped.evictions, 0u) << "workers=" << workers;
  }
}

TEST(MergeCacheCapTest, TightCapRecomputesSameWinner) {
  MergeResultSummary uncapped = RunScenarioMerge(1, 0);
  const uint64_t tight = uncapped.peak_bytes / 2;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    MergeResultSummary capped = RunScenarioMerge(workers, tight);
    // Bounded residency: the transiently pinned working set (never
    // evictable — a running candidate's current input plus the output it
    // publishes, serial included) may sit on top of the cap.
    const uint64_t pin_slack = 2 * workers * capped.largest_entry_bytes;
    EXPECT_LE(capped.peak_bytes, tight + pin_slack) << "workers=" << workers;
    EXPECT_GT(capped.evictions, 0u) << "workers=" << workers;
    // ...paid for with recomputation, never with a different result.
    EXPECT_GE(capped.executions, uncapped.executions) << "workers=" << workers;
    EXPECT_EQ(capped.best_score, uncapped.best_score) << "workers=" << workers;
    EXPECT_EQ(capped.best_index, uncapped.best_index) << "workers=" << workers;
    // The merge commit must persist COMPLETE: evicted winner prefixes are
    // recomputed for materialization, not silently dropped.
    EXPECT_GT(capped.components, 0u);
    EXPECT_EQ(capped.materialized_outputs, capped.components)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace mlcask::merge
