#ifndef MLCASK_MERGE_MERGE_OP_H_
#define MLCASK_MERGE_MERGE_OP_H_

#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "merge/search_space.h"
#include "merge/search_tree.h"
#include "pipeline/execution_core.h"
#include "pipeline/executor.h"
#include "pipeline/library_repo.h"
#include "storage/storage_engine.h"
#include "version/pipeline_repo.h"

namespace mlcask::merge {

/// Ablation knobs matching the paper's evaluation arms (Sec. VII-B):
///  - MLCask:            prune_compatibility=true,  reuse_outputs=true
///  - MLCask w/o PR:     prune_compatibility=true,  reuse_outputs=false
///  - MLCask w/o PCPR:   prune_compatibility=false, reuse_outputs=false
struct MergeOptions {
  bool prune_compatibility = true;  ///< PC: prune via the compatibility LUT.
  bool reuse_outputs = true;        ///< PR: reuse checkpoints + tree outputs.
  /// Whether trial runs archive every component output to storage. MLCask
  /// keeps trial outputs local and materializes only the winner; the
  /// ablation arms archive like the folder-based baselines do.
  bool store_trial_outputs = false;
  /// Which metric to maximize. Empty selects each pipeline's primary score;
  /// otherwise the named entry of the model's metric set is used (Sec. V:
  /// different metrics can yield different optimal merge results).
  std::string optimize_metric;
  uint64_t seed = 1;
  std::string author = "mlcask";
  /// Workers draining the candidate list concurrently; 1 reproduces
  /// Algorithm 2's serial depth-first walk exactly. `component_executions`
  /// and the selected winner are identical across worker counts — racing
  /// shared prefixes dedup through the artifact cache's in-flight leases.
  size_t num_workers = 1;
  /// Shared long-lived ExecutionCore (non-owning; must outlive the call).
  /// When null, the MergeOperation lazily builds one pool and reuses it
  /// across its Merge calls — never one per call (see the pool-ownership
  /// rules in execution_core.h). Single-node drains only: with shards >= 2
  /// each shard drains through its own lazily-built core (sized
  /// `num_workers` real threads, inline when 1) and this pool is not
  /// consulted.
  pipeline::ExecutionCore* core = nullptr;
  /// Distributed-merge partitioning (paper Sec. VII-F made real): with
  /// shards >= 2, Algorithm 2's candidates are placed on shards by cost.
  /// Candidates that share their first unmarked (uncheckpointed) tree node
  /// form one work unit and stay together; a unit weighs the virtual
  /// seconds its unmarked nodes cost (cost_per_krow_s x rows), and units
  /// go longest-first onto the least-loaded shard. Each shard drains its
  /// candidates through its own trial executor, seeded with every
  /// checkpoint, and its own ExecutionCore on an independent virtual
  /// timeline (num_workers applies per shard). No node executes on two
  /// shards and winners reduce in global DFS order, so the selected
  /// winner, the summed component_executions and the persisted artifact
  /// hashes are identical to the single-node path; makespan_s becomes the
  /// slowest shard's drain. 0/1 = single-node (the historical path,
  /// bit-for-bit).
  size_t shards = 1;
  /// Byte cap for the trial executor's artifact cache (0 = unbounded): long
  /// merge searches trade recomputation for bounded memory. Leased slots
  /// and entries held by running candidates are never evicted.
  uint64_t cache_max_bytes = 0;
  /// REAL-time parallelism for sharded drains. With shards >= 2 and this
  /// set (the default), the per-shard candidate drains are dispatched onto
  /// concurrently running per-shard ExecutionCores — real OS threads, so
  /// merge wall-clock scales with cores — while every shard keeps its
  /// independent VIRTUAL timeline starting at the merge's clock origin.
  /// Shard state is disjoint (each shard owns its executor, cache, and
  /// candidate indices), so the winner, component_executions, makespan_s,
  /// and persisted artifact hashes are bit-identical to the sequential
  /// real-time dispatch (tests/test_sharded_engine.cc asserts this at
  /// 1/2/4/8 shards); `MergeReport::drain_wall_ms` shows the real-time
  /// difference. False preserves the historical sequential dispatch (A/B
  /// baseline — the real-time bench measures both). On an error, the
  /// concurrent dispatch still drains every shard and reports the failure
  /// of the lowest-numbered failing shard, where the sequential dispatch
  /// stops at the first failing shard.
  bool concurrent_shard_drains = true;
};

/// One executed (or skipped) pre-merge pipeline candidate.
struct CandidateOutcome {
  CandidateChain chain;
  double score = std::nan("");
  std::map<std::string, double> metrics;  ///< Full metric set, if evaluated.
  TimeBreakdown time;
  bool incompatible = false;  ///< Failed (or would fail) at runtime.
  double end_time_s = 0;      ///< Sim-clock offset when this candidate finished.
};

/// Full accounting of a metric-driven merge.
struct MergeReport {
  bool fast_forward = false;
  Hash256 common_ancestor;
  size_t tree_nodes_before_pruning = 0;
  size_t pruned_by_compatibility = 0;
  size_t checkpoints_marked = 0;
  size_t candidates_total = 0;      ///< Upper bound before PC pruning.
  size_t candidates_considered = 0; ///< Actually walked by Algorithm 2.
  uint64_t component_executions = 0;
  std::vector<CandidateOutcome> outcomes;
  int best_index = -1;
  double best_score = std::nan("");
  std::string metric;
  TimeBreakdown total_time;  ///< CET/CST components; CPT = Total().
  /// Virtual makespan of the candidate drain: the wall-clock of the search
  /// on a num_workers-wide machine (list-scheduled over virtual worker
  /// slots). With one worker this equals the serial candidate time; CPT
  /// (total_time) is worker-count-invariant while makespan_s shrinks.
  double makespan_s = 0;
  /// Artifact-cache telemetry of the trial executor: peak resident bytes
  /// vs. the configured cap, and how many entries the LRU policy dropped.
  /// Sharded merges aggregate across the per-shard caches (byte fields sum,
  /// so peak_bytes upper-bounds the true concurrent peak).
  pipeline::ArtifactCache::Stats cache_stats;
  /// Sharded-drain accounting: how many shards drained candidates and each
  /// shard's virtual drain time, in seconds from the merge's clock origin
  /// (single-node reports one entry, equal to makespan_s). makespan_s is
  /// the largest entry.
  size_t shards_used = 1;
  std::vector<double> shard_makespans_s;
  /// REAL (steady-clock) wall time of the candidate-drain phase, in
  /// milliseconds — the one deliberately non-virtual number in the report,
  /// measuring how well concurrent shard drains use the host's cores
  /// (bench_micro_merge_realtime gates on the sequential/concurrent ratio).
  /// Virtual metrics (makespan_s, total_time) are unaffected by it.
  double drain_wall_ms = 0;
  uint64_t storage_bytes = 0;  ///< Bytes written during merge (CSS delta).
  Hash256 merge_commit;
  /// Owns the component specs that every CandidateChain in `outcomes` points
  /// into — keeps those pointers valid for the lifetime of the report.
  SearchSpace search_space;
};

/// The metric-driven merge operation (Sec. V-VI): builds the component
/// search space from both branches' history since the common ancestor,
/// constructs the pipeline search tree (Algorithm 1), prunes it (PC),
/// seeds checkpoints (PR), executes the candidates depth-first
/// (Algorithm 2), and commits the argmax-score pipeline as a two-parent
/// merge commit.
class MergeOperation {
 public:
  MergeOperation(version::PipelineRepo* repo, pipeline::LibraryRepo* libraries,
                 const pipeline::LibraryRegistry* registry,
                 storage::StorageEngine* engine, SimClock* clock)
      : repo_(repo),
        libraries_(libraries),
        registry_(registry),
        engine_(engine),
        clock_(clock) {}

  /// Merges `merge_branch` into `head_branch`. Handles fast-forward when
  /// possible; otherwise performs the metric-driven search.
  StatusOr<MergeReport> Merge(const std::string& head_branch,
                              const std::string& merge_branch,
                              const MergeOptions& options);

 private:
  /// Per-shard ExecutionCore for sharded drains: built lazily ONCE per
  /// MergeOperation and reused by every later call, per the pool-ownership
  /// rules in execution_core.h. `real_threads` sizes a core the first time
  /// its shard is seen (later calls reuse whatever was built — real thread
  /// count never affects virtual results, only wall-clock).
  pipeline::ExecutionCore* ShardCore(size_t shard, size_t real_threads);

  version::PipelineRepo* repo_;
  pipeline::LibraryRepo* libraries_;
  const pipeline::LibraryRegistry* registry_;
  storage::StorageEngine* engine_;
  SimClock* clock_;
  /// Fallback pool for Merge calls that inject no shared core; built at
  /// most once per MergeOperation and reused.
  pipeline::LazyExecutionCore fallback_core_;
  std::mutex shard_core_mu_;
  std::vector<std::unique_ptr<pipeline::ExecutionCore>> shard_cores_;
  /// Dispatch pool for CONCURRENT shard drains: one real thread per shard
  /// (sized by the first sharded call), each running one shard's whole
  /// drain body. Built lazily once per MergeOperation and reused — never
  /// per call.
  pipeline::LazyExecutionCore shard_dispatch_core_;
};

}  // namespace mlcask::merge

#endif  // MLCASK_MERGE_MERGE_OP_H_
