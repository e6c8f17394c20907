#ifndef MLCASK_PIPELINE_CHECKOUT_H_
#define MLCASK_PIPELINE_CHECKOUT_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "pipeline/executor.h"
#include "pipeline/library_repo.h"
#include "pipeline/pipeline.h"
#include "storage/storage_engine.h"
#include "version/commit.h"

namespace mlcask::pipeline {

/// Rebuilds a runnable chain pipeline from a commit snapshot by resolving
/// every component record through the library repository — the "checkout"
/// half of retrospective research: any historical pipeline version can be
/// re-instantiated and re-run.
StatusOr<Pipeline> MaterializePipeline(const version::Commit& commit,
                                       const LibraryRepo& libraries,
                                       const std::string& pipeline_name);

/// One checkpoint from commit history: a committed chain prefix and its
/// materialized output, already read back. Prefixes that recorded the same
/// output id share one immutable table; only a full pipeline carries the
/// committed score and metrics.
struct Checkpoint {
  std::vector<ComponentVersionSpec> chain;
  std::shared_ptr<const data::Table> output;
  double score = std::nan("");
  std::string metric;
  std::map<std::string, double> metrics;
  Hash256 output_id;
};

/// Reads the checkpoints of every prefix of `commits`, in commit then prefix
/// order: one GetVersion and one deserialization per distinct output id.
/// NotFound means "not materialized" (never stored, or garbage-collected)
/// and skips the prefix; any other read failure is returned as is.
StatusOr<std::vector<Checkpoint>> ReadCheckpoints(
    const std::vector<const version::Commit*>& commits,
    const LibraryRepo& libraries, storage::StorageEngine* engine);

/// Copies `checkpoints` into `executor`'s artifact cache in order (a later
/// checkpoint of a chain overwrites an earlier one). When `seeded_keys` is
/// non-null, each chain key is recorded — the merge operation uses this to
/// mark the green (checkpointed) nodes of the search tree.
Status SeedExecutor(const std::vector<Checkpoint>& checkpoints,
                    Executor* executor,
                    std::set<Hash256>* seeded_keys = nullptr);

/// ReadCheckpoints + SeedExecutor for one commit.
Status SeedExecutorFromCommit(const version::Commit& commit,
                              const LibraryRepo& libraries,
                              storage::StorageEngine* engine,
                              Executor* executor,
                              std::set<Hash256>* seeded_keys = nullptr);

}  // namespace mlcask::pipeline

#endif  // MLCASK_PIPELINE_CHECKOUT_H_
