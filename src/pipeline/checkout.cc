#include "pipeline/checkout.h"

#include <unordered_map>

namespace mlcask::pipeline {

StatusOr<Pipeline> MaterializePipeline(const version::Commit& commit,
                                       const LibraryRepo& libraries,
                                       const std::string& pipeline_name) {
  std::vector<ComponentVersionSpec> specs;
  specs.reserve(commit.snapshot.components.size());
  for (const version::ComponentRecord& rec : commit.snapshot.components) {
    MLCASK_ASSIGN_OR_RETURN(const ComponentVersionSpec* spec,
                            libraries.Get(rec.name, rec.version));
    specs.push_back(*spec);
  }
  return Pipeline::Chain(pipeline_name, std::move(specs));
}

StatusOr<std::vector<Checkpoint>> ReadCheckpoints(
    const std::vector<const version::Commit*>& commits,
    const LibraryRepo& libraries, storage::StorageEngine* engine) {
  // Every output id read so far; null when the store does not hold it.
  std::unordered_map<Hash256, std::shared_ptr<const data::Table>,
                     Hash256Hasher>
      outputs;
  std::vector<Checkpoint> checkpoints;
  for (const version::Commit* commit : commits) {
    const version::PipelineSnapshot& snapshot = commit->snapshot;
    std::vector<ComponentVersionSpec> chain;
    for (size_t i = 0; i < snapshot.components.size(); ++i) {
      const version::ComponentRecord& rec = snapshot.components[i];
      MLCASK_ASSIGN_OR_RETURN(const ComponentVersionSpec* spec,
                              libraries.Get(rec.name, rec.version));
      chain.push_back(*spec);
      if (!rec.has_output()) continue;
      auto [it, first_read] = outputs.try_emplace(rec.output_id);
      if (first_read) {
        StatusOr<std::string> bytes = engine->GetVersion(rec.output_id);
        if (bytes.ok()) {
          MLCASK_ASSIGN_OR_RETURN(data::Table table,
                                  data::Table::Deserialize(*bytes));
          it->second = std::make_shared<const data::Table>(std::move(table));
        } else if (!bytes.status().IsNotFound()) {
          return bytes.status();
        }
      }
      if (it->second == nullptr) continue;
      const bool full = i + 1 == snapshot.components.size();
      checkpoints.push_back(
          {chain, it->second, full ? snapshot.score : std::nan(""),
           full ? snapshot.metric : "",
           full ? snapshot.metrics : std::map<std::string, double>{},
           rec.output_id});
    }
  }
  return checkpoints;
}

Status SeedExecutor(const std::vector<Checkpoint>& checkpoints,
                    Executor* executor, std::set<Hash256>* seeded_keys) {
  for (const Checkpoint& checkpoint : checkpoints) {
    MLCASK_RETURN_IF_ERROR(executor->SeedCache(
        checkpoint.chain, *checkpoint.output, checkpoint.score,
        checkpoint.metric, checkpoint.output_id, checkpoint.metrics));
    if (seeded_keys == nullptr) continue;
    std::vector<const ComponentVersionSpec*> ptrs;
    for (const ComponentVersionSpec& s : checkpoint.chain) ptrs.push_back(&s);
    seeded_keys->insert(Executor::ChainKey(ptrs));
  }
  return Status::Ok();
}

Status SeedExecutorFromCommit(const version::Commit& commit,
                              const LibraryRepo& libraries,
                              storage::StorageEngine* engine,
                              Executor* executor,
                              std::set<Hash256>* seeded_keys) {
  MLCASK_ASSIGN_OR_RETURN(std::vector<Checkpoint> checkpoints,
                          ReadCheckpoints({&commit}, libraries, engine));
  return SeedExecutor(checkpoints, executor, seeded_keys);
}

}  // namespace mlcask::pipeline
