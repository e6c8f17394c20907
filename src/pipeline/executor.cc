#include "pipeline/executor.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "common/sha256.h"
#include "pipeline/execution_core.h"

namespace mlcask::pipeline {

namespace {

/// Deterministic per-component seed: run seed mixed with the node key, so
/// dataset components and model inits are deterministic per pipeline but
/// distinct across components — and identical no matter which worker runs
/// the component or in which order.
uint64_t MixSeed(uint64_t seed, const Hash256& key) {
  for (uint8_t b : key.bytes) seed = seed * 131 + b;
  return seed;
}

}  // namespace

Hash256 Executor::NodeKey(const ComponentVersionSpec& spec,
                          const std::vector<Hash256>& parent_keys) {
  Sha256 h;
  h.Update(spec.name);
  h.Update("\x1f");
  h.Update(spec.version.ToString(/*simplify_master=*/false));
  h.Update("\x1f");
  h.Update(spec.impl);
  h.Update("\x1f");
  h.Update(spec.params.Dump());
  h.Update("\x1e");
  for (const Hash256& pk : parent_keys) {
    h.Update(pk.bytes.data(), pk.bytes.size());
  }
  return h.Finish();
}

Hash256 Executor::ChainKey(
    const std::vector<const ComponentVersionSpec*>& chain) {
  Hash256 key;
  std::vector<Hash256> parents;
  for (const ComponentVersionSpec* spec : chain) {
    key = NodeKey(*spec, parents);
    parents.assign(1, key);
  }
  return key;
}

Status Executor::SeedCache(const std::vector<ComponentVersionSpec>& chain,
                           data::Table output, double score,
                           const std::string& metric, const Hash256& output_id,
                           std::map<std::string, double> metrics) {
  if (chain.empty()) {
    return Status::InvalidArgument("cannot seed cache for empty chain");
  }
  std::vector<const ComponentVersionSpec*> ptrs;
  ptrs.reserve(chain.size());
  for (const ComponentVersionSpec& s : chain) ptrs.push_back(&s);
  ArtifactEntry entry;
  entry.table = std::move(output);
  entry.score = score;
  entry.metric = metric;
  entry.metrics = std::move(metrics);
  entry.output_id = output_id;
  entry.ready_at_s = 0;  // checkpoints are free: materialized before the run
  cache_.Insert(ChainKey(ptrs), std::move(entry));
  return Status::Ok();
}

ArtifactCache::EntryPtr Executor::FindCachedEntry(
    const std::vector<const ComponentVersionSpec*>& chain) const {
  return cache_.Find(ChainKey(chain));
}

const data::Table* Executor::FindCached(
    const std::vector<const ComponentVersionSpec*>& chain) const {
  ArtifactCache::EntryPtr entry = FindCachedEntry(chain);
  return entry == nullptr ? nullptr : &entry->table;
}

StatusOr<PipelineRunResult> Executor::Run(const Pipeline& pipeline,
                                          const ExecutorOptions& options) {
  MLCASK_RETURN_IF_ERROR(pipeline.Validate());
  MLCASK_ASSIGN_OR_RETURN(std::vector<const ComponentVersionSpec*> order,
                          pipeline.TopologicalOrder());

  SimClock* clock = options.clock != nullptr ? options.clock : clock_;
  PipelineRunResult result;

  // MLCask checks declared compatibility before spending any compute
  // (Fig. 5's final iteration: "it does not run the pipeline").
  if (options.precheck_compatibility) {
    Status compat = pipeline.CheckCompatibility();
    if (compat.IsIncompatible()) {
      result.compatibility_failure = true;
      result.failed_component = compat.message();
      return result;
    }
    MLCASK_RETURN_IF_ERROR(compat);
  }

  // Recursive node keys H(spec, sorted parent keys). Along a chain they fold
  // exactly as ChainKey does, so chain prefixes (merge candidates, seeded
  // checkpoints) and DAG nodes share one cache namespace.
  const size_t n = order.size();
  std::unordered_map<std::string, size_t> index_of;
  for (size_t i = 0; i < n; ++i) index_of[order[i]->name] = i;

  std::vector<std::vector<size_t>> deps(n);
  std::vector<Hash256> node_keys(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> preds = pipeline.Predecessors(order[i]->name);
    std::sort(preds.begin(), preds.end());
    std::vector<Hash256> parent_keys;
    parent_keys.reserve(preds.size());
    deps[i].reserve(preds.size());
    for (const std::string& pred : preds) {
      size_t pi = index_of.at(pred);
      deps[i].push_back(pi);
      parent_keys.push_back(node_keys[pi]);
    }
    node_keys[i] = NodeKey(*order[i], parent_keys);
  }

  // Checkpoint pruning (Algorithm 2): an uncached node only executes if it
  // is a sink or some executing successor reads its table, so a checkpoint
  // covers its whole ancestry — on a chain, everything before the longest
  // cached prefix. Covered ancestors never execute; they only surface a
  // still-resident entry's output id and score. `readers[i]` counts node
  // i's executing successors.
  std::vector<ArtifactCache::EntryPtr> cached(n);
  if (options.reuse_cached_outputs) {
    for (size_t i = 0; i < n; ++i) cached[i] = cache_.Find(node_keys[i]);
  }
  std::vector<char> must_execute(n, 0);
  std::vector<size_t> readers(n, 0);
  std::vector<char> is_sink(n, 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t pi : deps[i]) is_sink[pi] = 0;
  }
  for (size_t i = n; i-- > 0;) {  // order is topological; walk sinks first
    must_execute[i] = !cached[i] && (is_sink[i] || readers[i] > 0) ? 1 : 0;
    if (must_execute[i]) {
      for (size_t pi : deps[i]) readers[pi] += 1;
    }
  }
  // Pin only what the plan reads: a cached node an executing successor
  // consumes (eviction must not turn the planned skip into a missing input),
  // or a cached sink whose score is the result. Every other cached node is
  // covered and re-read unpinned when its turn comes, so a chain pins just
  // its resume entry. Each table is released once its last executing
  // reader finishes (see release_inputs), so a running chain holds at most
  // its current input and output.
  for (size_t i = 0; i < n; ++i) {
    if (readers[i] == 0 && !is_sink[i]) cached[i].reset();
  }

  // Per-task outcome slots; each task writes only its own index, so no lock
  // is needed beyond the scheduler's happens-before edges.
  struct TaskOutcome {
    ComponentRunInfo info;
    ArtifactCache::EntryPtr entry;  ///< Held while executing readers remain.
    bool processed = false;
    bool has_score = false;
    double score = 0;
    std::string metric;
    std::map<std::string, double> metrics;
    double finish_s = 0;  ///< Virtual time when this task's worker finished.
  };
  std::vector<TaskOutcome> outcomes(n);

  // First runtime-compatibility failure (precheck off); guarded by fail_mu.
  std::mutex fail_mu;
  std::string failed_component;

  // Executes node i under `lease` (null when reuse is disabled and nothing
  // is published). Predecessor outputs come from their outcome slots — the
  // scheduler guarantees they finished, and its mutex provides the
  // happens-before edge that makes reading them safe.
  auto execute_node = [&](size_t i, ArtifactCache::Lease* lease,
                          SimClock* task_clock) -> Status {
    const ComponentVersionSpec* spec = order[i];
    TaskOutcome& slot = outcomes[i];

    std::vector<const data::Table*> inputs;
    size_t input_rows = 0;
    inputs.reserve(deps[i].size());
    for (size_t pi : deps[i]) {
      const ComponentVersionSpec* pred_spec = order[pi];
      if (!options.precheck_compatibility &&
          !pred_spec->CompatibleWith(*spec)) {
        // Runtime incompatibility: upstream components have already burned
        // their time (the baselines' behaviour in Fig. 5).
        std::lock_guard<std::mutex> lock(fail_mu);
        if (failed_component.empty()) failed_component = spec->name;
        return Status::Incompatible("runtime schema mismatch at " +
                                    spec->name);
      }
      if (outcomes[pi].entry == nullptr) {
        return Status::Internal("predecessor '" + pred_spec->name +
                                "' missing from cache during run");
      }
      inputs.push_back(&outcomes[pi].entry->table);
      input_rows = std::max(input_rows, outcomes[pi].entry->table.num_rows());
    }

    MLCASK_ASSIGN_OR_RETURN(const LibraryFn* fn, registry_->Get(spec->impl));
    ExecInput in;
    in.inputs = inputs;
    in.input = inputs.empty() ? nullptr : inputs.front();
    in.params = &spec->params;
    in.seed = MixSeed(options.seed, node_keys[i]);

    MLCASK_ASSIGN_OR_RETURN(ExecOutput out, (*fn)(in));
    executions_.fetch_add(1, std::memory_order_relaxed);
    slot.info.executed = true;

    size_t rows = inputs.empty() ? out.table.num_rows() : input_rows;
    slot.info.exec_s =
        spec->cost_per_krow_s * static_cast<double>(rows) / 1000.0;
    task_clock->Advance(slot.info.exec_s);

    if (out.has_score()) {
      slot.has_score = true;
      slot.score = out.score;
      slot.metric = out.metric;
      slot.metrics = out.metrics;
    }

    if (options.store_outputs) {
      std::string bytes = out.table.Serialize();
      MLCASK_ASSIGN_OR_RETURN(
          storage::PutResult put,
          engine_->Put("artifact/" + pipeline.name() + "/" + spec->Key(),
                       bytes));
      slot.info.storage_s = put.storage_time_s;
      slot.info.bytes_written = put.logical_bytes;
      slot.info.output_id = put.id;
      task_clock->Advance(put.storage_time_s);
    }

    ArtifactEntry entry;
    entry.table = std::move(out.table);
    entry.score = out.score;
    entry.metric = out.metric;
    entry.metrics = std::move(out.metrics);
    entry.output_id = slot.info.output_id;
    entry.ready_at_s = task_clock->Now();
    if (lease != nullptr) {
      slot.entry = cache_.Fulfill(lease, std::move(entry));
    } else {
      // Reuse disabled: later runs will not look the entry up, but the
      // merge materialization (FindCachedEntry on the winner) still expects
      // the freshest outputs in the cache.
      slot.entry = cache_.Insert(node_keys[i], std::move(entry));
    }
    return Status::Ok();
  };

  auto run_task = [&](size_t i, SimClock* task_clock) -> Status {
    const ComponentVersionSpec* spec = order[i];
    TaskOutcome& slot = outcomes[i];
    slot.info.name = spec->name;
    slot.info.version = spec->version;
    slot.info.kind = spec->kind;
    slot.processed = true;
    // Record the worker's virtual finish on every exit path, so a failed
    // run still charges the caller's clock for the time it burned.
    struct FinishRecorder {
      TaskOutcome& slot;
      SimClock* clock;
      ~FinishRecorder() { slot.finish_s = clock->Now(); }
    } finish_recorder{slot, task_clock};

    auto reuse_entry = [&](ArtifactCache::EntryPtr entry) {
      slot.info.reused = true;
      slot.info.output_id = entry->output_id;
      if (entry->has_score()) {
        slot.has_score = true;
        slot.score = entry->score;
        slot.metric = entry->metric;
        slot.metrics = entry->metrics;
      }
      // Waiting for an artifact another worker finishes later in virtual
      // time costs exactly that wait; on a serial timeline it is a no-op.
      task_clock->AdvanceTo(entry->ready_at_s);
      slot.entry = std::move(entry);
    };

    if (!must_execute[i]) {
      // Planned reuse: the entry pinned at plan time, or — for a node the
      // plan does not read — whatever the cache holds now. A covered node
      // with nothing resident is skipped without an entry.
      ArtifactCache::EntryPtr entry = std::move(cached[i]);
      if (entry == nullptr) entry = cache_.Find(node_keys[i]);
      if (entry != nullptr) {
        reuse_entry(std::move(entry));
      } else {
        slot.info.reused = true;
      }
      return Status::Ok();
    }
    if (!options.reuse_cached_outputs) {
      return execute_node(i, nullptr, task_clock);
    }
    // Claimed through the in-flight guard: if a concurrent run is already
    // computing this node, wait for its result instead of recomputing it.
    ArtifactCache::Acquired acquired = cache_.Acquire(node_keys[i]);
    if (acquired.entry != nullptr) {
      reuse_entry(std::move(acquired.entry));
      return Status::Ok();
    }
    return execute_node(i, acquired.lease.get(), task_clock);
  };

  // Drops the pins task i no longer needs once it finished: its own table
  // when no executing successor reads it, and each input whose last
  // executing reader it was.
  std::mutex release_mu;
  auto release_inputs = [&](size_t i) {
    std::lock_guard<std::mutex> lock(release_mu);
    if (readers[i] == 0) outcomes[i].entry.reset();
    if (!must_execute[i]) return;
    for (size_t pi : deps[i]) {
      if (--readers[pi] == 0) outcomes[pi].entry.reset();
    }
  };

  // Schedule on the shared pool (options.core) or the executor's lazy
  // fallback — never a per-call pool. The requested num_workers is the
  // VIRTUAL machine width; the pool's real thread count is whatever the
  // pool owner chose. Width 1 runs inline on the calling thread.
  const size_t width = std::max<size_t>(1, options.num_workers);
  ExecutionCore* core = fallback_core_.Get(options.core, width);
  double base = clock != nullptr ? clock->Now() : 0;
  StatusOr<double> makespan = core->RunGraph(
      n, deps,
      [&](size_t i, SimClock* task_clock) {
        Status status = run_task(i, task_clock);
        release_inputs(i);
        return status;
      },
      base, /*finish_times=*/nullptr, /*virtual_workers=*/width);

  if (!makespan.ok()) {
    if (makespan.status().IsIncompatible()) {
      result.compatibility_failure = true;
      {
        std::lock_guard<std::mutex> lock(fail_mu);
        result.failed_component = failed_component;
      }
      // The baselines' behaviour in Fig. 5: upstream components burned
      // their time before the failure — charge it (partial makespan).
      double failed_makespan = base;
      for (TaskOutcome& slot : outcomes) {
        if (slot.processed) {
          failed_makespan = std::max(failed_makespan, slot.finish_s);
          result.components.push_back(std::move(slot.info));
          result.time.storage_s += result.components.back().storage_s;
          double exec_s = result.components.back().exec_s;
          if (result.components.back().kind == ComponentKind::kModel) {
            result.time.train_s += exec_s;
          } else {
            result.time.preprocess_s += exec_s;
          }
        }
      }
      if (clock != nullptr) clock->AdvanceTo(failed_makespan);
      return result;
    }
    return makespan.status();
  }
  if (clock != nullptr) clock->AdvanceTo(*makespan);

  for (size_t i = 0; i < n; ++i) {
    TaskOutcome& slot = outcomes[i];
    if (slot.has_score) {
      result.score = slot.score;
      result.metric = slot.metric;
      result.metrics = slot.metrics;
    }
    if (slot.info.kind == ComponentKind::kModel) {
      result.time.train_s += slot.info.exec_s;
    } else {
      result.time.preprocess_s += slot.info.exec_s;
    }
    result.time.storage_s += slot.info.storage_s;
    result.components.push_back(std::move(slot.info));
  }

  // Assemble the commit-ready snapshot.
  for (size_t i = 0; i < n; ++i) {
    version::ComponentRecord rec = order[i]->ToRecord();
    rec.output_id = result.components[i].output_id;
    result.snapshot.components.push_back(std::move(rec));
  }
  result.snapshot.score = result.score;
  result.snapshot.metric = result.metric;
  result.snapshot.metrics = result.metrics;
  return result;
}

}  // namespace mlcask::pipeline
