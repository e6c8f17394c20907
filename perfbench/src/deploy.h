// Assembles a sim::Deployment over running mlcask_server shards, in the
// same composition as storage::ConnectCluster + sim::MakeDeployment:
// SocketTransport -> RemoteStorageEngine -> one ShardedStorageEngine.
// The traced variant slips a TracedTransport under each RemoteStorageEngine,
// a TracedEngine over the router, and timed LibraryFns into the registry.

#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/scenario.h"
#include "storage/sharded_engine.h"

namespace perfbench {

class TracedTransport;

struct BenchDeployment {
  std::unique_ptr<mlcask::sim::Deployment> d;
  /// The sharded router (owned by d->engine, directly or via TracedEngine).
  mlcask::storage::ShardedStorageEngine* router = nullptr;
  /// The transport decorators beneath the router (decorated only; owned by
  /// the RemoteStorageEngines).
  std::vector<TracedTransport*> transports;
};

mlcask::StatusOr<BenchDeployment> AssembleDeployment(
    const std::vector<std::string>& endpoints, const std::string& workload,
    double scale, bool decorated);

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOY_H_
