#include "deploy.h"

#include "decorators.h"
#include "sim/libraries.h"
#include "storage/remote_engine.h"
#include "storage/socket_transport.h"

namespace perfbench {

namespace storage = mlcask::storage;

mlcask::StatusOr<BenchDeployment> AssembleDeployment(
    const std::vector<std::string>& endpoints, const std::string& workload,
    double scale, bool decorated) {
  BenchDeployment out;
  std::vector<std::unique_ptr<storage::StorageEngine>> proxies;
  for (const std::string& spec : endpoints) {
    MLCASK_ASSIGN_OR_RETURN(std::unique_ptr<storage::SocketTransport> socket,
                            storage::SocketTransport::Connect(spec));
    std::unique_ptr<storage::Transport> transport;
    if (decorated) {
      auto traced = std::make_unique<TracedTransport>(std::move(socket));
      out.transports.push_back(traced.get());
      transport = std::move(traced);
    } else {
      transport = std::move(socket);
    }
    proxies.push_back(
        std::make_unique<storage::RemoteStorageEngine>(std::move(transport)));
  }
  auto router =
      std::make_unique<storage::ShardedStorageEngine>(std::move(proxies));
  out.router = router.get();
  auto d = std::make_unique<mlcask::sim::Deployment>();
  if (decorated) {
    d->engine = std::make_unique<TracedEngine>(std::move(router));
  } else {
    d->engine = std::move(router);
  }
  d->num_workers = 1;
  d->clock = std::make_unique<mlcask::SimClock>();
  d->registry = std::make_unique<mlcask::pipeline::LibraryRegistry>();
  MLCASK_RETURN_IF_ERROR(
      decorated ? RegisterTimedLibraries(d->registry.get())
                : mlcask::sim::RegisterWorkloadLibraries(d->registry.get()));
  d->libraries = std::make_unique<mlcask::pipeline::LibraryRepo>(
      d->engine.get(), d->clock.get());
  MLCASK_ASSIGN_OR_RETURN(d->workload,
                          mlcask::sim::MakeWorkload(workload, scale));
  d->repo = std::make_unique<mlcask::version::PipelineRepo>(
      workload, d->engine.get(), d->clock.get());
  d->executor = std::make_unique<mlcask::pipeline::Executor>(
      d->registry.get(), d->engine.get(), d->clock.get());
  d->core = std::make_unique<mlcask::pipeline::ExecutionCore>(d->num_workers);
  out.d = std::move(d);
  return out;
}

}  // namespace perfbench
