// Benchmark-side decorators that time calls into the storage and ml layers
// from outside. They forward every virtual of the interface they wrap —
// AsyncCall, CallMany, every Async* engine call, call_timeout_ms and the
// wire version — so fan-out overlap, redial and deadline behaviour are the
// undecorated stack's. With no active Tracer they only forward.

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "pipeline/library_registry.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"
#include "storage/storage_engine.h"
#include "storage/transport.h"

namespace perfbench {

/// Times the socket Transport beneath one RemoteStorageEngine: every call,
/// blocking or async, as a "storage.rpc.call" span from issue to response,
/// plus a count of async issues. An async call's span is ended by a waiter
/// thread that blocks on the socket's future and then resolves the caller's,
/// so the caller is never blocked by the timing.
class TracedTransport : public mlcask::storage::Transport {
 public:
  explicit TracedTransport(
      std::unique_ptr<mlcask::storage::SocketTransport> inner);
  ~TracedTransport() override;

  mlcask::StatusOr<std::string> Call(std::string_view request) override;
  mlcask::storage::TransportFuture AsyncCall(
      std::string_view request) override;
  std::vector<mlcask::StatusOr<std::string>> CallMany(
      const std::vector<std::string>& requests) override;
  mlcask::storage::TransportStats stats() const override;
  std::string Name() const override;
  uint64_t call_timeout_ms() const override;
  uint8_t wire_version() const override;
  void set_wire_version(uint8_t version) override;

  const mlcask::storage::SocketTransport& socket() const { return *inner_; }

 private:
  class Waiters;

  // Declared first so it is destroyed last: the socket fails every pending
  // call when it goes, which releases the waiters.
  std::unique_ptr<Waiters> waiters_;
  std::unique_ptr<mlcask::storage::SocketTransport> inner_;
};

/// Times the StorageEngine surface of the sharded router: one
/// "storage.<op>" span per call, plus byte and error counts.
class TracedEngine : public mlcask::storage::StorageEngine {
 public:
  explicit TracedEngine(
      std::unique_ptr<mlcask::storage::ShardedStorageEngine> router);

  mlcask::storage::ShardedStorageEngine* router() const {
    return router_.get();
  }

  mlcask::StatusOr<mlcask::storage::PutResult> Put(
      const std::string& key, std::string_view data) override;
  mlcask::StatusOr<std::vector<mlcask::storage::PutResult>> PutMany(
      const std::vector<mlcask::storage::PutRequest>& batch) override;
  mlcask::StatusOr<std::string> Get(const std::string& key) override;
  mlcask::StatusOr<std::string> GetVersion(const mlcask::Hash256& id) override;
  bool HasVersion(const mlcask::Hash256& id) const override;
  std::vector<mlcask::Hash256> Versions(const std::string& key) const override;
  std::vector<std::pair<std::string, mlcask::Hash256>> ListAllVersions()
      const override;
  mlcask::StatusOr<uint64_t> DeleteVersion(const mlcask::Hash256& id) override;
  mlcask::StatusOr<mlcask::storage::MigrateBatchResult> MigrateBatch(
      const std::vector<mlcask::storage::MigrateKeyVersions>& batch) override;
  mlcask::storage::EngineStats stats() const override;
  std::string Name() const override;
  double ReadCost(uint64_t bytes) const override;

  mlcask::storage::Deferred<mlcask::storage::PutResult> AsyncPut(
      const std::string& key, std::string_view data) override;
  mlcask::storage::Deferred<std::vector<mlcask::storage::PutResult>>
  AsyncPutMany(const std::vector<mlcask::storage::PutRequest>& batch) override;
  mlcask::storage::Deferred<std::string> AsyncGetVersion(
      const mlcask::Hash256& id) override;
  mlcask::storage::Deferred<bool> AsyncHasVersion(
      const mlcask::Hash256& id) const override;
  mlcask::storage::Deferred<uint64_t> AsyncDeleteVersion(
      const mlcask::Hash256& id) override;
  mlcask::storage::Deferred<mlcask::storage::MigrateBatchResult>
  AsyncMigrateBatch(
      const std::vector<mlcask::storage::MigrateKeyVersions>& batch) override;

 private:
  std::unique_ptr<mlcask::storage::ShardedStorageEngine> router_;
};

/// Fills `registry` with the LibraryFns sim::RegisterWorkloadLibraries
/// installs, each wrapped in an "ml.fn" span.
mlcask::Status RegisterTimedLibraries(mlcask::pipeline::LibraryRegistry* registry);

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
