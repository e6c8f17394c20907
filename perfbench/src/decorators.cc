#include "decorators.h"

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "sim/libraries.h"
#include "trace.h"

namespace perfbench {

namespace storage = mlcask::storage;
using mlcask::Hash256;
using mlcask::Status;
using mlcask::StatusOr;

namespace {

void CountIf(const char* name, double amount) {
  if (Tracer* t = Tracer::Active()) t->Count(name, amount);
}

template <typename T>
const T& CountError(const T& result) {
  if (!result.ok()) CountIf("storage.errors", 1);
  return result;
}

}  // namespace

// --- TracedTransport --------------------------------------------------------

/// Completes traced async calls. Each waiter thread takes one call, blocks
/// on the socket's future, ends the call's span when the response is there
/// and resolves the caller's future with it. Waiters are spawned when every
/// existing one is busy and then reused, so no call waits behind another.
class TracedTransport::Waiters {
 public:
  ~Waiters() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  storage::TransportFuture Track(storage::TransportFuture inner,
                                 Tracer::Detached span) {
    Pending p{std::move(inner), {}, span};
    storage::TransportFuture outer = p.outer.get_future();
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(p));
    if (idle_ >= queue_.size()) {
      cv_.notify_one();
    } else {
      threads_.emplace_back([this] { Loop(); });
    }
    return outer;
  }

 private:
  struct Pending {
    storage::TransportFuture inner;
    std::promise<StatusOr<std::string>> outer;
    Tracer::Detached span;
  };

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      ++idle_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;
      Pending p = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      p.inner.wait();
      p.span.End();
      StatusOr<std::string> response = p.inner.get();
      if (!response.ok()) CountIf("storage.rpc.errors", 1);
      p.outer.set_value(std::move(response));
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  size_t idle_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

TracedTransport::TracedTransport(std::unique_ptr<storage::SocketTransport> inner)
    : waiters_(std::make_unique<Waiters>()), inner_(std::move(inner)) {}

TracedTransport::~TracedTransport() = default;

StatusOr<std::string> TracedTransport::Call(std::string_view request) {
  Tracer::Scoped span("storage.rpc.call");
  StatusOr<std::string> response = inner_->Call(request);
  if (!response.ok()) CountIf("storage.rpc.errors", 1);
  return response;
}

storage::TransportFuture TracedTransport::AsyncCall(std::string_view request) {
  if (Tracer::Active() == nullptr) return inner_->AsyncCall(request);
  CountIf("storage.rpc.async_issued", 1);
  Tracer::Detached span("storage.rpc.call");
  return waiters_->Track(inner_->AsyncCall(request), span);
}

std::vector<StatusOr<std::string>> TracedTransport::CallMany(
    const std::vector<std::string>& requests) {
  Tracer::Scoped span("storage.rpc.call_many");
  CountIf("storage.rpc.async_issued", static_cast<double>(requests.size()));
  std::vector<StatusOr<std::string>> responses = inner_->CallMany(requests);
  for (const auto& r : responses) {
    if (!r.ok()) CountIf("storage.rpc.errors", 1);
  }
  return responses;
}

storage::TransportStats TracedTransport::stats() const {
  return inner_->stats();
}

std::string TracedTransport::Name() const { return inner_->Name(); }

uint64_t TracedTransport::call_timeout_ms() const {
  return inner_->call_timeout_ms();
}

uint8_t TracedTransport::wire_version() const {
  return inner_->wire_version();
}

void TracedTransport::set_wire_version(uint8_t version) {
  inner_->set_wire_version(version);
}

// --- TracedEngine -----------------------------------------------------------

TracedEngine::TracedEngine(std::unique_ptr<storage::ShardedStorageEngine> router)
    : router_(std::move(router)) {}

StatusOr<storage::PutResult> TracedEngine::Put(const std::string& key,
                                               std::string_view data) {
  Tracer::Scoped span("storage.put");
  CountIf("storage.bytes_written", static_cast<double>(data.size()));
  return CountError(router_->Put(key, data));
}

StatusOr<std::vector<storage::PutResult>> TracedEngine::PutMany(
    const std::vector<storage::PutRequest>& batch) {
  Tracer::Scoped span("storage.put_many");
  double bytes = 0;
  for (const auto& r : batch) bytes += static_cast<double>(r.data.size());
  CountIf("storage.bytes_written", bytes);
  return CountError(router_->PutMany(batch));
}

StatusOr<std::string> TracedEngine::Get(const std::string& key) {
  StatusOr<std::string> result = [&] {
    Tracer::Scoped span("storage.get");
    return router_->Get(key);
  }();
  if (result.ok()) {
    CountIf("storage.bytes_read", static_cast<double>(result->size()));
  }
  return CountError(result);
}

StatusOr<std::string> TracedEngine::GetVersion(const Hash256& id) {
  StatusOr<std::string> result = [&] {
    Tracer::Scoped span("storage.get_version");
    return router_->GetVersion(id);
  }();
  if (result.ok()) {
    CountIf("storage.bytes_read", static_cast<double>(result->size()));
  }
  return CountError(result);
}

bool TracedEngine::HasVersion(const Hash256& id) const {
  Tracer::Scoped span("storage.has_version");
  return router_->HasVersion(id);
}

std::vector<Hash256> TracedEngine::Versions(const std::string& key) const {
  Tracer::Scoped span("storage.versions");
  return router_->Versions(key);
}

std::vector<std::pair<std::string, Hash256>> TracedEngine::ListAllVersions()
    const {
  Tracer::Scoped span("storage.list_all_versions");
  return router_->ListAllVersions();
}

StatusOr<uint64_t> TracedEngine::DeleteVersion(const Hash256& id) {
  Tracer::Scoped span("storage.delete_version");
  return CountError(router_->DeleteVersion(id));
}

StatusOr<storage::MigrateBatchResult> TracedEngine::MigrateBatch(
    const std::vector<storage::MigrateKeyVersions>& batch) {
  Tracer::Scoped span("storage.migrate_batch");
  return CountError(router_->MigrateBatch(batch));
}

storage::EngineStats TracedEngine::stats() const { return router_->stats(); }

std::string TracedEngine::Name() const { return router_->Name(); }

double TracedEngine::ReadCost(uint64_t bytes) const {
  return router_->ReadCost(bytes);
}

// The async surface is forwarded so the router's overlapped fan-outs stay
// overlapped. The layers above the router issue only blocking calls, so
// these are forwarded untimed.

storage::Deferred<storage::PutResult> TracedEngine::AsyncPut(
    const std::string& key, std::string_view data) {
  return router_->AsyncPut(key, data);
}

storage::Deferred<std::vector<storage::PutResult>> TracedEngine::AsyncPutMany(
    const std::vector<storage::PutRequest>& batch) {
  return router_->AsyncPutMany(batch);
}

storage::Deferred<std::string> TracedEngine::AsyncGetVersion(const Hash256& id) {
  return router_->AsyncGetVersion(id);
}

storage::Deferred<bool> TracedEngine::AsyncHasVersion(const Hash256& id) const {
  return router_->AsyncHasVersion(id);
}

storage::Deferred<uint64_t> TracedEngine::AsyncDeleteVersion(const Hash256& id) {
  return router_->AsyncDeleteVersion(id);
}

storage::Deferred<storage::MigrateBatchResult> TracedEngine::AsyncMigrateBatch(
    const std::vector<storage::MigrateKeyVersions>& batch) {
  return router_->AsyncMigrateBatch(batch);
}

// --- ml ---------------------------------------------------------------------

Status RegisterTimedLibraries(mlcask::pipeline::LibraryRegistry* registry) {
  mlcask::pipeline::LibraryRegistry plain;
  MLCASK_RETURN_IF_ERROR(mlcask::sim::RegisterWorkloadLibraries(&plain));
  for (const std::string& name : plain.List()) {
    MLCASK_ASSIGN_OR_RETURN(const mlcask::pipeline::LibraryFn* fn,
                            plain.Get(name));
    mlcask::pipeline::LibraryFn inner = *fn;
    MLCASK_RETURN_IF_ERROR(registry->Register(
        name, [inner](const mlcask::pipeline::ExecInput& in) {
          Tracer::Scoped span("ml.fn");
          return inner(in);
        }));
  }
  return Status::Ok();
}

}  // namespace perfbench
