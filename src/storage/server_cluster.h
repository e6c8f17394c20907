#ifndef MLCASK_STORAGE_SERVER_CLUSTER_H_
#define MLCASK_STORAGE_SERVER_CLUSTER_H_

#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common/status.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"

namespace mlcask::storage {

/// The multi-process sibling of MakeLoopbackCluster: dials one socket
/// transport per endpoint spec (`unix:/path`, `tcp:host:port` — each
/// typically a running `mlcask_server` process), wraps each in a
/// RemoteStorageEngine proxy, and routes them all through one
/// ShardedStorageEngine. The returned cluster is call-for-call identical to
/// a loopback one — same wire format, same routing, same 2PC — except that
/// the round trips now cross real process/host boundaries and the async
/// fan-outs genuinely overlap their wire latency. Connection failures
/// surface as Unavailable naming the endpoint. `loopback:` specs are
/// rejected: they have no wire to dial (use MakeLoopbackCluster).
StatusOr<std::unique_ptr<ShardedStorageEngine>> ConnectCluster(
    const std::vector<std::string>& endpoints,
    const SocketTransport::Options& transport_options =
        SocketTransport::Options());

/// Spawns and owns N `mlcask_server` OS processes, one storage shard each,
/// listening on Unix-domain sockets under a fresh private temp directory.
/// This is the launcher behind the multi-process equivalence tests and the
/// fig11 bench's --socket mode: Start() returns once every server accepts
/// connections, endpoints() feeds straight into ConnectCluster, and the
/// destructor SIGTERMs + reaps every child (SIGKILL after a grace period),
/// so a failing test never leaks server processes.
class LocalServerCluster {
 public:
  struct Options {
    /// Path to the mlcask_server binary. Empty = $MLCASK_SERVER_BIN.
    std::string server_binary;
    std::string backend = "forkbase";  ///< forkbase | localdir
    /// Per-server wait for the socket to accept, in milliseconds.
    uint64_t startup_timeout_ms = 10000;
    /// Deterministic fault schedule passed to every server as --fault-spec
    /// (see FaultSpec::Parse for the grammar). Empty = no injection.
    std::string fault_spec;
    /// Give every shard a private --data-dir under the cluster temp dir, so
    /// acknowledged writes survive KillShard + RestartShard. Requires the
    /// forkbase backend. The chaos recovery drills run on this.
    bool durable = false;
    /// Admission-control caps forwarded to every server as
    /// --max-queued-jobs / --max-queued-bytes. 0 = keep the server's
    /// defaults. The overload saturation bench shrinks these so load
    /// shedding triggers at test-sized request volumes.
    size_t max_queued_jobs = 0;
    size_t max_queued_bytes = 0;
    /// Launch every server with --serve-merge: the process hosts the merge
    /// service front end (submit/poll/fetch/cancel sessions) alongside its
    /// storage shard, on the same endpoint. The saturation bench drives a
    /// cluster of these.
    bool serve_merge = false;
    /// With serve_merge: --merge-workers per server (0 = server default).
    size_t merge_workers = 0;
    /// With serve_merge: --tenant-weights spec, e.g. "gold=3,free=1"
    /// (empty = every tenant at the default weight).
    std::string tenant_weights;
    /// --stats-interval seconds for live STATS lines (0 = off).
    unsigned stats_interval_s = 0;
  };

  LocalServerCluster() = default;
  ~LocalServerCluster();
  LocalServerCluster(const LocalServerCluster&) = delete;
  LocalServerCluster& operator=(const LocalServerCluster&) = delete;

  /// Launches `shards` servers and waits until each endpoint accepts a
  /// connection. On failure every already-spawned child is torn down before
  /// the error returns. Call once per instance.
  Status Start(size_t shards, const Options& options);
  Status Start(size_t shards) { return Start(shards, Options()); }

  /// `unix:` endpoint specs, one per shard, in shard order.
  const std::vector<std::string>& endpoints() const { return endpoints_; }

  /// Spawns ONE more server process on the next shard index and waits until
  /// it accepts, returning its `unix:` endpoint spec (also appended to
  /// endpoints()). This is the process half of elastic scale-out: dial the
  /// returned endpoint and hand the proxy to
  /// ShardedStorageEngine::AddShard. On failure the cluster is unchanged.
  StatusOr<std::string> AddShard();

  /// Gracefully retires shard `i`: SIGTERM, reap (SIGKILL after the grace
  /// period), and unlink its socket so nothing can dial the slot again.
  /// The slot index stays allocated (shard numbering is stable) and its
  /// log survives until Stop(). Run the engine-level
  /// ShardedStorageEngine::RemoveShard FIRST — a drained shard takes any
  /// un-migrated keys with it. Reports a non-clean exit as Internal.
  Status DrainShard(size_t i);

  /// Hard-kills shard `i` (SIGKILL — no grace, no flush): the chaos drills'
  /// crash primitive. Recorded as deliberate, so Stop() does not report it
  /// as an anomaly. The endpoint and (durable) data dir stay in place for
  /// RestartShard.
  Status KillShard(size_t i);
  /// Respawns a dead shard on its original endpoint (and data dir when
  /// durable) and waits until it accepts again. The shard process is new;
  /// clients redial, the ENGINE state is whatever the data dir preserved.
  Status RestartShard(size_t i);

  /// SIGTERMs and reaps all children, removes the socket dir. Idempotent.
  /// The returned status is the post-mortem: Ok when every child exited
  /// cleanly (exit 0, our SIGTERM, or a deliberate KillShard); otherwise it
  /// names the first shard that CRASHED — non-zero exit code or an
  /// unexpected signal, decoded from the wait status — with its log tail
  /// inlined. The destructor calls this and discards the verdict.
  Status Stop();

 private:
  struct Shard {
    pid_t pid = -1;
    bool killed_deliberately = false;
  };

  std::string SocketPath(size_t s) const;
  std::string LogPath(size_t s) const;
  std::string DataDir(size_t s) const;
  /// Forks + execs one server process for shard `s` (fresh or restart).
  Status SpawnShard(size_t s);
  /// Polls shard `s`'s socket until it accepts, surfacing an early child
  /// death as its decoded exit instead of a timeout.
  Status WaitForAccept(size_t s);

  Options options_;
  std::string binary_;
  std::vector<Shard> shards_;
  std::vector<std::string> endpoints_;
  std::string dir_;
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_SERVER_CLUSTER_H_
