#include "storage/server_cluster.h"

#include "storage/remote_engine.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

namespace mlcask::storage {

StatusOr<std::unique_ptr<ShardedStorageEngine>> ConnectCluster(
    const std::vector<std::string>& endpoints,
    const SocketTransport::Options& transport_options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument(
        "ConnectCluster needs at least one endpoint");
  }
  std::vector<std::unique_ptr<StorageEngine>> proxies;
  proxies.reserve(endpoints.size());
  for (const std::string& spec : endpoints) {
    MLCASK_ASSIGN_OR_RETURN(Endpoint ep, Endpoint::Parse(spec));
    if (ep.kind == Endpoint::Kind::kLoopback) {
      return Status::InvalidArgument(
          "loopback: endpoints have no wire to dial; use MakeLoopbackCluster");
    }
    MLCASK_ASSIGN_OR_RETURN(std::unique_ptr<SocketTransport> transport,
                            SocketTransport::Connect(ep, transport_options));
    proxies.push_back(
        std::make_unique<RemoteStorageEngine>(std::move(transport)));
  }
  return std::make_unique<ShardedStorageEngine>(std::move(proxies));
}

namespace {

/// One probe: can we complete a connect() on the Unix socket right now?
bool CanConnect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

/// The last ~2 KiB of a child's log, inlined into launch-failure statuses so
/// the reason (bad flag, bind failure, missing lib) is IN the error a test
/// prints — not behind a tmpdir path that Stop() is about to erase.
std::string LogTail(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return "";
  constexpr off_t kTailBytes = 2048;
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return "";
  }
  const off_t start = size > kTailBytes ? size - kTailBytes : 0;
  std::string tail(static_cast<size_t>(size - start), '\0');
  ssize_t n = ::pread(fd, tail.data(), tail.size(), start);
  ::close(fd);
  if (n <= 0) return "";
  tail.resize(static_cast<size_t>(n));
  while (!tail.empty() && tail.back() == '\n') tail.pop_back();
  if (tail.empty()) return "";
  return (start > 0 ? "; log tail:\n...": "; log tail:\n") + tail;
}

/// Decodes one reaped child's wait status into a human verdict. Empty
/// string = clean exit (exit code 0 or our own SIGTERM).
std::string DescribeExit(int wstatus) {
  if (WIFEXITED(wstatus)) {
    const int code = WEXITSTATUS(wstatus);
    if (code == 0) return "";
    return "exited with status " + std::to_string(code);
  }
  if (WIFSIGNALED(wstatus)) {
    const int sig = WTERMSIG(wstatus);
    if (sig == SIGTERM) return "";  // our own shutdown signal
    const char* name = ::strsignal(sig);
    return "killed by signal " + std::to_string(sig) +
           (name != nullptr ? std::string(" (") + name + ")" : "");
  }
  return "ended with unrecognized wait status " + std::to_string(wstatus);
}

}  // namespace

LocalServerCluster::~LocalServerCluster() { (void)Stop(); }

std::string LocalServerCluster::SocketPath(size_t s) const {
  return dir_ + "/shard" + std::to_string(s) + ".sock";
}

std::string LocalServerCluster::LogPath(size_t s) const {
  return dir_ + "/shard" + std::to_string(s) + ".log";
}

std::string LocalServerCluster::DataDir(size_t s) const {
  return dir_ + "/shard" + std::to_string(s) + ".data";
}

Status LocalServerCluster::SpawnShard(size_t s) {
  const std::string sock = SocketPath(s);
  const std::string spec = "unix:" + sock;
  const std::string log = LogPath(s);
  // A killed shard leaves its socket file behind; the replacement must be
  // able to bind the same path.
  ::unlink(sock.c_str());

  std::vector<std::string> args = {binary_,          "--endpoint", spec,
                                   "--backend",      options_.backend};
  if (!options_.fault_spec.empty()) {
    args.push_back("--fault-spec");
    args.push_back(options_.fault_spec);
  }
  if (options_.durable) {
    args.push_back("--data-dir");
    args.push_back(DataDir(s));
  }
  if (options_.max_queued_jobs > 0) {
    args.push_back("--max-queued-jobs=" +
                   std::to_string(options_.max_queued_jobs));
  }
  if (options_.max_queued_bytes > 0) {
    args.push_back("--max-queued-bytes=" +
                   std::to_string(options_.max_queued_bytes));
  }
  if (options_.serve_merge) {
    args.push_back("--serve-merge");
    if (options_.merge_workers > 0) {
      args.push_back("--merge-workers=" +
                     std::to_string(options_.merge_workers));
    }
    if (!options_.tenant_weights.empty()) {
      args.push_back("--tenant-weights=" + options_.tenant_weights);
    }
  }
  if (options_.stats_interval_s > 0) {
    args.push_back("--stats-interval=" +
                   std::to_string(options_.stats_interval_s));
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Internal(std::string("fork failed: ") +
                            std::strerror(errno));
  }
  if (pid == 0) {
    // Child: own stdout/stderr go to a per-shard log (test output stays
    // clean, the log stays available for post-mortems), then exec. Appending
    // keeps the pre-crash log across a restart — the interesting part.
    int log_fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(binary_.c_str(), argv.data());
    std::_Exit(127);  // exec failed
  }
  shards_[s].pid = pid;
  shards_[s].killed_deliberately = false;
  return Status::Ok();
}

Status LocalServerCluster::WaitForAccept(size_t s) {
  const std::string sock = SocketPath(s);
  const std::string log = LogPath(s);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.startup_timeout_ms);
  // Exponential backoff between probes: a healthy server accepts within
  // a millisecond or two, so start there and only back off (doubling,
  // capped) for the slow cases — instead of taxing EVERY launch a
  // fixed 10ms poll. Read the log tail BEFORE any teardown erases the dir.
  uint64_t backoff_ms = 1;
  for (;;) {
    if (CanConnect(sock)) return Status::Ok();
    int wstatus = 0;
    if (::waitpid(shards_[s].pid, &wstatus, WNOHANG) == shards_[s].pid) {
      shards_[s].pid = -1;  // already reaped
      std::string verdict = DescribeExit(wstatus);
      if (verdict.empty()) verdict = "exited";
      return Status::Unavailable("mlcask_server for shard " +
                                 std::to_string(s) + " " + verdict +
                                 " during startup" + LogTail(log));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          "shard " + std::to_string(s) + " did not accept on " + sock +
          " within " + std::to_string(options_.startup_timeout_ms) + "ms" +
          LogTail(log));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min<uint64_t>(backoff_ms * 2, 50);
  }
}

Status LocalServerCluster::Start(size_t shards, const Options& options) {
  if (shards == 0) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  if (!shards_.empty() || !dir_.empty()) {
    return Status::FailedPrecondition("cluster already started");
  }
  if (options.durable && options.backend != "forkbase") {
    return Status::InvalidArgument(
        "durable clusters require the forkbase backend");
  }
  options_ = options;
  binary_ = options.server_binary;
  if (binary_.empty()) {
    const char* env = std::getenv("MLCASK_SERVER_BIN");
    if (env != nullptr) binary_ = env;
  }
  if (binary_.empty() || ::access(binary_.c_str(), X_OK) != 0) {
    return Status::FailedPrecondition(
        "mlcask_server binary not found (set Options::server_binary or "
        "$MLCASK_SERVER_BIN); looked at '" +
        binary_ + "'");
  }

  char dir_template[] = "/tmp/mlcask-cluster-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    return Status::Internal(std::string("mkdtemp failed: ") +
                            std::strerror(errno));
  }
  dir_ = dir_template;

  shards_.resize(shards);
  for (size_t s = 0; s < shards; ++s) {
    Status spawned = SpawnShard(s);
    if (!spawned.ok()) {
      (void)Stop();
      return spawned;
    }
    endpoints_.push_back("unix:" + SocketPath(s));
  }

  // Wait until every shard accepts. A child dying early (exec failure, bind
  // error) is surfaced as its exit, not as a timeout. The timeout is PER
  // SERVER (as Options documents): each shard's clock starts when we begin
  // waiting on it, so a slow machine bringing up many shards doesn't starve
  // the last ones of their allowance.
  for (size_t s = 0; s < shards; ++s) {
    Status accepting = WaitForAccept(s);
    if (!accepting.ok()) {
      (void)Stop();
      return accepting;
    }
  }
  return Status::Ok();
}

StatusOr<std::string> LocalServerCluster::AddShard() {
  if (dir_.empty()) {
    return Status::FailedPrecondition("cluster not started");
  }
  const size_t s = shards_.size();
  shards_.push_back(Shard{});
  Status spawned = SpawnShard(s);
  if (!spawned.ok()) {
    shards_.pop_back();
    return spawned;
  }
  Status accepting = WaitForAccept(s);
  if (!accepting.ok()) {
    // Tear the half-born child down; the cluster is exactly as before.
    if (shards_[s].pid > 0) {
      ::kill(shards_[s].pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(shards_[s].pid, &wstatus, 0);
    }
    shards_.pop_back();
    return accepting;
  }
  endpoints_.push_back("unix:" + SocketPath(s));
  return endpoints_.back();
}

Status LocalServerCluster::DrainShard(size_t i) {
  if (i >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(i));
  }
  Shard& shard = shards_[i];
  if (shard.pid <= 0) {
    return Status::FailedPrecondition("shard " + std::to_string(i) +
                                      " is not running");
  }
  ::kill(shard.pid, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Status verdict = Status::Ok();
  for (;;) {
    int wstatus = 0;
    pid_t reaped = ::waitpid(shard.pid, &wstatus, WNOHANG);
    if (reaped == shard.pid) {
      const std::string how = DescribeExit(wstatus);
      if (!how.empty()) {
        verdict = Status::Internal("drained shard " + std::to_string(i) +
                                   " " + how + LogTail(LogPath(i)));
      }
      break;
    }
    if (reaped < 0 && errno == ECHILD) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(shard.pid, SIGKILL);
      ::waitpid(shard.pid, &wstatus, 0);
      verdict = Status::Internal(
          "shard " + std::to_string(i) +
          " did not exit within the SIGTERM grace period (hung; SIGKILLed)" +
          LogTail(LogPath(i)));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  shard.pid = -1;
  shard.killed_deliberately = true;  // a drain is never an anomaly
  // Nothing may dial the retired slot again; the log stays for post-mortems
  // until Stop() removes the whole root.
  ::unlink(SocketPath(i).c_str());
  return verdict;
}

Status LocalServerCluster::KillShard(size_t i) {
  if (i >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(i));
  }
  if (shards_[i].pid <= 0) {
    return Status::FailedPrecondition("shard " + std::to_string(i) +
                                      " is not running");
  }
  shards_[i].killed_deliberately = true;
  ::kill(shards_[i].pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(shards_[i].pid, &wstatus, 0);
  shards_[i].pid = -1;
  return Status::Ok();
}

Status LocalServerCluster::RestartShard(size_t i) {
  if (i >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(i));
  }
  if (shards_[i].pid > 0) {
    // Reap a shard that died on its own (e.g. an injected kill_after) so
    // the restart does not leak a zombie; a still-live shard is an error.
    int wstatus = 0;
    if (::waitpid(shards_[i].pid, &wstatus, WNOHANG) == shards_[i].pid) {
      shards_[i].pid = -1;
      shards_[i].killed_deliberately = true;  // restart absolves the crash
    } else {
      return Status::FailedPrecondition(
          "shard " + std::to_string(i) +
          " is still running; KillShard it first");
    }
  }
  MLCASK_RETURN_IF_ERROR(SpawnShard(i));
  return WaitForAccept(i);
}

Status LocalServerCluster::Stop() {
  Status verdict = Status::Ok();
  for (const Shard& shard : shards_) {
    if (shard.pid > 0) ::kill(shard.pid, SIGTERM);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    while (shard.pid > 0) {
      int wstatus = 0;
      pid_t reaped = ::waitpid(shard.pid, &wstatus, WNOHANG);
      if (reaped == shard.pid) {
        // The post-mortem: a child that exited non-zero or died on a
        // signal we did not send CRASHED, and the first crash becomes
        // Stop()'s verdict (with the log tail, read before the cleanup
        // below erases it).
        const std::string how = DescribeExit(wstatus);
        if (!how.empty() && !shard.killed_deliberately && verdict.ok()) {
          verdict = Status::Internal("shard " + std::to_string(s) + " " +
                                     how + LogTail(LogPath(s)));
        }
        shard.pid = -1;
        break;
      }
      if (reaped < 0 && errno == ECHILD) {
        shard.pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        // A shard ignoring SIGTERM past the grace period is a hang — the
        // exact failure mode the chaos suite exists to catch.
        ::kill(shard.pid, SIGKILL);
        ::waitpid(shard.pid, &wstatus, 0);
        if (verdict.ok()) {
          verdict = Status::Internal(
              "shard " + std::to_string(s) +
              " did not exit within the SIGTERM grace period (hung; "
              "SIGKILLed)" +
              LogTail(LogPath(s)));
        }
        shard.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  shards_.clear();
  if (!dir_.empty()) {
    // The whole temp root goes, not an enumerated file list: sockets, logs
    // and data dirs, but also anything a crashed child left behind (core
    // files, half-written artifacts). The old per-file unlink + ::rmdir
    // pair leaked the root forever on any unexpected file — rmdir fails
    // silently on a non-empty directory.
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    if (ec && verdict.ok()) {
      verdict = Status::Internal("cannot remove cluster temp dir '" + dir_ +
                                 "': " + ec.message());
    }
    dir_.clear();
  }
  endpoints_.clear();
  return verdict;
}

}  // namespace mlcask::storage
