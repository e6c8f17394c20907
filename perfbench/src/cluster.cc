#include "cluster.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_group_seq{0};

bool CanConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

/// Waits up to `grace` for `pid` to exit; true when it was reaped.
bool ReapWithin(pid_t pid, std::chrono::milliseconds grace, int* status) {
  const auto deadline = std::chrono::steady_clock::now() + grace;
  while (true) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

ServerGroup::~ServerGroup() { (void)Stop(); }

mlcask::Status ServerGroup::Start(const Options& options) {
  if (!pids_.empty()) {
    return mlcask::Status::FailedPrecondition("server group already started");
  }
  const std::string tag = "g" + std::to_string(g_group_seq.fetch_add(1));
  for (size_t i = 0; i < options.servers; ++i) {
    const std::string socket = tag + "s" + std::to_string(i) + ".sock";
    const std::string log = tag + "s" + std::to_string(i) + ".log";
    ::unlink(socket.c_str());
    std::vector<std::string> args = {PERFBENCH_SERVER_BIN, "--endpoint",
                                     "unix:" + socket};
    if (options.serve_merge) {
      args.push_back("--serve-merge");
      if (options.merge_workers > 0) {
        args.push_back("--merge-workers");
        args.push_back(std::to_string(options.merge_workers));
      }
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      (void)Stop();
      return mlcask::Status::Internal(std::string("fork failed: ") +
                                      std::strerror(errno));
    }
    if (pid == 0) {
      // Child: die with the benchmark, log to a file, become the server.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pids_.push_back(pid);
    sockets_.push_back(socket);
    logs_.push_back(log);
    endpoints_.push_back("unix:" + socket);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (size_t i = 0; i < pids_.size(); ++i) {
    while (!CanConnect(sockets_[i])) {
      int status = 0;
      if (::waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
        pids_[i] = -1;
        (void)Stop();
        return mlcask::Status::Unavailable("mlcask_server " +
                                           std::to_string(i) +
                                           " exited during start-up");
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        (void)Stop();
        return mlcask::Status::DeadlineExceeded(
            "mlcask_server did not accept within 20s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  return mlcask::Status::Ok();
}

mlcask::Status ServerGroup::Stop() {
  mlcask::Status verdict = mlcask::Status::Ok();
  for (pid_t pid : pids_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  for (size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] <= 0) continue;
    int status = 0;
    if (!ReapWithin(pids_[i], std::chrono::seconds(10), &status)) {
      ::kill(pids_[i], SIGKILL);
      ::waitpid(pids_[i], &status, 0);
      verdict = mlcask::Status::Internal("mlcask_server " + std::to_string(i) +
                                         " ignored SIGTERM");
    } else if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0) &&
               !(WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM) &&
               verdict.ok()) {
      verdict = mlcask::Status::Internal("mlcask_server " + std::to_string(i) +
                                         " exited abnormally; see " + logs_[i]);
      continue;  // keep the log for the post-mortem
    }
    ::unlink(logs_[i].c_str());
  }
  for (const std::string& socket : sockets_) ::unlink(socket.c_str());
  pids_.clear();
  sockets_.clear();
  logs_.clear();
  endpoints_.clear();
  return verdict;
}

}  // namespace perfbench
