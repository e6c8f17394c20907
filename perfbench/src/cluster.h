// Launches and reaps the mlcask_server processes one benchmark run talks to.
//
// Sockets and logs live in the current working directory under short
// relative names (the benchmark chdirs into its run directory first), so
// nothing is written outside the run directory and Unix socket paths stay
// far below the 108-byte limit however deep the checkout is.

#ifndef PERFBENCH_CLUSTER_H_
#define PERFBENCH_CLUSTER_H_

#include <string>
#include <sys/types.h>
#include <vector>

#include "common/status.h"

namespace perfbench {

class ServerGroup {
 public:
  struct Options {
    size_t servers = 1;
    /// Host the merge service on each server (--serve-merge).
    bool serve_merge = false;
    size_t merge_workers = 0;  ///< --merge-workers (0 = server default).
  };

  ServerGroup() = default;
  ~ServerGroup();  ///< Stops any server still running.
  ServerGroup(const ServerGroup&) = delete;
  ServerGroup& operator=(const ServerGroup&) = delete;

  /// Spawns the servers and waits until every socket accepts. On failure
  /// every spawned child is reaped before the error returns.
  mlcask::Status Start(const Options& options);

  /// `unix:` endpoint specs in server order.
  const std::vector<std::string>& endpoints() const { return endpoints_; }

  /// SIGTERMs and reaps every server (SIGKILL after a grace period) and
  /// removes its socket and log. Reports a server that did not exit cleanly.
  mlcask::Status Stop();

 private:
  std::vector<pid_t> pids_;
  std::vector<std::string> sockets_;
  std::vector<std::string> logs_;
  std::vector<std::string> endpoints_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLUSTER_H_
