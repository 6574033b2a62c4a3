// Deployments the workloads run against: an in-process Weaver on a
// bulk-loaded graph, or a cluster of exec'd weaver-serverd processes
// (2 shards, 2 gatekeepers, the oracle service) joined over loopback TCP
// through ClusterListener. Both record their set-up stages.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/bootstrap.h"
#include "core/weaver.h"
#include "workload/social_graph.h"

namespace perfbench {

struct SetupTimes {
  double generate_s = 0;
  double load_s = 0;
  double start_s = 0;
  double total() const { return generate_s + load_s + start_s; }
};

class Deployment {
 public:
  Deployment() = default;
  ~Deployment();  // shuts the deployment down and reaps its children
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  weaver::Weaver& db() { return *db_; }
  /// The exec'd server processes (empty for in-process deployments).
  const std::vector<pid_t>& children() const { return children_; }
  SetupTimes times;

  /// Opens `options` (start must be false), bulk loads `graph` and
  /// starts it. load_s covers the bulk load, start_s the Start() call.
  static std::unique_ptr<Deployment> InProcess(
      weaver::WeaverOptions options, const weaver::workload::GeneratedGraph& graph);

  /// Bootstraps exec'd servers for `options` (num_shards shards,
  /// num_gatekeepers gatekeepers and the oracle service) through a TCP
  /// cluster listener, then opens the parent deployment over the joined
  /// sockets. start_s covers spawn + handshake + open; nullptr on failure
  /// (reason on stderr). The oracle's changelog lives under `oracle_dir`.
  static std::unique_ptr<Deployment> Exec(const std::string& serverd_bin,
                                          const std::string& oracle_dir,
                                          weaver::WeaverOptions options);

 private:
  std::unique_ptr<weaver::cluster::ClusterListener> listener_;
  std::unique_ptr<weaver::Weaver> db_;
  std::vector<pid_t> children_;
};

}  // namespace perfbench
