#include "deploy.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "coord/serverd.h"

namespace perfbench {

using namespace weaver;

namespace {

/// Waits up to `timeout` for `pid` to exit, then SIGKILLs and reaps it.
void ReapChild(pid_t pid, std::chrono::milliseconds timeout) {
  const auto until = std::chrono::steady_clock::now() + timeout;
  int status = 0;
  while (std::chrono::steady_clock::now() < until) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
}

}  // namespace

Deployment::~Deployment() {
  if (db_ != nullptr) {
    db_->Shutdown();
    db_.reset();
  }
  // Children exit on their own once the parent's links close; anything
  // still up after that (a failed bootstrap) is killed.
  listener_.reset();
  for (pid_t pid : children_) ReapChild(pid, std::chrono::milliseconds(5000));
}

std::unique_ptr<Deployment> Deployment::InProcess(
    WeaverOptions options, const workload::GeneratedGraph& graph) {
  auto d = std::make_unique<Deployment>();
  options.start = false;
  std::uint64_t t0 = NowNs();
  d->db_ = Weaver::Open(options);
  if (d->db_ == nullptr) return nullptr;
  Weaver& db = *d->db_;
  for (NodeId v = 1; v <= graph.num_nodes; ++v) {
    if (!db.BulkCreateNode(v).ok()) return nullptr;
  }
  for (const auto& [src, dst] : graph.edges) {
    if (!db.BulkCreateEdge(src, dst).ok()) return nullptr;
  }
  if (!db.FinishBulkLoad().ok()) return nullptr;
  d->times.load_s = SecondsSince(t0);
  t0 = NowNs();
  db.Start();
  d->times.start_s = SecondsSince(t0);
  return d;
}

std::unique_ptr<Deployment> Deployment::Exec(const std::string& serverd_bin,
                                             const std::string& oracle_dir,
                                             WeaverOptions options) {
  auto d = std::make_unique<Deployment>();
  const std::uint64_t t0 = NowNs();
  const std::string token = "perfbench";
  cluster::ClusterListener::Options lo;
  lo.token = token;
  auto listener = cluster::ClusterListener::Open(lo);
  if (!listener.ok()) {
    std::fprintf(stderr, "exec: listener: %s\n",
                 listener.status().ToString().c_str());
    return nullptr;
  }
  d->listener_ = std::move(*listener);
  cluster::ClusterListener& l = *d->listener_;

  // The assignment is the children's whole configuration: it mirrors the
  // parent's options so both sides agree on layout and timers.
  serverd::ShardServerOptions so;
  so.num_shards = options.num_shards;
  so.num_gatekeepers = options.num_gatekeepers;
  so.remote_oracle = true;
  so.oracle_data_dir = oracle_dir;
  so.remote_gatekeepers = true;
  so.tau_micros = options.tau_micros;
  so.nop_period_micros = options.nop_period_micros;
  const RoleAssignMessage assign = serverd::AssignmentFromOptions(so);

  struct Want {
    NodeRole role;
    std::uint32_t id;
  };
  std::vector<Want> wants;
  for (std::uint32_t s = 0; s < options.num_shards; ++s) {
    wants.push_back({NodeRole::kShard, s});
  }
  for (std::uint32_t g = 0; g < options.num_gatekeepers; ++g) {
    wants.push_back({NodeRole::kGatekeeper, g});
  }
  wants.push_back({NodeRole::kOracle, 0});
  for (const Want& w : wants) {
    if (!l.OpenSlot(w.role, w.id, assign).ok()) return nullptr;
  }
  for (const Want& w : wants) {
    auto pid = cluster::SpawnServerd(serverd_bin, l.port(), token, w.role, w.id);
    if (!pid.ok()) {
      std::fprintf(stderr, "exec: spawn: %s\n",
                   pid.status().ToString().c_str());
      return nullptr;
    }
    d->children_.push_back(*pid);
  }

  std::vector<int> shard_fds(options.num_shards, -1);
  std::vector<int> gk_fds(options.num_gatekeepers, -1);
  int oracle_fd = -1;
  pid_t oracle_pid = -1;
  for (std::size_t i = 0; i < wants.size(); ++i) {
    auto joined = l.AcceptJoin();
    if (!joined.ok()) {
      std::fprintf(stderr, "exec: join: %s\n",
                   joined.status().ToString().c_str());
      return nullptr;
    }
    switch (joined->role) {
      case NodeRole::kShard:
        shard_fds[joined->shard_id] = joined->fd;
        break;
      case NodeRole::kGatekeeper:
        gk_fds[joined->shard_id] = joined->fd;
        break;
      case NodeRole::kOracle:
        oracle_fd = joined->fd;
        oracle_pid = static_cast<pid_t>(joined->pid);
        break;
      case NodeRole::kSpare:
        std::fprintf(stderr, "exec: unexpected spare join\n");
        return nullptr;
    }
  }

  options.start = true;
  options.remote_shard_fds = shard_fds;
  options.remote_gatekeeper_fds = gk_fds;
  options.oracle_service.enabled = true;
  options.oracle_service.pid = oracle_pid;
  options.oracle_service.fd = oracle_fd;
  d->db_ = Weaver::Open(options);
  if (d->db_ == nullptr) return nullptr;
  d->times.start_s = SecondsSince(t0);
  return d;
}

}  // namespace perfbench
