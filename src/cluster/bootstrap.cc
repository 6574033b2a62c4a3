#include "cluster/bootstrap.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "core/message_codec.h"
#include "core/weaver.h"
#include "net/transport.h"
#include "net/wire.h"

namespace weaver {
namespace cluster {

namespace {

std::uint64_t NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::pair<std::uint8_t, std::uint32_t> SlotKey(NodeRole role,
                                               std::uint32_t shard_id) {
  return {static_cast<std::uint8_t>(role), shard_id};
}

}  // namespace

Result<std::unique_ptr<ClusterListener>> ClusterListener::Open(
    Options options) {
  auto listener =
      std::unique_ptr<ClusterListener>(new ClusterListener(options));
  auto fd = SocketTransport::ListenLoopback(options.port);
  if (!fd.ok()) return fd.status();
  listener->listen_fd_ = *fd;
  auto port = SocketTransport::ListenPort(*fd);
  if (!port.ok()) {
    ::close(*fd);
    return port.status();
  }
  listener->port_ = *port;
  {
    MutexLock lk(listener->mu_);
    listener->cluster_epoch_ = options.cluster_epoch;
  }
  return listener;
}

ClusterListener::~ClusterListener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ClusterListener::set_cluster_epoch(std::uint32_t epoch) {
  MutexLock lk(mu_);
  cluster_epoch_ = epoch;
}

Status ClusterListener::OpenSlot(NodeRole role, std::uint32_t shard_id,
                                 RoleAssignMessage assignment) {
  MutexLock lk(mu_);
  auto [it, inserted] = slots_.try_emplace(SlotKey(role, shard_id));
  if (!inserted) {
    return Status::FailedPrecondition(
        std::string("slot already ") + (it->second.live ? "live" : "open") +
        ": " + RoleName(role) + "/" + std::to_string(shard_id));
  }
  it->second.assignment = std::move(assignment);
  it->second.assignment.role = role;
  it->second.assignment.shard_id = shard_id;
  return Status::Ok();
}

void ClusterListener::ReleaseRole(NodeRole role, std::uint32_t shard_id) {
  MutexLock lk(mu_);
  slots_.erase(SlotKey(role, shard_id));
}

ClusterListener::Stats ClusterListener::stats() const {
  MutexLock lk(mu_);
  return stats_;
}

bool ClusterListener::HandshakeOne(int fd, JoinedProcess* out) {
  JoinRequestMessage request;
  {
    std::uint32_t tag = 0;
    std::string payload;
    Status st = ReadHandshakeFrame(fd, &tag, &payload,
                                   options_.handshake_timeout_micros);
    if (st.ok() && tag != kMsgJoinRequest) {
      st = Status::InvalidArgument("first handshake frame is not a join");
    }
    if (st.ok()) {
      wire::Reader r(payload);
      st = Decode(&r, &request);
    }
    if (!st.ok()) {
      // Disconnects, timeouts, and garbage all land here: count, close,
      // keep no state -- the slot (if the peer wanted one) stays open.
      MutexLock lk(mu_);
      stats_.handshake_failures++;
      ::close(fd);
      return false;
    }
  }

  // Validate against the registry. The refusal (if any) is decided under
  // the lock; the ack IO happens after it is dropped.
  Status verdict = Status::Ok();
  std::uint32_t epoch_now = 0;
  RoleAssignMessage assignment;
  {
    MutexLock lk(mu_);
    epoch_now = cluster_epoch_;
    if (request.codec_version != kWireCodecVersion) {
      stats_.rejected_version++;
      verdict = Status::InvalidArgument(
          "codec version mismatch: joiner speaks v" +
          std::to_string(request.codec_version) + ", cluster speaks v" +
          std::to_string(kWireCodecVersion));
    } else if (!options_.token.empty() && request.token != options_.token) {
      stats_.rejected_token++;
      verdict = Status::Aborted("join token mismatch");
    } else if (request.cluster_epoch != 0 &&
               request.cluster_epoch != cluster_epoch_) {
      stats_.rejected_epoch++;
      verdict = Status::FailedPrecondition(
          "stale cluster epoch: joiner expects " +
          std::to_string(request.cluster_epoch) + ", cluster is at " +
          std::to_string(cluster_epoch_));
    } else {
      auto it = slots_.end();
      if (request.shard_id == kAnyShard) {
        // Wildcard: any open slot of the requested role.
        for (auto cand = slots_.begin(); cand != slots_.end(); ++cand) {
          if (cand->first.first ==
                  static_cast<std::uint8_t>(request.role) &&
              !cand->second.live) {
            it = cand;
            break;
          }
        }
        if (it == slots_.end()) {
          stats_.rejected_no_slot++;
          verdict = Status::NotFound(
              std::string("no open ") + RoleName(request.role) + " slot");
        }
      } else {
        it = slots_.find(SlotKey(request.role, request.shard_id));
        if (it == slots_.end()) {
          stats_.rejected_no_slot++;
          verdict = Status::NotFound(
              std::string("no such slot: ") + RoleName(request.role) + "/" +
              std::to_string(request.shard_id));
        } else if (it->second.live) {
          stats_.rejected_duplicate++;
          verdict = Status::AlreadyExists(
              std::string("duplicate join: ") + RoleName(request.role) +
              "/" + std::to_string(request.shard_id) + " is already live");
        }
      }
      if (verdict.ok()) {
        assignment = it->second.assignment;
        assignment.cluster_epoch = cluster_epoch_;
        // NOT marked live yet: the joiner still has to survive the ack +
        // assign sends. Liveness is committed only on full success, so a
        // peer that vanishes mid-handshake leaves the slot open.
      }
    }
  }

  JoinAckMessage ack;
  ack.status = verdict;
  ack.cluster_epoch = epoch_now;
  if (!verdict.ok()) {
    (void)SendJoinAck(fd, ack);  // best effort: the peer may already be gone
    ::close(fd);
    return false;
  }
  Status io = SendJoinAck(fd, ack);
  if (io.ok()) io = SendRoleAssign(fd, assignment);
  if (!io.ok()) {
    MutexLock lk(mu_);
    stats_.handshake_failures++;
    ::close(fd);
    return false;
  }
  {
    MutexLock lk(mu_);
    auto it = slots_.find(SlotKey(assignment.role, assignment.shard_id));
    if (it == slots_.end() || it->second.live) {
      // The slot raced away (released or filled concurrently) while the
      // ack was in flight. Extremely narrow; refuse late by closing.
      stats_.handshake_failures++;
      ::close(fd);
      return false;
    }
    it->second.live = true;
    stats_.accepted++;
  }
  out->fd = fd;
  out->pid = request.pid;
  out->role = assignment.role;
  out->shard_id = assignment.shard_id;
  return true;
}

Result<JoinedProcess> ClusterListener::AcceptJoin() {
  const std::uint64_t deadline = NowMicros() + options_.accept_timeout_micros;
  while (true) {
    const std::uint64_t now = NowMicros();
    if (now >= deadline) {
      return Status::DeadlineExceeded("no valid joiner before the deadline");
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int timeout_ms = static_cast<int>((deadline - now + 999) / 1000);
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("poll: ") +
                                 std::strerror(errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded("no valid joiner before the deadline");
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("accept: ") +
                                 std::strerror(errno));
    }
    // The accepted fd becomes the peer's wire link: small request/reply
    // frames must not sit out Nagle's delay waiting for the peer's ACK
    // (the joiner sets the same option on its end).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    JoinedProcess joined;
    if (HandshakeOne(fd, &joined)) return joined;
    // Refused/failed: loop for the next connection until the deadline.
  }
}

Result<pid_t> SpawnServerd(const std::string& binary, std::uint16_t port,
                           const std::string& token, NodeRole role,
                           std::uint32_t shard_id) {
  // Everything heap-allocating happens BEFORE fork: between fork and exec
  // only async-signal-safe calls are legal in a multithreaded parent.
  const std::string join_arg = "--join=127.0.0.1:" + std::to_string(port);
  const std::string token_arg = "--token=" + token;
  const std::string role_arg = std::string("--role=") + RoleName(role);
  const std::string shard_arg = "--shard=" + std::to_string(shard_id);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  argv.push_back(const_cast<char*>(join_arg.c_str()));
  argv.push_back(const_cast<char*>(token_arg.c_str()));
  argv.push_back(const_cast<char*>(role_arg.c_str()));
  argv.push_back(const_cast<char*>(shard_arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Unavailable(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: drop every inherited descriptor above stderr, then exec.
    // The serverd connects its own socket after exec -- "no inherited
    // fds" is the whole point of the exec path.
    const long max_fd = ::sysconf(_SC_OPEN_MAX);
    const int limit =
        max_fd > 0 ? static_cast<int>(max_fd) : 4096;  // conservative
    for (int fd = 3; fd < limit; ++fd) ::close(fd);
    ::execv(binary.c_str(), argv.data());
    // exec failed: nothing sane to do but exit hard (stdio may be shared
    // with the parent, so keep it to one write).
    const char msg[] = "weaver: execv(weaver-serverd) failed\n";
    ssize_t ignored = ::write(2, msg, sizeof(msg) - 1);
    (void)ignored;
    ::_exit(127);
  }
  return pid;
}

struct LaunchedServers::Shared {
  std::unique_ptr<ClusterListener> listener;
  RoleAssignMessage assign;
  std::string binary;
  std::string token;
  mutable Mutex mu;
  std::vector<pid_t> pids GUARDED_BY(mu);

  /// Execs one serverd for (role, id) and records it in the ledger.
  Result<pid_t> Spawn(NodeRole role, std::uint32_t id) {
    auto pid = SpawnServerd(binary, listener->port(), token, role, id);
    if (pid.ok()) {
      MutexLock lk(mu);
      pids.push_back(*pid);
    }
    return pid;
  }

  /// The respawn hook's body (serverd::RespawnFn).
  Result<serverd::ShardProcess> Respawn(NodeRole role, std::uint32_t id,
                                        bool rehydrate, std::uint32_t epoch) {
    listener->ReleaseRole(role, id);
    listener->set_cluster_epoch(epoch);
    RoleAssignMessage a = assign;
    a.rehydrate = rehydrate;
    WEAVER_RETURN_IF_ERROR(listener->OpenSlot(role, id, std::move(a)));
    WEAVER_ASSIGN_OR_RETURN(const pid_t pid, Spawn(role, id));
    auto joined = listener->AcceptJoin();
    if (!joined.ok()) {
      ::kill(pid, SIGKILL);  // never joined; Wait() reaps it
      return joined.status();
    }
    return serverd::ShardProcess{pid, joined->fd};
  }

  /// Failed launch: nothing spawned may outlive it.
  void KillAll() {
    MutexLock lk(mu);
    for (const pid_t pid : pids) {
      ::kill(pid, SIGKILL);
      (void)::waitpid(pid, nullptr, 0);
    }
    pids.clear();
  }
};

void LaunchedServers::Configure(WeaverOptions* options) const {
  options->remote_shard_fds = shard_fds;
  options->remote_gatekeeper_fds = gatekeeper_fds;
  options->oracle_service.enabled = oracle_fd >= 0;
  options->oracle_service.fd = oracle_fd;
  options->oracle_service.pid = oracle_pid;
  options->supervision.shard_pids = shard_pids;
  options->supervision.gatekeeper_pids = gatekeeper_pids;
  options->supervision.exec_respawn = respawn;
}

Status LaunchedServers::Wait() const {
  std::vector<pid_t> pids;
  {
    MutexLock lk(shared->mu);
    pids = shared->pids;
  }
  Status result = Status::Ok();
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) {
      // ECHILD: the supervisor reaped this pid when it fenced the process.
      if (errno == ECHILD) continue;
      result = Status::Internal(std::string("waitpid: ") +
                                std::strerror(errno));
      continue;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      result = Status::Internal("serverd pid " + std::to_string(pid) +
                                " exited abnormally (status " +
                                std::to_string(status) + ")");
    }
  }
  return result;
}

Result<LaunchedServers> LaunchServers(const serverd::ShardServerOptions& options,
                                      const std::string& serverd_binary,
                                      const std::string& token) {
  auto shared = std::make_shared<LaunchedServers::Shared>();
  ClusterListener::Options lo;
  lo.token = token;
  WEAVER_ASSIGN_OR_RETURN(shared->listener, ClusterListener::Open(lo));
  shared->assign = serverd::AssignmentFromOptions(options);
  shared->binary = serverd_binary;
  shared->token = token;

  std::vector<std::pair<NodeRole, std::uint32_t>> roles;
  for (std::uint32_t s = 0; s < options.num_shards; ++s) {
    roles.emplace_back(NodeRole::kShard, s);
  }
  if (options.remote_gatekeepers) {
    for (std::uint32_t g = 0; g < options.num_gatekeepers; ++g) {
      roles.emplace_back(NodeRole::kGatekeeper, g);
    }
  }
  if (options.remote_oracle) roles.emplace_back(NodeRole::kOracle, 0);

  LaunchedServers out;
  out.shard_fds.assign(options.num_shards, -1);
  out.shard_pids.assign(options.num_shards, -1);
  if (options.remote_gatekeepers) {
    out.gatekeeper_fds.assign(options.num_gatekeepers, -1);
    out.gatekeeper_pids.assign(options.num_gatekeepers, -1);
  }
  const auto launch = [&]() -> Status {
    for (const auto& [role, id] : roles) {
      WEAVER_RETURN_IF_ERROR(
          shared->listener->OpenSlot(role, id, shared->assign));
    }
    for (const auto& [role, id] : roles) {
      WEAVER_RETURN_IF_ERROR(shared->Spawn(role, id).status());
    }
    // Joins arrive in whatever order the children dial in.
    for (std::size_t i = 0; i < roles.size(); ++i) {
      WEAVER_ASSIGN_OR_RETURN(const JoinedProcess joined,
                              shared->listener->AcceptJoin());
      const pid_t pid = static_cast<pid_t>(joined.pid);
      switch (joined.role) {
        case NodeRole::kShard:
          out.shard_fds[joined.shard_id] = joined.fd;
          out.shard_pids[joined.shard_id] = pid;
          break;
        case NodeRole::kGatekeeper:
          out.gatekeeper_fds[joined.shard_id] = joined.fd;
          out.gatekeeper_pids[joined.shard_id] = pid;
          break;
        case NodeRole::kOracle:
          out.oracle_fd = joined.fd;
          out.oracle_pid = pid;
          break;
        case NodeRole::kSpare:
          return Status::Internal("a spare joined; no spare slot was open");
      }
    }
    return Status::Ok();
  };
  const Status launched = launch();
  if (!launched.ok()) {
    shared->KillAll();
    for (const int fd : out.shard_fds) {
      if (fd >= 0) ::close(fd);
    }
    for (const int fd : out.gatekeeper_fds) {
      if (fd >= 0) ::close(fd);
    }
    if (out.oracle_fd >= 0) ::close(out.oracle_fd);
    return launched;
  }
  out.respawn = [shared](NodeRole role, std::uint32_t id, bool rehydrate,
                         std::uint32_t epoch) {
    return shared->Respawn(role, id, rehydrate, epoch);
  };
  out.shared = std::move(shared);
  return out;
}

}  // namespace cluster
}  // namespace weaver
