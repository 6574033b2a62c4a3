// Cluster bootstrap: the coordinator-side TCP listener that admits
// standalone weaver-serverd processes into a deployment, plus the
// fork+exec spawner that launches them
// (docs/transport.md#cluster-bootstrap).
//
// The coordinator opens slots -- (role, shard id) pairs it wants filled,
// each carrying the RoleAssign configuration the joiner will receive --
// and then accepts joins. Every inbound connection runs the versioned
// handshake (cluster/handshake.h) against the slot registry:
//
//   * codec-version mismatch        -> refused, InvalidArgument
//   * wrong join token              -> refused, Aborted
//   * stale expected epoch          -> refused (fenced), FailedPrecondition
//   * slot already live (dup shard) -> refused, AlreadyExists
//   * no such open slot             -> refused, NotFound
//
// A refused or half-finished joiner is closed and the accept loop
// continues; no listener state outlives the connection (a mid-handshake
// disconnect leaves the slot open for the next attempt). An accepted
// joiner's socket is returned raw, ready for SocketTransport::Adopt on
// the bus -- the listener never owns live-cluster traffic.
//
// This is the only way a multi-process deployment starts or respawns a
// server. An exec'd serverd inherits NOTHING: SpawnServerd closes every
// descriptor above stderr between fork and exec, and the child connects
// its own socket after exec. That is what lets the supervisor respawn a
// crashed process on demand from a threaded parent, and what lets an
// operator start servers from a shell. LaunchServers wraps the whole
// sequence (listener, slots, spawn, join, respawn hook) for a parent that
// runs its own Weaver over the joined sockets.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "cluster/handshake.h"
#include "common/annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "coord/serverd.h"
#include "core/messages.h"

namespace weaver {

struct WeaverOptions;

namespace cluster {

/// One admitted process: the connected socket (caller owns the fd) and
/// what the handshake established about the peer.
struct JoinedProcess {
  int fd = -1;
  std::uint64_t pid = 0;
  NodeRole role = NodeRole::kSpare;
  std::uint32_t shard_id = 0;
};

class ClusterListener {
 public:
  struct Options {
    /// 0 = pick any free loopback port (read it back via port()).
    std::uint16_t port = 0;
    /// Shared secret joiners must echo. Empty = any token accepted.
    std::string token;
    /// Epoch advertised in acks and used to fence stale joiners.
    std::uint32_t cluster_epoch = 1;
    /// Per-frame deadline inside one connection's handshake.
    std::uint64_t handshake_timeout_micros = 2'000'000;
    /// How long one AcceptJoin() call waits for a valid joiner.
    std::uint64_t accept_timeout_micros = 30'000'000;
  };

  /// Counters over the listener's lifetime (test + log visibility).
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_version = 0;
    std::uint64_t rejected_token = 0;
    std::uint64_t rejected_epoch = 0;
    std::uint64_t rejected_duplicate = 0;
    std::uint64_t rejected_no_slot = 0;
    std::uint64_t handshake_failures = 0;  // disconnects, timeouts, garbage
  };

  static Result<std::unique_ptr<ClusterListener>> Open(Options options);
  ~ClusterListener();
  ClusterListener(const ClusterListener&) = delete;
  ClusterListener& operator=(const ClusterListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Keeps the advertised/fencing epoch current as recoveries bump it.
  void set_cluster_epoch(std::uint32_t epoch);

  /// Opens a slot: a joiner asking for (role, shard_id) -- or wildcarding
  /// the shard id within the role -- will be admitted and sent
  /// `assignment` (its role/shard_id/cluster_epoch fields are stamped at
  /// accept time). FailedPrecondition if the slot is open or live.
  Status OpenSlot(NodeRole role, std::uint32_t shard_id,
                  RoleAssignMessage assignment);

  /// Accepts connections until one passes the handshake for an open slot,
  /// then marks that slot live and returns the socket. Refused joiners
  /// are answered + closed and the loop continues. DeadlineExceeded when
  /// accept_timeout_micros elapses with no valid joiner.
  Result<JoinedProcess> AcceptJoin();

  /// Marks a live slot dead (the process was fenced/killed); the slot is
  /// removed entirely -- re-open it with OpenSlot before respawning.
  void ReleaseRole(NodeRole role, std::uint32_t shard_id);

  Stats stats() const;

 private:
  explicit ClusterListener(Options options) : options_(std::move(options)) {}

  struct Slot {
    bool live = false;
    RoleAssignMessage assignment;
  };

  /// Runs the handshake on one accepted connection. Returns true when a
  /// slot was filled (out filled in); false = refused/failed, fd closed,
  /// caller keeps accepting.
  bool HandshakeOne(int fd, JoinedProcess* out);

  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  mutable Mutex mu_;
  std::uint32_t cluster_epoch_ GUARDED_BY(mu_) = 1;
  std::map<std::pair<std::uint8_t, std::uint32_t>, Slot> slots_
      GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

/// fork+execs `binary --join=127.0.0.1:<port> --token=<token>
/// --role=<role> --shard=<shard_id>`; every fd above stderr is closed in
/// the child before exec, so the serverd starts with no inherited
/// descriptors. Only async-signal-safe calls run between fork and exec.
Result<pid_t> SpawnServerd(const std::string& binary, std::uint16_t port,
                           const std::string& token, NodeRole role,
                           std::uint32_t shard_id);

/// The exec'd servers of one deployment, joined and ready for the parent
/// Weaver. Index the vectors by shard / gatekeeper id.
struct LaunchedServers {
  std::vector<int> shard_fds;
  std::vector<pid_t> shard_pids;
  /// Empty unless the options asked for remote_gatekeepers.
  std::vector<int> gatekeeper_fds;
  std::vector<pid_t> gatekeeper_pids;
  /// -1 unless the options asked for remote_oracle.
  int oracle_fd = -1;
  pid_t oracle_pid = -1;
  /// ShardSupervisionOptions::exec_respawn for this deployment: releases
  /// the dead role's slot, re-opens it at the bumped epoch, execs a fresh
  /// serverd, and accepts its join.
  serverd::RespawnFn respawn;

  /// Points `options` at these servers: remote shard and gatekeeper fds,
  /// the oracle service, the supervision pids, and exec_respawn. Whether
  /// supervision runs stays the caller's choice.
  void Configure(WeaverOptions* options) const;

  /// Reaps every process launched so far, respawns included; call after
  /// the parent Weaver shut down. Processes the supervisor already reaped
  /// are skipped. Non-OK when any exited abnormally or non-zero.
  Status Wait() const;

  /// The listener, the assignment image, and the pid ledger, shared with
  /// `respawn` so the hook outlives this struct.
  struct Shared;
  std::shared_ptr<Shared> shared;
};

/// Starts the servers `options` describes -- every shard, plus the oracle
/// service with remote_oracle and every gatekeeper with
/// remote_gatekeepers -- by exec'ing `serverd_binary` against a fresh
/// loopback listener that admits `token`, and accepts their joins. The
/// options are the children's whole configuration, so their timers must
/// mirror the parent's WeaverOptions. On failure every process already
/// spawned is killed and reaped.
Result<LaunchedServers> LaunchServers(const serverd::ShardServerOptions& options,
                                      const std::string& serverd_binary,
                                      const std::string& token);

}  // namespace cluster
}  // namespace weaver
