// weaver-serverd: the server side of a multi-process deployment
// (docs/transport.md#multi-process).
//
// The paper's deployment runs shard servers as separate processes; this
// module is what such a process runs. The PARENT process runs the backing
// store, the program coordinator, and the clients (a Weaver opened with
// WeaverOptions::remote_shard_fds), and by default the gatekeeper bank;
// each CHILD process is an exec'd weaver-serverd binary
// (tools/weaver_serverd.cc) that joined the parent's cluster listener
// (cluster/bootstrap.h) and runs one standalone shard server
// (RunShardServer), the timeline-oracle service (RunOracleServer), or one
// out-of-parent gatekeeper (RunGatekeeperServer) over that socket. All
// inter-process traffic is wire frames (net/wire.h) carrying the schemas
// of core/messages.h; the parent doubles as a hub that forwards
// shard-to-shard hop batches between children without decoding them.
//
// The two sides never exchange configuration beyond the join handshake's
// RoleAssign: they agree on the ENDPOINT LAYOUT below, computed from
// (num_shards, num_gatekeepers) alone. It mirrors Weaver's construction
// order exactly --
//
//     ids 0..S-1                 shard servers
//     ids S+2g, S+2g+1           gatekeeper g (server, client ingress)
//     id  S+2G                   program coordinator
//
// -- and, when the deployment runs the standalone timeline-oracle
// service (docs/oracle_service.md):
//
//     id  S+2G+1                 weaver-oracled
//     ids S+2G+2+p               shard p's oracle-client reply endpoint
//     id  S+2G+2+S               the parent's oracle-client reply endpoint
//
// -- and, when gatekeepers run out-of-parent as their own processes
// (docs/transport.md#cluster-bootstrap), after everything above:
//
//     ids base+g                 gatekeeper g's parent-side agent
//                                (StoreCommit / GkProgramStart handler)
//     ids base+G+g               gatekeeper g's child-side control
//                                (StoreCommitReply, program replies,
//                                 GkEpochAdvance)
//
// where base is one past the last id of the preceding blocks.
//
// -- so a frame's destination id means the same thing in every process.
// A child registers its own shard at its id and a remote proxy (over its
// single parent link) at every other id it can address.
//
// Shard-local state in a child: its own timeline-oracle view (an
// OracleClient -- authoritative passthrough without the service, a
// replica + RPC path with it), the standard program registry, and a
// hash-fallback NodeLocator -- which is why remote deployments require
// hash placement.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "core/messages.h"
#include "net/bus.h"
#include "storage/storage_options.h"

namespace weaver {
namespace serverd {

/// The endpoint-id contract between the parent deployment and the shard
/// server processes.
struct EndpointLayout {
  std::vector<EndpointId> shards;
  std::vector<EndpointId> gatekeepers;
  std::vector<EndpointId> gatekeeper_clients;
  EndpointId coordinator = 0;

  /// Oracle-service endpoints; meaningful only when with_oracle.
  bool with_oracle = false;
  EndpointId oracle = 0;
  /// oracle_clients[p]: shard p's reply endpoint for OracleReply frames.
  std::vector<EndpointId> oracle_clients;
  /// The parent process's own reply endpoint (GC collect RPCs).
  EndpointId parent_oracle_client = 0;

  /// Out-of-parent gatekeeper endpoints; meaningful only when
  /// with_remote_gatekeepers.
  bool with_remote_gatekeepers = false;
  /// gk_agents[g]: the parent-side agent that applies gatekeeper g's
  /// commits to the backing store and seeds its node programs.
  std::vector<EndpointId> gk_agents;
  /// gk_controls[g]: gatekeeper g's child-side control endpoint (agent
  /// replies, epoch advances).
  std::vector<EndpointId> gk_controls;

  static EndpointLayout Compute(std::size_t num_shards,
                                std::size_t num_gatekeepers,
                                bool with_oracle = false,
                                bool with_remote_gatekeepers = false);
  /// Highest id a child must be able to address.
  EndpointId max_endpoint() const {
    if (with_remote_gatekeepers) return gk_controls.back();
    return with_oracle ? parent_oracle_client : coordinator;
  }
};

/// Shard-server knobs a child shares with the parent deployment.
struct ShardServerOptions {
  std::size_t num_shards = 2;
  std::size_t num_gatekeepers = 2;
  std::size_t inbox_capacity = 8192;
  std::size_t queue_high_water = 4096;
  std::size_t max_hops_per_cycle = 2048;

  /// Run the deployment against a standalone weaver-oracled process
  /// (docs/oracle_service.md). Shards then resolve concurrent pairs
  /// through an OracleClient RPC path instead of a process-local
  /// authoritative replica, and the endpoint layout grows the oracle ids
  /// above.
  bool remote_oracle = false;
  /// weaver-oracled's durable-changelog directory; empty runs the
  /// service memory-only (no crash durability -- tests only).
  std::string oracle_data_dir;
  /// Changelog records between oracle checkpoints.
  std::uint64_t oracle_snapshot_every = 8192;
  /// Changelog fsync policy.
  FsyncPolicy oracle_fsync = FsyncPolicy::kNever;
  /// Shard-side OracleClient deadlines (per attempt / total budget).
  std::uint64_t oracle_rpc_timeout_micros = 250'000;
  std::uint64_t oracle_total_deadline_micros = 3'000'000;

  /// Run the gatekeeper bank out-of-parent: each gatekeeper is its own
  /// process (RunGatekeeperServer) holding the clock, sequencer, timers,
  /// and client ingress; the parent keeps only the backing store and a
  /// per-gatekeeper agent endpoint that applies commits. The endpoint
  /// layout grows the gk_agents / gk_controls blocks above.
  bool remote_gatekeepers = false;
  /// Gatekeeper knobs mirrored from Gatekeeper::Options so an exec'd
  /// gatekeeper process builds the same configuration the parent would.
  std::uint64_t tau_micros = 1000;
  std::uint64_t nop_period_micros = 200;
  std::size_t client_workers = 8;
  std::size_t client_batch = 8;
  std::size_t client_lane_capacity = 256;
  std::size_t max_inflight_programs = 64;
  std::size_t nop_high_water = 0;
  std::size_t announce_capacity = 0;
};

/// RoleAssign <-> ShardServerOptions: the handshake ships the full
/// configuration image, so an exec'd serverd needs nothing but its
/// command line. Role/shard/epoch/rehydrate are the coordinator's to
/// stamp; these helpers move only the options image.
RoleAssignMessage AssignmentFromOptions(const ShardServerOptions& options);
ShardServerOptions OptionsFromAssignment(const RoleAssignMessage& assign);

/// Child-process entry point: builds a standalone shard server for
/// `shard_id` wired to the parent over `parent_fd` (takes ownership of
/// the fd), serves until the parent shuts down (Stop message or socket
/// EOF), and returns the exit code. weaver-serverd calls it once the
/// join handshake assigned the shard role. With options.remote_oracle,
/// `rehydrate` makes the shard pull the oracle service's full edge dump
/// (Sync) before serving -- the respawn path, where refinements made
/// before a predecessor crashed must be visible again.
int RunShardServer(int parent_fd, ShardId shard_id,
                   const ShardServerOptions& options, bool rehydrate = false);

/// Child-process entry point for weaver-oracled: the standalone,
/// supervised timeline-oracle service (docs/oracle_service.md). Serves
/// OracleRequest batches at layout.oracle over the parent hub link,
/// journaling every established edge to the durable changelog in
/// options.oracle_data_dir, until the parent shuts down.
int RunOracleServer(int parent_fd, const ShardServerOptions& options);

/// Child-process entry point for an out-of-parent gatekeeper
/// (docs/transport.md#cluster-bootstrap): owns gatekeeper `gk_id`'s
/// vector clock, slot sequencer, timers, and client ingress; commits are
/// applied through StoreCommit RPCs to the parent-side agent. `epoch`
/// seeds the clock (a respawn joins at the fenced cluster epoch). Serves
/// until the parent shuts down. Defined in src/order/gatekeeper_server.cc.
int RunGatekeeperServer(int parent_fd, GatekeeperId gk_id,
                        const ShardServerOptions& options,
                        std::uint32_t epoch);

/// A spawned server process and the parent's connected socket to it.
struct ShardProcess {
  pid_t pid = -1;
  int parent_fd = -1;
};

/// Produces a replacement server process for `role`/`id` (shard id, or
/// gatekeeper id for kGatekeeper) at cluster epoch `epoch`; `rehydrate`
/// asks a shard to resync its oracle replica. cluster::LaunchServers
/// builds one; the supervisor calls it (ShardSupervisionOptions).
using RespawnFn = std::function<Result<ShardProcess>(
    NodeRole role, std::uint32_t id, bool rehydrate, std::uint32_t epoch)>;

}  // namespace serverd
}  // namespace weaver
