// ShardSupervisor: process-level fault tolerance for multi-process
// deployments (docs/fault_tolerance.md).
//
// The parent deployment watches its shard-server children and recovers a
// dead one end to end. Detection combines three signals, any of which
// declares the child down:
//
//   * waitpid(WNOHANG) reaps an exited pid (crash, kill -9);
//   * the child's inbound WireLink reports link-down (peer EOF / reset);
//   * a heartbeat timeout -- no frame received for
//     heartbeat_timeout_micros solicits a metrics ping, and silence for
//     twice that declares the child wedged-but-alive: it is SIGKILLed
//     first, so the recovery below never races a half-dead writer.
//
// Recovery state machine for a dead shard s (runs on the monitor thread):
//
//   1. FENCE   -- mark s down (ShardAlive fast-fails new work with
//                 Unavailable), MarkFailed in the cluster manager, detach
//                 its bus endpoint, fail every in-flight node program,
//                 destroy the old link, reap the corpse.
//   2. EPOCH   -- AdvanceEpochBarrier: the respawned server starts life in
//                 a fresh epoch, so cross-failure timestamps stay
//                 monotonic (paper §4.3). Runs BEFORE the commit gate is
//                 taken exclusively -- the barrier holds every clock lock.
//   3. RESPAWN -- ShardSupervisionOptions::exec_respawn execs a fresh
//                 weaver-serverd that joins over TCP with no inherited
//                 state (cluster::LaunchServers builds the hook). No hook,
//                 or a failed one: the shard stays down and
//                 supervisor.recoveries_failed counts it.
//   4. RESET   -- kMsgShardReset to every surviving shard child: each
//                 resets its wire-sequence state for the dead endpoint on
//                 its own event loop (serialized with its hop forwarding)
//                 and acks. Waited with a timeout; stragglers are counted,
//                 not fatal.
//   5. REPLAY  -- under the EXCLUSIVE commit gate: reset the parent's own
//                 sequence state, install the respawn's transport + a fresh
//                 WireLink, and stream the partition (every kv-committed
//                 vertex owned by s) back as kMsgPartitionReplay batches.
//                 Commits publish to the kv store BEFORE their shard
//                 slices go out, so the scan covers every acknowledged
//                 write; slices that raced the crash are re-applied
//                 benignly (multi-version installs are idempotent).
//   6. REJOIN  -- MarkRecovered, clear the down flag, resume heartbeats.
//
// The timeline-oracle service (weaver-oracled, docs/oracle_service.md)
// is supervised by the same monitor with the same three detection
// signals, but its recovery is simpler: no epoch bump (the oracle holds
// no clocks), no commit gate, and no partition replay -- the service
// replays its own durable changelog on boot. Recovery for the oracle is
// FENCE -> RESPAWN (exec'd in the oracle role) -> RESET (every live
// shard and the parent forget their wire-sequence state for the oracle
// endpoint) -> REJOIN. Shard-side callers ride it out: waves
// park and programs abort with retriable Unavailable until the respawn
// answers again.
//
// Out-of-parent gatekeeper processes (same doc) are supervised with the
// same three detection signals. Their recovery is: FENCE (detach the
// dead gatekeeper's server/client/control endpoints, fail the parent's
// internal pending replies, kill+reap), EPOCH (barrier bump broadcast to
// the surviving gatekeeper processes as GkEpochAdvance -- the respawn
// seeds its clock at the new epoch, so cross-failure timestamps stay
// monotonic while its counters restart at zero), RESPAWN, RESET
// (surviving shards and gatekeepers forget their wire-sequence state for
// the dead process's endpoints), REJOIN (parent resets + re-points the
// three endpoints at the new transport, fresh link, watermark cache
// invalidated). No partition replay: gatekeepers hold no graph state, and
// every commit they acked was applied to the backing store parent-side
// first.
//
// Everything is observable through the deployment registry under the
// "supervisor." prefix (docs/observability.md): recoveries,
// recoveries_failed, reset_ack_timeouts, replayed_vertices, sigkills,
// shards_down, oracle_recoveries, oracle_down, and the recovery_latency
// histogram.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/ids.h"
#include "common/status.h"
#include "common/sync.h"
#include "coord/serverd.h"
#include "core/messages.h"
#include "obs/metrics.h"

namespace weaver {

class Weaver;
class WireLink;

class ShardSupervisor {
 public:
  /// Reads WeaverOptions::supervision off the deployment. Construct after
  /// the gatekeepers exist and before the wire links (the links' on_down
  /// hooks point here).
  explicit ShardSupervisor(Weaver* weaver);
  ~ShardSupervisor();
  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Starts / stops the monitor thread (both idempotent).
  void Start();
  void Stop();

  /// WireLink on_down hook for shard `shard`'s inbound link: flags the
  /// crash and wakes the monitor immediately (no poll-period latency).
  /// Safe from any thread; does nothing but flag + notify.
  void OnLinkDown(ShardId shard);
  /// Same, for the oracle service's inbound link.
  void OnOracleLinkDown();
  /// Same, for an out-of-parent gatekeeper process's inbound link.
  void OnGatekeeperLinkDown(GatekeeperId gk);
  /// Coordinator-delivered kMsgShardResetAck (a surviving shard finished
  /// resetting its sequence state for the dead endpoint).
  void OnResetAck(const ShardResetAckMessage& ack);

 private:
  struct ShardState {
    pid_t pid = -1;
    /// Set by OnLinkDown (link receive thread); consumed by the monitor.
    std::atomic<bool> link_down{false};
    /// Down for good: no replacement could be spawned.
    bool lost = false;
    // Heartbeat bookkeeping (monitor thread only).
    std::uint64_t last_frames = 0;
    std::uint64_t last_activity_us = 0;
    bool pinged = false;
  };

  void MonitorLoop();
  /// waitpid(WNOHANG); true when the child is gone (reaped here or
  /// already unknown to the kernel).
  static bool Reaped(ShardState* st);
  /// Frames ever received on a child's inbound link (the heartbeat
  /// signal: a live child's acks, replies, and accounting keep it
  /// moving). Null link (recovery in progress) reads as zero.
  static std::uint64_t FramesOf(const WireLink* link);
  /// Shared heartbeat bookkeeping for one live child: refreshes activity
  /// on link progress, solicits a metrics ping after one quiet timeout,
  /// and SIGKILLs after two. Returns true when the child was declared
  /// wedged (and killed); the caller then runs its recovery.
  bool HeartbeatDead(ShardState* st, const WireLink* link, EndpointId ep,
                     const std::string& name);
  /// The shard recovery state machine (steps 1-6 above).
  void Recover(ShardId shard);
  /// Oracle recovery: FENCE -> RESPAWN -> RESET -> REJOIN.
  void RecoverOracle();
  /// Gatekeeper-process recovery (header comment above).
  void RecoverGatekeeper(GatekeeperId gk);
  /// Produces a replacement process through exec_respawn. When there is
  /// no hook or it fails, marks `st` lost, counts the failed recovery, and
  /// returns nullopt: the process named `name` stays down.
  std::optional<serverd::ShardProcess> SpawnReplacement(
      NodeRole role, std::uint32_t id, bool rehydrate, ShardState* st,
      const std::string& name);
  /// The EPOCH step, remote-gatekeeper aware: in-process it runs the
  /// barrier across the gatekeeper bank; with out-of-parent gatekeepers
  /// it bumps the cluster epoch and broadcasts GkEpochAdvance to every
  /// surviving gatekeeper process (skipping `skip_gk` mid-recovery).
  /// Returns the epoch to seed a respawn's clock with.
  std::uint32_t AdvanceEpoch(GatekeeperId skip_gk);
  /// Reset round: for each (dst, target) pair, ask the server child at
  /// `dst` to forget its wire-sequence state for endpoint `target`, and
  /// wait (bounded) for the acks.
  void RunResetRound(
      const std::vector<std::pair<EndpointId, EndpointId>>& resets);
  /// Step 5's replay stream; returns the vertex count.
  std::uint64_t ReplayPartition(ShardId shard, EndpointId ep);

  Weaver* weaver_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// weaver-oracled, when the deployment runs one (same lifecycle state
  /// as a shard child).
  ShardState oracle_;
  bool oracle_enabled_ = false;
  /// Out-of-parent gatekeeper processes, when the deployment runs them
  /// (same lifecycle state).
  std::vector<std::unique_ptr<ShardState>> gk_states_;
  bool gk_enabled_ = false;

  Mutex mu_;
  std::condition_variable cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  /// Link-down fast path: skip the rest of the poll wait.
  bool wake_ GUARDED_BY(mu_) = false;
  /// Written by Start (under mu_, before the loop runs) and joined by
  /// Stop after the stop_ handshake; the handle itself needs no guard.
  std::thread thread_;

  // Reset-ack round state (one round at a time; the monitor thread is the
  // only initiator).
  Mutex ack_mu_;
  std::condition_variable ack_cv_;
  std::uint64_t ack_token_ GUARDED_BY(ack_mu_) = 0;
  std::size_t acks_ GUARDED_BY(ack_mu_) = 0;
  /// Monitor thread only (ResetSurvivors is its sole caller); no guard.
  std::uint64_t next_token_ = 1;

  // Owned by the deployment registry; dropped (prefix "supervisor.") in
  // the destructor.
  obs::Counter* recoveries_ = nullptr;
  obs::Counter* recoveries_failed_ = nullptr;
  obs::Counter* reset_ack_timeouts_ = nullptr;
  obs::Counter* replayed_vertices_ = nullptr;
  obs::Counter* sigkills_ = nullptr;
  obs::Counter* oracle_recoveries_ = nullptr;
  obs::Counter* gk_recoveries_ = nullptr;
  obs::Counter* exec_respawns_ = nullptr;
  obs::Gauge* shards_down_ = nullptr;
  obs::Gauge* oracle_down_ = nullptr;
  obs::Gauge* gks_down_ = nullptr;
  obs::LatencyHistogram* recovery_latency_ = nullptr;
};

}  // namespace weaver
