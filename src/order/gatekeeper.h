// Gatekeeper: one server of the timeline coordinator bank (paper §3.3,
// §4.2).
//
// Responsibilities:
//   * Assign a refinable timestamp to every transaction and node program
//     by ticking its vector clock -- no cross-server coordination.
//   * Announce its clock to peer gatekeepers every tau microseconds, which
//     establishes the happens-before partial order that makes the majority
//     of timestamps directly comparable (Fig 5).
//   * Execute read-write transactions against the backing store, using the
//     per-vertex last-update timestamp to guarantee that timestamp order
//     matches backing-store commit order on conflicting vertices; if the
//     check fails, abort so the client retries with a fresh (higher)
//     timestamp (paper §4.2).
//   * Forward committed transactions to the shard servers over FIFO
//     channels, in timestamp order (an outbound sequencer releases sends
//     in local-sequence order even though commits finish out of order).
//   * Emit periodic NOP transactions so shard queue heads always advance
//     during light load (paper §4.2).
//   * Track in-flight node programs so the deployment can compute the GC
//     watermark (oldest ongoing program, paper §4.5).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "common/ids.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/graph_op.h"
#include "core/messages.h"
#include "kvstore/kvstore.h"
#include "net/bus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "order/timestamp.h"
#include "vclock/vclock.h"

namespace weaver {

/// Result of one commit attempt against the backing store
/// (ApplyCommitToStore): either committed, or aborted with enough
/// context for the timestamp-retry loop to act on it from another
/// process (the out-of-parent gatekeeper path ships this over the wire
/// as StoreCommitReply).
struct ApplyOutcome {
  Status status;  // Ok = durable in the store
  /// Last-update conflict (paper §4.2): merge conflict_clock into the
  /// issuing clock and retry with a fresh, strictly later timestamp.
  bool retry_timestamp = false;
  /// kvtx->Commit() lost the OCC race; the client retries the whole
  /// transaction.
  bool kv_conflict = false;
  /// The conflicting vertex's last-update clock (valid when
  /// retry_timestamp).
  VectorClock conflict_clock;
  /// Property versions and edges dropped from the rewritten blobs
  /// because they were deleted strictly before the watermark.
  std::uint64_t versions_pruned = 0;
};

/// One commit attempt at timestamp `ts`: applies `ops` through the OCC
/// transaction (per-vertex last-update validation, write-back, shard
/// placements for created vertices) and commits. Pure store-side logic:
/// no clocks, slots, or bus traffic -- the gatekeeper's retry loop (or
/// the parent-side agent serving an out-of-parent gatekeeper) wraps it.
/// Every blob it rewrites drops the property versions and edges deleted
/// strictly before `watermark` in vector-clock order; an invalid
/// watermark prunes nothing.
ApplyOutcome ApplyCommitToStore(
    KvTransaction* kvtx, const RefinableTimestamp& ts,
    const std::vector<GraphOp>& ops,
    const std::unordered_map<NodeId, ShardId>& placements,
    const RefinableTimestamp& watermark);

class Gatekeeper {
 public:
  struct Options {
    GatekeeperId id = 0;
    std::size_t num_gatekeepers = 1;
    MessageBus* bus = nullptr;
    std::vector<EndpointId> shard_endpoints;
    std::vector<EndpointId> peer_endpoints;  // other gatekeepers
    /// Clock synchronization period tau (paper §3.5). 0 disables the timer
    /// (tests pump manually with PumpAnnounce).
    std::uint64_t tau_micros = 1000;
    /// NOP emission period (paper default 10us; relaxed here). 0 disables.
    std::uint64_t nop_period_micros = 200;
    /// Epoch this gatekeeper's clock starts in. A rebooted deployment that
    /// recovered durable state boots its gatekeepers one epoch past the
    /// persisted one (cluster manager), so every fresh timestamp orders
    /// after every timestamp stamped onto recovered data (paper §4.3's
    /// monotonicity argument, applied across process restarts).
    std::uint32_t initial_epoch = 0;
    /// Client-ingress worker pool size. Commit lanes keep per-session
    /// FIFO (one session's commits never run on two workers at once);
    /// program requests run on any free worker. Workers mostly wait on
    /// backing-store round trips and program waves, so the pool is sized
    /// for overlap, not cores.
    std::size_t client_workers = 8;
    /// Max requests drained from one session's lane per worker visit. A
    /// drained batch of pipelined commits shares one simulated
    /// backing-store round trip (the client-side analogue of group
    /// commit).
    std::size_t client_batch = 8;
    /// Per-session ingress lane bound: submissions past this depth fail
    /// fast with ResourceExhausted instead of queueing unboundedly.
    /// 0 disables.
    std::size_t client_lane_capacity = 256;
    /// Max node programs this ingress keeps in flight at once. Program
    /// execution is asynchronous (a worker seeds the start wave and is
    /// immediately free again), so the worker pool no longer bounds
    /// concurrent traversals -- this does. Workers leave the program
    /// queue alone while the limit is reached; OnProgramSettled()
    /// releases a slot. 0 disables.
    std::size_t max_inflight_programs = 64;
    /// NOP backpressure high-water mark: while any destination shard
    /// inbox is deeper than this, the NOP period doubles per round (rounds
    /// are skipped) up to kMaxNopBackoff, and halves back once every
    /// inbox is below half of it. 0 disables the check.
    std::size_t nop_high_water = 0;
    /// Capacity of this gatekeeper's announce endpoint for DEFERRED bus
    /// deliveries (delay-injected links): a gatekeeper that lags behind
    /// the announce stream sheds the excess instead of queueing it
    /// without bound -- a dropped announce is superseded by the next one.
    /// 0 = unbounded (the historical behavior).
    std::size_t announce_capacity = 0;
    /// Optional metrics registry. When set, the gatekeeper exports its
    /// Stats fields, a commit-latency histogram, and backpressure gauges
    /// under "gk<id>." names; the registry must outlive the gatekeeper
    /// (the destructor drops the names).
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional request-trace log. When set (and sampling is on), commit
    /// executions record begin/ordered/applied/replied spans.
    obs::TraceLog* trace = nullptr;
  };

  /// Upper bound on the adaptive NOP period multiplier.
  static constexpr std::uint64_t kMaxNopBackoff = 64;

  struct Stats {
    std::atomic<std::uint64_t> txs_committed{0};
    std::atomic<std::uint64_t> txs_aborted_kv{0};
    std::atomic<std::uint64_t> txs_aborted_last_update{0};
    std::atomic<std::uint64_t> announces_sent{0};
    std::atomic<std::uint64_t> announces_received{0};
    std::atomic<std::uint64_t> nops_sent{0};
    /// NOP rounds skipped by backpressure backoff (a shard inbox was
    /// above high water, so the emission period was multiplied).
    std::atomic<std::uint64_t> nops_skipped{0};
    /// Post-commit slice / NOP sends that failed -- a shard endpoint was
    /// down (detached, crashed process). Not data loss: the commit is
    /// already durable in the backing store and recovery replays the
    /// partition, but every drop here is a retry the cluster performed,
    /// so chaos runs read it as their retry count.
    std::atomic<std::uint64_t> slice_send_failures{0};
    std::atomic<std::uint64_t> nop_send_failures{0};
    std::atomic<std::uint64_t> programs_issued{0};
    /// Client-ingress traffic (session API). client_programs counts
    /// REQUESTS; client_program_msgs counts the bus messages carrying
    /// them (a batched fan-out is many requests in one message).
    std::atomic<std::uint64_t> client_commits{0};
    std::atomic<std::uint64_t> client_programs{0};
    std::atomic<std::uint64_t> client_program_msgs{0};
    std::atomic<std::uint64_t> client_batches{0};
    std::atomic<std::uint64_t> client_rejected{0};  // lane over capacity
    /// Nanoseconds this gatekeeper spent doing per-operation work
    /// (timestamping, backing-store commits, announce/NOP emission). Used
    /// by the Fig 12/13 scaling benches' service-time model.
    std::atomic<std::uint64_t> busy_ns{0};
  };

  explicit Gatekeeper(Options options);
  ~Gatekeeper();
  Gatekeeper(const Gatekeeper&) = delete;
  Gatekeeper& operator=(const Gatekeeper&) = delete;

  GatekeeperId id() const { return options_.id; }
  EndpointId endpoint() const { return endpoint_; }
  /// Where sessions address ClientCommit/ClientProgram messages.
  EndpointId client_endpoint() const { return client_endpoint_; }

  // --- Client ingress (session API) ----------------------------------------
  //
  // Each gatekeeper owns an ingress for ClientRequest messages. Commits
  // are parked in per-session FIFO lanes that a worker pool drains in
  // batches -- one lane is never drained by two workers at once, so a
  // session's commits execute (and take timestamps) in submission order,
  // while different sessions proceed concurrently. Program requests are
  // reads on consistent snapshots and carry no ordering promise, so they
  // go to a shared queue that any free worker serves -- a session
  // pipelining K programs gets up to K of them in flight at once.

  /// How the ingress executes requests. Installed by the deployment
  /// (Weaver), which owns the locator/partitioner state commits need and
  /// the program coordinator programs need. Executors complete requests
  /// by sending reply messages (SendCommitReply / SendProgramReply) to
  /// the endpoint named in the request -- there are no callbacks in the
  /// schemas, so the same path works across a process boundary.
  struct ClientExecutor {
    /// `pay_delay` is true for the first commit of a drained batch whose
    /// submitter has not already paid the simulated backing-store round
    /// trip; the rest of the batch rides the same round trip.
    std::function<void(Gatekeeper&, ClientCommitMessage&, bool pay_delay)>
        commit;
    /// Executes ONE request of a (possibly batched) program message.
    /// Async contract: the completion path must SendProgramReply and call
    /// OnProgramSettled() exactly once.
    std::function<void(Gatekeeper&, const ClientProgramMessage&,
                       ProgramRequest&)>
        program;
  };

  /// Installs the executor. Call before StartClientIngress().
  void SetClientExecutor(ClientExecutor executor) {
    client_executor_ = std::move(executor);
  }
  /// Starts the ingress worker pool (idempotent). Requests arriving before
  /// this queue up in their lanes.
  void StartClientIngress();
  /// Stops the workers and fails every queued request with Unavailable, so
  /// a Pending<T>::Wait() after shutdown returns instead of hanging.
  /// Idempotent; also run by the destructor.
  void StopClientIngress();

  /// Async program completion plumbing: the deployment calls this when a
  /// program dispatched from this ingress settles (success or failure),
  /// releasing its in-flight slot so a waiting worker can seed the next
  /// one.
  void OnProgramSettled();

  /// Sends a ClientCommitReply / ClientProgramReply to a requester's
  /// reply endpoint. Used by the executors and by the ingress itself
  /// (rejection and shutdown paths). A failed send (requester gone) is
  /// dropped -- nobody is waiting anymore.
  void SendCommitReply(EndpointId reply_to, std::uint64_t session_id,
                       std::uint64_t request_id, Status status,
                       const RefinableTimestamp& ts);
  void SendProgramReply(EndpointId reply_to, std::uint64_t session_id,
                        std::uint64_t request_id,
                        Result<ProgramResult> result);

  /// Installs the peer gatekeeper endpoints (deployment wiring happens
  /// after all gatekeepers are constructed). Call before StartTimers().
  void SetPeerEndpoints(std::vector<EndpointId> peers) {
    options_.peer_endpoints = std::move(peers);
  }

  /// Starts the announce/NOP timer threads (no-op for zero periods).
  void StartTimers();
  /// Stops timers; safe to call repeatedly.
  void StopTimers();

  /// One commit attempt at the timestamp this gatekeeper issued. The
  /// in-process path wraps ApplyCommitToStore; an out-of-parent
  /// gatekeeper ships the attempt to its parent-side agent as a
  /// StoreCommit RPC and decodes the reply into the same shape.
  using CommitApplier = std::function<ApplyOutcome(const RefinableTimestamp&)>;

  /// Commits a client transaction: owns the timestamp issue + outbound
  /// slot, runs `apply` per attempt, merges conflict clocks and retries
  /// bounded times on last-update conflicts, and fans committed slices
  /// out to the shards in slot order. `placements` maps every vertex
  /// touched by `ops` to its shard. On kAborted the client should retry
  /// the whole transaction.
  Status CommitTransaction(
      const CommitApplier& apply, const std::vector<GraphOp>& ops,
      const std::unordered_map<NodeId, ShardId>& placements,
      RefinableTimestamp* committed_ts);

  /// Issues a timestamp for a node program and registers it as in-flight.
  /// A valid `fence` clock is merged first, so the program's timestamp
  /// happens-after the fenced commit and its snapshot observes it -- the
  /// per-session read-your-writes mode (docs/client_api.md).
  RefinableTimestamp BeginProgram(const VectorClock* fence = nullptr);
  /// Marks a program complete (removes it from the in-flight set).
  void EndProgram(const RefinableTimestamp& ts);
  /// Oldest in-flight program timestamp, or the current clock snapshot if
  /// none (GC watermark input, paper §4.5).
  RefinableTimestamp OldestActive();

  /// Manually sends one announce round (deterministic tests, benches).
  void PumpAnnounce();
  /// Manually emits one NOP to all shards.
  void PumpNop();

  /// Bus delivery entry point for peer announces.
  void OnAnnounce(const VectorClock& peer_clock);

  /// Epoch barrier support (paper §4.3): the cluster manager holds all
  /// gatekeepers' clock locks and advances them in unison.
  Mutex& clock_mutex() RETURN_CAPABILITY(clock_mu_) { return clock_mu_; }
  void AdvanceEpochLocked(std::uint32_t epoch) REQUIRES(clock_mu_);

  VectorClock SnapshotClock();
  const Stats& stats() const { return stats_; }

  /// Current adaptive NOP-period multiplier (1 = configured rate; >1
  /// means backpressure is throttling NOP emission). Surfaced in bench
  /// output.
  std::uint64_t nop_backoff() const {
    return nop_backoff_.load(std::memory_order_relaxed);
  }

  /// Charges coordinator-side work to this gatekeeper's busy time. In the
  /// paper the gatekeeper forwards node programs to shards and routes the
  /// responses; this deployment runs that coordination on the client
  /// thread (core/weaver.cc RunProgram) and attributes the CPU cost here
  /// so the Fig 12/13 service-time model sees it on the right server.
  void AddBusyNs(std::uint64_t ns) {
    stats_.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  }

 private:
  struct SessionLane {
    std::deque<BusMessage> q;
    /// True while the lane is in ready_lanes_ or held by a worker;
    /// guarantees single-worker (FIFO) draining per session.
    bool busy = false;
  };

  /// One dispatchable program request: batched ClientProgram messages
  /// fan out into one entry per request at enqueue, so in-flight
  /// accounting stays exact and a batch's requests can run on several
  /// workers at once.
  struct ProgramWork {
    std::shared_ptr<ClientProgramMessage> msg;
    std::size_t index = 0;  // into msg->requests
  };

  /// Ticks the clock and returns the new timestamp plus a dense outbound
  /// slot id (transactions/NOPs only; programs pass want_slot = false).
  RefinableTimestamp IssueTimestamp(bool want_slot, std::uint64_t* slot);

  /// True when a queued program may be seeded (queue non-empty and an
  /// in-flight slot free). Ingress workers poll this under ingress_mu_.
  bool ProgramDispatchableLocked() const REQUIRES(ingress_mu_);

  void EnqueueClientRequest(const BusMessage& msg);
  void ClientIngressLoop();
  /// Runs one commit request through the executor (ingress worker
  /// thread).
  void DispatchCommitRequest(const BusMessage& msg, bool* batch_delay_due);
  /// Completes a queued commit request with `status` without executing it
  /// (rejection/shutdown paths; replies through SendCommitReply).
  void FailCommitRequest(const BusMessage& msg, Status status);

  /// Hands a released slot's sends to the bus in slot order.
  void ReleaseSlot(std::uint64_t slot, std::function<void()> send_fn);

  void AnnounceLoop();
  void NopLoop();
  void UpdateNopBackoff();
  void SendNop(const RefinableTimestamp& ts);

  /// Registers this gatekeeper's instruments ("gk<id>." names) with
  /// options_.metrics. Constructor-only.
  void ExportMetrics();

  Options options_;
  EndpointId endpoint_ = 0;
  EndpointId client_endpoint_ = 0;

  Mutex clock_mu_;
  VectorClock clock_ GUARDED_BY(clock_mu_);

  // Client ingress: per-session commit lanes + shared program queue +
  // worker pool.
  ClientExecutor client_executor_;
  mutable Mutex ingress_mu_;
  std::condition_variable ingress_cv_;
  std::unordered_map<std::uint64_t, SessionLane> lanes_ GUARDED_BY(ingress_mu_);
  std::deque<std::uint64_t> ready_lanes_ GUARDED_BY(ingress_mu_);
  std::deque<ProgramWork> program_queue_ GUARDED_BY(ingress_mu_);
  std::vector<std::thread> ingress_workers_ GUARDED_BY(ingress_mu_);
  /// Programs seeded but not yet settled.
  std::size_t inflight_programs_ GUARDED_BY(ingress_mu_) = 0;
  bool ingress_stopped_ GUARDED_BY(ingress_mu_) = false;

  // Outbound sequencer: slots release to the bus in allocation order.
  Mutex out_mu_;
  std::uint64_t next_slot_to_alloc_ GUARDED_BY(out_mu_) = 0;
  std::uint64_t next_slot_to_release_ GUARDED_BY(out_mu_) = 0;
  std::map<std::uint64_t, std::function<void()>> pending_releases_
      GUARDED_BY(out_mu_);

  // In-flight node programs, keyed by event id.
  Mutex programs_mu_;
  std::unordered_map<EventId, RefinableTimestamp> active_programs_
      GUARDED_BY(programs_mu_);

  /// Current NOP period multiplier (1 = configured rate; grows while a
  /// shard inbox is over high water). Read by NopLoop, written after each
  /// round; atomic so tests/stats readers can peek.
  std::atomic<std::uint64_t> nop_backoff_{1};

  /// End-to-end commit execution latency (DispatchCommitRequest through
  /// the executor's reply). Owned by options_.metrics; null when metrics
  /// are off.
  obs::LatencyHistogram* commit_latency_ = nullptr;

  /// Timer threads: written only by StartTimers (under timer_mu_, before
  /// the loops run) and joined by StopTimers after the stop handshake, so
  /// the handles themselves need no guard -- the flags below do.
  std::thread announce_thread_;
  std::thread nop_thread_;
  Mutex timer_mu_;
  std::condition_variable timer_cv_;
  bool timers_running_ GUARDED_BY(timer_mu_) = false;
  bool stop_timers_ GUARDED_BY(timer_mu_) = false;

  Stats stats_;
};

}  // namespace weaver
