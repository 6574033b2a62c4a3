// Weaver: the public face of the database (paper §1-§4).
//
// A Weaver instance is a full deployment: a bank of gatekeepers with
// vector clocks (the timeline coordinator), a timeline oracle, a set of
// shard servers holding the in-memory multi-version graph, a transactional
// backing store, a cluster manager, and the simulated interconnect.
//
// Clients use three entry points:
//   * BeginTx()/Commit() -- strictly serializable read-write transactions
//     (paper §2.2);
//   * RunProgram() -- node programs: transactional, scatter-gather graph
//     analyses executed on a consistent snapshot (paper §2.3);
//   * BulkLoad() -- offline dataset loading before the deployment starts.
//
// The canonical client surface is the session layer (src/client/):
// WeaverClient::OpenSession() yields sessions that pipeline CommitAsync /
// RunProgramAsync requests to gatekeeper client-ingress endpoints over
// the MessageBus (docs/client_api.md). The blocking methods below remain
// as thin wrappers: on a started deployment Commit() routes the same
// ClientCommit message and waits; on a stopped one (deterministic tests,
// bulk load) it executes inline.
//
// Fault injection (KillShard/RecoverShard/ReplaceGatekeeper) exercises the
// paper's §4.3 recovery paths.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <deque>

#include "client/reply_router.h"
#include "common/annotations.h"
#include "coord/serverd.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/sync.h"
#include "coord/cluster_manager.h"
#include "core/locator.h"
#include "core/messages.h"
#include "core/node_program.h"
#include "core/program_cache.h"
#include "core/transaction.h"
#include "kvstore/kvstore.h"
#include "net/bus.h"
#include "net/wire_link.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle/oracle_client.h"
#include "oracle/timeline_oracle.h"
#include "order/gatekeeper.h"
#include "partition/partitioner.h"
#include "shard/shard.h"
#include "storage/storage_options.h"

namespace weaver {

class ShardSupervisor;

/// Shard-process supervision (docs/fault_tolerance.md): the parent watches
/// its server processes, detects death (waitpid + link EOF + missed
/// heartbeats), and recovers -- epoch bump, exec respawn, partition
/// replay from the backing store. Only meaningful with remote_shard_fds;
/// cluster::LaunchedServers::Configure fills the pids and the hook.
struct ShardSupervisionOptions {
  bool enabled = false;
  /// pid of each original shard-server process, indexed by ShardId.
  /// Required when enabled.
  std::vector<pid_t> shard_pids;
  /// Monitor thread cadence.
  std::uint64_t poll_period_micros = 20'000;
  /// A child silent (no frames received) this long is pinged; silent for
  /// twice this long it is declared wedged, SIGKILLed, and recovered.
  std::uint64_t heartbeat_timeout_micros = 2'000'000;
  /// How long recovery waits for the surviving shards to acknowledge the
  /// wire-sequence reset before proceeding anyway (counted in
  /// supervisor.reset_ack_timeouts).
  std::uint64_t reset_ack_timeout_micros = 2'000'000;
  /// pid of each out-of-parent gatekeeper process, indexed by
  /// GatekeeperId (remote_gatekeeper_fds deployments). When set, the
  /// monitor watches and recovers them like shard children.
  std::vector<pid_t> gatekeeper_pids;
  /// The respawn source (docs/transport.md#cluster-bootstrap): exec a
  /// fresh weaver-serverd for the dead role and return its connected
  /// process. Without it a dead process stays down, counted in
  /// supervisor.recoveries_failed.
  serverd::RespawnFn exec_respawn;
};

/// Standalone timeline-oracle service (docs/oracle_service.md): the
/// authoritative oracle runs as a supervised weaver-oracled process with
/// a durable changelog; this process (and every shard server) holds only
/// an OracleClient replica. Remote-shard deployments only.
struct OracleServiceOptions {
  bool enabled = false;
  /// The weaver-oracled process (cluster::LaunchServers with
  /// remote_oracle): its pid (for supervision) and the parent's
  /// connected socket to it.
  pid_t pid = -1;
  int fd = -1;
  /// Parent-side OracleClient deadlines (GC collect RPCs).
  std::uint64_t rpc_timeout_micros = 250'000;
  std::uint64_t total_deadline_micros = 3'000'000;
};

struct WeaverOptions {
  std::size_t num_gatekeepers = 2;
  std::size_t num_shards = 2;
  /// Vector clock synchronization period tau, microseconds (paper §3.5).
  std::uint64_t tau_micros = 500;
  /// NOP transaction period, microseconds (paper §4.2).
  std::uint64_t nop_period_micros = 200;
  std::size_t kv_stripes = 64;
  /// Start event loops and timers at Open(). When false the caller bulk
  /// loads first and then calls Start() (or drives shards manually in
  /// deterministic tests).
  bool start = true;
  /// Use the LDG streaming partitioner instead of hash placement.
  bool use_ldg_partitioner = false;
  std::size_t expected_vertices = 1 << 20;
  /// Abort runaway node programs after this many total hops consumed
  /// (the runaway guard; 0 disables).
  std::size_t max_program_hops = 1 << 26;
  /// Max program hops one shard executes per drain cycle before control
  /// returns to its event loop (abort responsiveness; leftover hops
  /// carry over).
  std::size_t shard_max_hops_per_cycle = 2048;
  /// Max node programs a gatekeeper's client ingress keeps in flight at
  /// once. Program execution is asynchronous (workers seed the start
  /// wave and move on), so without this bound one session could flood
  /// the shards with concurrent traversals. 0 disables.
  std::size_t client_max_inflight_programs = 64;
  /// Multi-version / oracle GC period (paper §4.5). The deployment runs
  /// RunGarbageCollection() on this cadence; 0 disables the timer (tests
  /// and benches may trigger GC manually). Without periodic GC the
  /// timeline oracle's dependency graph grows without bound and ordering
  /// requests slow down quadratically.
  std::uint64_t gc_period_micros = 50'000;
  /// Write bulk-loaded data through to the backing store (durable; needed
  /// by recovery). Disable only for throughput benches that never recover.
  bool bulk_load_durable = true;
  /// Memoize node-program results and invalidate them on writes to their
  /// dependency vertices (paper §4.6). The paper's evaluation disables
  /// caching, and so does this default.
  bool enable_program_cache = false;
  /// Simulated backing-store commit round trip added to every read-write
  /// transaction (paper deployments talk to HyperDex Warp over the
  /// network; the in-process KvStore alone would make writes unrealistically
  /// cheap relative to reads). 0 (default) disables; the Fig 9/10 benches
  /// set it -- see EXPERIMENTS.md for calibration.
  std::uint64_t kv_commit_delay_micros = 0;
  /// Client-ingress worker pool per gatekeeper. Commits keep per-session
  /// FIFO lanes; programs run on any free worker. Workers mostly wait on
  /// round trips and program waves, so size for overlap, not cores.
  std::size_t client_ingress_workers = 8;
  /// Requests drained per session-lane visit; a drained batch of
  /// pipelined commits shares one simulated backing-store round trip.
  std::size_t client_ingress_batch = 8;
  /// Per-session ingress lane bound; submissions past it fail fast with
  /// ResourceExhausted (0 disables).
  std::size_t client_lane_capacity = 256;
  /// Shard inbox bound: senders block once this many messages are queued,
  /// so producers pace to the slowest consumer instead of growing memory
  /// (0 restores the historical unbounded inboxes).
  std::size_t shard_inbox_capacity = 8192;
  /// Gatekeepers withhold NOPs from a shard whose inbox is deeper than
  /// this (adaptive NOP emission; 0 disables). Healthy shards keep
  /// receiving theirs -- a frozen queue head stalls node programs.
  std::size_t nop_high_water = 4096;
  /// Shards pause batch-draining their inbox while this many transactions
  /// are already queued, so overload surfaces as inbox depth for the NOP
  /// high-water check (0 disables).
  std::size_t shard_queue_high_water = 4096;
  /// Durable storage for the backing store (WAL + checkpoints under
  /// storage.data_dir; see docs/storage.md). With a data_dir set, Open()
  /// recovers every committed vertex/edge from disk -- shards rebuild
  /// their partitions, the id allocators resume past recovered ids, and
  /// gatekeeper clocks boot one epoch after the persisted one so new
  /// timestamps order after all recovered writes. Default: disabled
  /// (pure in-memory deployment, exactly the pre-storage behavior).
  StorageOptions storage;
  /// Deferred-delivery capacity of each gatekeeper's announce endpoint
  /// (bounded inline handlers; docs/transport.md#backpressure). A
  /// gatekeeper lagging behind a delay-injected announce stream sheds the
  /// excess instead of queueing it unboundedly -- dropped announces are
  /// superseded by the next round. 0 disables.
  std::size_t announce_capacity = 8192;
  /// Multi-process deployment (docs/transport.md): one connected stream
  /// socket per shard, each leading to a shard-server process started
  /// with RunShardServer (coord/serverd.h). When non-empty (size must
  /// equal num_shards), Open() registers remote proxy endpoints over
  /// SocketTransport instead of constructing in-process shards; all
  /// shard traffic is encoded into wire frames, and shard-to-shard hop
  /// forwarding transits this process as a hub. Remote deployments
  /// require hash placement (shard servers route forwarded hops with the
  /// same hash; use_ldg_partitioner is ignored) and do not support bulk
  /// load or shard fault injection -- build graphs through transactions.
  std::vector<int> remote_shard_fds;
  /// Out-of-parent gatekeepers (docs/transport.md#cluster-bootstrap):
  /// one connected stream socket per gatekeeper, each leading to a
  /// RunGatekeeperServer process that owns that gatekeeper's clock,
  /// sequencer, timers, and client ingress. When non-empty (size must
  /// equal num_gatekeepers; requires remote_shard_fds), this process
  /// keeps only the backing store and a per-gatekeeper agent endpoint
  /// that applies StoreCommit RPCs and seeds node programs. Client
  /// sessions talk to the gatekeeper processes directly (their ingress
  /// endpoints become remote proxies here).
  std::vector<int> remote_gatekeeper_fds;
  /// Request-trace sampling stride (docs/observability.md#tracing): keep
  /// every n-th commit / program span in Weaver::trace(). 0 disables
  /// (default; ShouldSample is then one relaxed load on the hot path).
  std::uint64_t trace_sample_every = 0;
  /// Remote deployments only: period of the background MetricsRequest
  /// poll that refreshes each remote shard's inbox depth (the NOP
  /// backpressure input; MessageBus::QueueDepth staleness contract) and
  /// rides on the GC thread, so it also requires gc_period_micros > 0.
  /// 0 disables the poll; CollectMetrics() still works on demand.
  std::uint64_t metrics_poll_period_micros = 100'000;
  /// Shard-process crash supervision (docs/fault_tolerance.md).
  ShardSupervisionOptions supervision;
  /// Standalone replicated-changelog timeline oracle
  /// (docs/oracle_service.md). Requires remote_shard_fds; supervised
  /// alongside the shards when supervision is enabled.
  OracleServiceOptions oracle_service;
  /// Fault-injection seam (net/fault_injector.h): wraps each remote
  /// shard's outbound transport at adoption time -- both the original
  /// remote_shard_fds and any respawned process. Identity when unset.
  std::function<std::shared_ptr<Transport>(std::shared_ptr<Transport>,
                                           ShardId)>
      shard_transport_decorator;
};

class Weaver {
 public:
  /// Builds a deployment. Invalid options are clamped to the nearest valid
  /// value. Returns nullptr only when options.storage names a data dir
  /// that cannot be opened or recovered (never for in-memory deployments).
  static std::unique_ptr<Weaver> Open(const WeaverOptions& options);
  ~Weaver();
  Weaver(const Weaver&) = delete;
  Weaver& operator=(const Weaver&) = delete;

  /// Starts shard event loops and gatekeeper timers (idempotent).
  void Start();
  /// Stops all threads (idempotent; also run by the destructor).
  void Shutdown();
  bool started() const { return started_.load(); }

  // --- Transactions -------------------------------------------------------

  Transaction BeginTx();
  /// Commits the transaction through a gatekeeper. kAborted means a
  /// concurrency conflict: retry the whole transaction.
  Status Commit(Transaction* tx);
  /// Convenience retry loop: runs `body` against fresh transactions until
  /// commit succeeds, the body fails with a non-retryable status, or
  /// `max_attempts` is exhausted.
  Status RunTransaction(const std::function<Status(Transaction&)>& body,
                        int max_attempts = 16);

  // --- Node programs --------------------------------------------------------

  /// Runs the registered node program `name` starting from `starts`.
  Result<ProgramResult> RunProgram(std::string_view name,
                                   std::vector<NextHop> starts);
  /// Single-start convenience overload (the cacheable shape, §4.6).
  Result<ProgramResult> RunProgram(std::string_view name, NodeId start,
                                   std::string params = "");

  /// Runs a node program on a specific gatekeeper (the session layer pins
  /// each session to one gatekeeper; the overloads above round-robin).
  Result<ProgramResult> RunProgramOn(GatekeeperId gk, std::string_view name,
                                     std::vector<NextHop> starts);
  /// Single-start variant; consults the program cache when enabled.
  Result<ProgramResult> RunProgramOn(GatekeeperId gk, std::string_view name,
                                     NodeId start, std::string params = "");

  /// Asynchronous node-program execution (docs/node_programs.md): seeds
  /// the start wave onto the owning shards and returns immediately;
  /// `done` fires exactly once -- possibly inline (validation failure,
  /// program-cache hit, empty start set) or later on a shard thread when
  /// the quiescence accounting balances. Single-start invocations
  /// consult the program cache. The gatekeeper client ingress runs every
  /// ClientProgram request through this, so its workers never block on
  /// waves. A valid `fence` timestamp makes the program's snapshot
  /// observe that commit (read-your-writes; Gatekeeper::BeginProgram).
  void RunProgramAsyncOn(GatekeeperId gk, std::string_view name,
                         std::vector<NextHop> starts,
                         std::function<void(Result<ProgramResult>)> done);
  void RunProgramAsyncOn(GatekeeperId gk, std::string_view name,
                         std::vector<NextHop> starts,
                         const RefinableTimestamp& fence,
                         std::function<void(Result<ProgramResult>)> done);

  /// Historical query (paper §4.5): runs `name` on the consistent snapshot
  /// at `ts`, a timestamp obtained from an earlier transaction or program.
  /// The caller must ensure the versions at `ts` have not been garbage
  /// collected (run with gc_period_micros = 0, or query above the
  /// watermark); reads below the watermark return whatever GC left.
  Result<ProgramResult> RunProgramAt(std::string_view name,
                                     std::vector<NextHop> starts,
                                     const RefinableTimestamp& ts);

  // --- Bulk load (before Start()) ------------------------------------------

  /// Creates a vertex directly in the shards/backing store.
  Status BulkCreateNode(NodeId id,
                        std::vector<std::pair<std::string, std::string>>
                            properties = {});
  /// Creates an edge directly; both endpoints must be bulk-created first.
  Result<EdgeId> BulkCreateEdge(NodeId from, NodeId to,
                                std::vector<std::pair<std::string,
                                                      std::string>>
                                    properties = {});
  /// Flushes bulk-loaded vertices to the backing store (no-op when
  /// bulk_load_durable is false).
  Status FinishBulkLoad();

  // --- Maintenance ----------------------------------------------------------

  /// One multi-version GC round (paper §4.5): computes the watermark from
  /// the oldest in-flight program and propagates it to shards + oracle.
  /// `include_shards` additionally collapses shard-side version chains and
  /// trims decision caches -- an O(graph) sweep, so the periodic timer
  /// does it on a much slower cadence than the cheap oracle collection.
  /// Each round also publishes the watermark to the backing-store apply
  /// paths, which prune history below it from every blob they rewrite
  /// (docs/storage.md, "What the backing store keeps").
  void RunGarbageCollection(bool include_shards = true);

  // --- Fault injection (paper §4.3) ------------------------------------------

  /// Crashes a shard server: drops its in-memory state and in-flight
  /// messages.
  Status KillShard(ShardId id);
  /// Boots a replacement shard that restores its partition from the
  /// backing store, then rejoins the deployment.
  Status RecoverShard(ShardId id);
  /// Replaces a gatekeeper: restarts its vector clock in a new epoch
  /// behind a cluster-wide barrier.
  Status ReplaceGatekeeper(GatekeeperId id);

  // --- Identifiers -----------------------------------------------------------

  NodeId AllocateNodeId() {
    return next_node_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Keeps the allocator ahead of an explicitly chosen id.
  void ReserveNodeId(NodeId id) {
    std::uint64_t expected = next_node_id_.load(std::memory_order_relaxed);
    while (expected <= id &&
           !next_node_id_.compare_exchange_weak(expected, id + 1,
                                                std::memory_order_relaxed)) {
    }
  }
  EdgeId AllocateEdgeId() {
    return next_edge_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Introspection ----------------------------------------------------------

  const WeaverOptions& options() const { return options_; }
  KvStore& kv() { return *kv_; }
  /// Vertices restored from durable storage at Open() (0 for fresh or
  /// in-memory deployments).
  std::uint64_t recovered_vertices() const { return recovered_vertices_; }
  TimelineOracle& oracle() { return oracle_; }
  /// The parent's oracle handle: a local-mode client over oracle_, or
  /// the weaver-oracled RPC path (WeaverOptions::oracle_service).
  OracleClient& oracle_client() { return *oracle_client_; }
  MessageBus& bus() { return *bus_; }
  NodeLocator& locator() { return *locator_; }
  ClusterManager& cluster() { return cluster_; }
  /// In-process gatekeeper access. Out-of-parent gatekeeper deployments
  /// (remote_gatekeeper_fds) have no local Gatekeeper objects; use
  /// GatekeeperClientEndpoint for request routing there.
  Gatekeeper& gatekeeper(GatekeeperId id) { return *gatekeepers_[id]; }
  /// Where sessions address ClientCommit/ClientProgram messages for
  /// gatekeeper `id`: the local ingress endpoint, or the gatekeeper
  /// process's remote proxy.
  EndpointId GatekeeperClientEndpoint(GatekeeperId id) const {
    return remote_gatekeepers_ ? gk_client_endpoints_[id]
                               : gatekeepers_[id]->client_endpoint();
  }
  bool remote_gatekeepers() const { return remote_gatekeepers_; }
  Shard& shard(ShardId id) { return *shards_[id]; }
  std::size_t num_gatekeepers() const { return options_.num_gatekeepers; }
  std::size_t num_shards() const { return shards_.size(); }
  ProgramRegistry& programs() { return *programs_; }
  ProgramCache& program_cache() { return program_cache_; }

  // --- Observability (docs/observability.md) ---------------------------------

  /// Cluster-wide metrics: this process's registry snapshot plus, for
  /// remote deployments, a fresh MetricsReport from every shard-server
  /// process.
  struct ClusterMetrics {
    obs::MetricsSnapshot local;
    /// One report per remote shard process, sorted by shard id. Empty for
    /// in-process deployments (every component already lives in `local`).
    std::vector<MetricsReportMessage> remote;
    /// local + every remote snapshot, folded associatively.
    obs::MetricsSnapshot Merged() const;
  };

  /// Snapshots the cluster's metrics. Remote deployments request a
  /// MetricsReport from every shard-server process and wait up to
  /// `timeout_micros` for all replies (TimedOut if any is missing); the
  /// reported inbox depths also refresh MessageBus::QueueDepth for the
  /// remote shard endpoints.
  Result<ClusterMetrics> CollectMetrics(
      std::uint64_t timeout_micros = 1'000'000);

  /// This process's instrument registry (every in-process component
  /// exports into it).
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Sampled commit/program span log (WeaverOptions::trace_sample_every).
  obs::TraceLog& trace() { return trace_; }

  /// Deterministic helpers for tests with start = false.
  void PumpAll();  // one announce + NOP round, then drain every shard

  // --- Session-layer support (src/client/) -----------------------------------

  /// Sleeps for the simulated backing-store round trip when configured
  /// (blocking commit wrappers pay it on the caller's thread; pipelined
  /// batches pay one per ingress batch instead). No-op for empty batches.
  void PayCommitDelay(std::size_t num_ops);
  /// Writes an executed commit's outcome back onto the shell a moved-from
  /// transaction left behind, so tx->timestamp()/committed() keep working
  /// for blocking callers.
  static void AnnotateCommitOutcome(Transaction* tx, const CommitResult& r);

  /// Sessions register their reply router keyed by the gatekeeper they
  /// are pinned to. When that gatekeeper is an out-of-parent process and
  /// it crashes, its in-flight client requests die with it -- no reply
  /// will ever arrive -- so the supervisor fails the registered routers'
  /// outstanding calls with Unavailable and clients resubmit (commits are
  /// acked only after the parent-side store apply, so resubmitting an
  /// already-applied write re-validates and is benign). Returns a
  /// registration id for UnregisterSessionRouter.
  std::uint64_t RegisterSessionRouter(GatekeeperId gk,
                                      std::weak_ptr<ReplyRouter> router);
  void UnregisterSessionRouter(std::uint64_t registration);
  /// Fails every outstanding call on sessions pinned to `gk`
  /// (supervisor's gatekeeper-crash fence).
  void FailSessionCalls(GatekeeperId gk, const Status& status);

 private:
  friend class Transaction;
  friend class ShardSupervisor;
  explicit Weaver(const WeaverOptions& options);

  /// Rebuilds a live transaction from a decoded ClientCommit message:
  /// resumes the OCC read set against this deployment's backing store and
  /// adopts the buffered ops + placements. The ingress executor runs it
  /// through CommitOnGatekeeper like any local transaction.
  Transaction RehydrateCommit(ClientCommitMessage& msg);

  /// True when shard `s` can receive messages. In-process deployments
  /// check the server object (fault injection nulls it); remote shards
  /// consult the supervisor's down bitmap (always alive when supervision
  /// is off -- a dead one fails the Send instead).
  bool ShardAlive(std::size_t s) const {
    if (remote_shards_) {
      return remote_down_ == nullptr ||
             !remote_down_[s].load(std::memory_order_relaxed);
    }
    return s < shards_.size() && shards_[s] != nullptr;
  }
  EndpointId ShardEndpoint(std::size_t s) const {
    return shard_endpoints_[s];
  }

  ShardId PlaceNewNode(NodeId id);
  /// Round-robin gatekeeper choice shared by Commit and RunProgram.
  GatekeeperId NextGatekeeperId() {
    return static_cast<GatekeeperId>(
        next_gk_.fetch_add(1, std::memory_order_relaxed) %
        options_.num_gatekeepers);
  }
  /// Resolves placements and runs the commit protocol on `gk` (both the
  /// blocking wrapper and the client ingress land here).
  Status CommitOnGatekeeper(Transaction* tx, Gatekeeper& gk);

  // --- Out-of-parent gatekeeper agent (remote_gatekeeper_fds) ---------------

  /// Applies one StoreCommit attempt from gatekeeper process
  /// `m->gatekeeper` at the timestamp it issued and answers with the
  /// ApplyOutcome image. Agent worker thread.
  void HandleStoreCommit(std::shared_ptr<StoreCommitMessage> m);
  /// The GC watermark from live gatekeeper state (invalid until every
  /// gatekeeper has reported), and the one the last GC round published.
  RefinableTimestamp ComputeWatermark();
  RefinableTimestamp StoreWatermark();
  /// Seeds a node program a gatekeeper process timestamped; the
  /// completion routes the reply back through its control endpoint.
  void HandleGkProgramStart(std::shared_ptr<GkProgramStartMessage> m);
  void EnqueueAgentWork(std::function<void()> work);
  void AgentWorkerLoop();
  void StopAgentPool();
  /// Boot-time recovery (paper §4.3 generalized to full-deployment
  /// restart): installs every vertex blob the KvStore recovered into its
  /// owning shard, repopulates the locator, and advances the id
  /// allocators past every recovered id.
  void RestoreFromBackingStore();
  /// One in-flight node program as the coordinator sees it: seed count
  /// plus the accounting deltas shards report. The program is quiescent
  /// -- no hop executing or in flight anywhere -- exactly when
  /// consumed == spawned + starts (credit counting: every hop is counted
  /// spawned once, by the coordinator for seeds or by the shard that
  /// created it, and consumed once, by the shard that executed or
  /// coalesced it; shards report spawns causally before the spawned hops
  /// can be consumed downstream).
  struct ProgramExecution {
    /// Fresh per execution (NOT the timestamp's event id: historical
    /// queries re-run old timestamps, and two executions of one
    /// timestamp must not share shard-side state or tombstones).
    ProgramId pid = 0;
    RefinableTimestamp ts;
    std::uint64_t starts = 0;
    std::uint64_t consumed = 0;
    std::uint64_t spawned = 0;
    std::uint64_t visited = 0;
    std::uint64_t cycles = 0;
    std::uint64_t forwarded_batches = 0;
    std::uint64_t accounting_msgs = 0;
    std::vector<std::pair<NodeId, std::string>> returns;
    std::vector<bool> touched;  // shards that reported accounting
    Status failure;             // non-OK: abort (peer down, runaway)
    std::function<void(Result<ProgramResult>)> done;
    std::uint64_t begin_ns = 0;  // seed time (coord.program_latency)
    bool traced = false;         // record a TraceSpan on completion
  };

  /// Seed + quiescence side of the decentralized execution (shared by
  /// every Run* entry point). `gk` (may be null for historical queries)
  /// receives the coordinator work attribution. `done` fires exactly
  /// once.
  void ExecuteProgramAsync(std::string_view name,
                           std::vector<NextHop> starts,
                           const RefinableTimestamp& ts, Gatekeeper* gk,
                           std::function<void(Result<ProgramResult>)> done);
  /// Blocking wrapper over ExecuteProgramAsync.
  Result<ProgramResult> ExecuteProgram(std::string_view name,
                                       std::vector<NextHop> starts,
                                       const RefinableTimestamp& ts,
                                       Gatekeeper* gk);
  /// Coordinator endpoint delivery: merges one accounting delta and
  /// completes the execution on quiescence or failure.
  void OnWaveAccounting(const std::shared_ptr<WaveAccountingMessage>& m);
  /// Coordinator endpoint delivery of one shard-server process's registry
  /// snapshot (reply to a MetricsRequest). Refreshes the remote inbox
  /// depth and completes a pending CollectMetrics when all replies are in.
  void OnMetricsReport(const std::shared_ptr<MetricsReportMessage>& m);
  /// Sends a MetricsRequest (id `rid`) to every remote shard; returns how
  /// many sends succeeded. never_block: this may run on the GC thread.
  std::size_t RequestRemoteMetrics(std::uint64_t rid);
  /// GC-thread hook: fires an unsolicited metrics poll when the configured
  /// period elapsed (replies refresh remote depths; nobody waits on them).
  void MaybePollRemoteMetrics();
  /// Tears down a finished execution: EndProgram broadcast (touched
  /// shards on success, every live shard on abort) and the done
  /// callback. Runs outside executions_mu_.
  void CompleteExecution(std::unique_ptr<ProgramExecution> ex);
  /// Fails every still-registered execution (shutdown).
  void FailAllExecutions(const Status& status);

  WeaverOptions options_;
  /// Observability state. Declared before every component so it is
  /// destroyed after them all: components deregister their instruments in
  /// their destructors (DropPrefix), which must find the registry alive.
  obs::MetricsRegistry metrics_;
  obs::TraceLog trace_;
  std::unique_ptr<MessageBus> bus_;
  std::unique_ptr<KvStore> kv_;
  TimelineOracle oracle_;
  /// This process's oracle handle (constructed in the ctor after the
  /// endpoint layout is registered; GC watermarks flow through it). With
  /// oracle_service it holds the replica; oracle_ is then unused.
  std::unique_ptr<OracleClient> oracle_client_;
  std::shared_ptr<ProgramRegistry> programs_;
  std::unique_ptr<NodeLocator> locator_;
  /// Placement decisions run under partition_mu_ (the LDG partitioner
  /// mutates per-shard load state); set once at Open, before any thread.
  std::unique_ptr<Partitioner> partitioner_;
  /// In-process shard servers; all null in remote-shard deployments.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<EndpointId> shard_endpoints_;  // stable across recovery
  bool remote_shards_ = false;
  /// Outbound transports + inbound wire links, one per remote shard
  /// (the links also hub-forward shard-to-shard frames).
  std::vector<std::shared_ptr<Transport>> remote_shard_transports_;
  std::vector<std::unique_ptr<WireLink>> links_;
  /// weaver-oracled wiring (WeaverOptions::oracle_service): the outbound
  /// transport, its inbound link, and the layout's oracle endpoints.
  bool remote_oracle_ = false;
  std::shared_ptr<Transport> oracle_transport_;
  std::unique_ptr<WireLink> oracle_link_;
  EndpointId oracle_endpoint_ = 0;
  std::vector<EndpointId> oracle_client_endpoints_;  // per shard
  EndpointId parent_oracle_client_endpoint_ = 0;
  std::vector<std::unique_ptr<Gatekeeper>> gatekeepers_;
  /// Out-of-parent gatekeeper wiring (WeaverOptions::remote_gatekeeper_fds):
  /// gatekeepers_ stays empty; each gatekeeper process gets an outbound
  /// transport, remote proxies at its server/ingress/control layout ids,
  /// a parent-side agent endpoint, and an inbound link.
  bool remote_gatekeepers_ = false;
  std::vector<std::shared_ptr<Transport>> remote_gatekeeper_transports_;
  std::vector<std::unique_ptr<WireLink>> gatekeeper_links_;
  std::vector<EndpointId> gk_server_endpoints_;
  std::vector<EndpointId> gk_client_endpoints_;
  std::vector<EndpointId> gk_agent_endpoints_;
  std::vector<EndpointId> gk_control_endpoints_;
  /// Agent work (StoreCommit applies, program seeds) runs on this pool,
  /// never on a link's receive thread -- applies sleep (commit delay) and
  /// take the commit gate.
  Mutex agent_mu_;
  std::condition_variable agent_cv_;
  std::deque<std::function<void()>> agent_queue_ GUARDED_BY(agent_mu_);
  bool agent_stop_ GUARDED_BY(agent_mu_) = false;
  std::vector<std::thread> agent_workers_;
  /// Last GkWatermark from each gatekeeper process (GC input); invalid
  /// until the first report arrives.
  Mutex gk_wm_mu_;
  std::vector<RefinableTimestamp> gk_watermarks_ GUARDED_BY(gk_wm_mu_);
  /// Watermark of the last GC round, read by both store-apply paths
  /// (CommitOnGatekeeper, HandleStoreCommit); invalid before the first.
  Mutex store_wm_mu_;
  RefinableTimestamp store_watermark_ GUARDED_BY(store_wm_mu_);
  ClusterManager cluster_;
  EndpointId coordinator_endpoint_ = 0;
  /// Reply endpoint + router for the deployment-internal blocking
  /// wrappers (Weaver::Commit on a started deployment).
  std::shared_ptr<ReplyRouter> internal_replies_;
  EndpointId internal_reply_endpoint_ = 0;

  /// Session reply routers by registration id (RegisterSessionRouter):
  /// the gatekeeper each session is pinned to, plus a weak ref so a
  /// racing ~Session never has its router resurrected here.
  Mutex session_routers_mu_;
  std::uint64_t next_session_router_ GUARDED_BY(session_routers_mu_) = 1;
  std::map<std::uint64_t, std::pair<GatekeeperId, std::weak_ptr<ReplyRouter>>>
      session_routers_ GUARDED_BY(session_routers_mu_);

  // In-flight node programs keyed by execution id (freshly allocated
  // per run from next_program_id_ -- see ProgramExecution::pid).
  Mutex executions_mu_;
  std::unordered_map<ProgramId, std::unique_ptr<ProgramExecution>>
      executions_ GUARDED_BY(executions_mu_);

  ProgramCache program_cache_;
  Status storage_status_;  // non-OK when the durable store failed to open
  std::uint64_t recovered_vertices_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> next_node_id_{1};
  std::atomic<std::uint64_t> next_edge_id_{1};
  std::atomic<std::uint64_t> next_gk_{0};
  std::atomic<std::uint64_t> next_program_id_{1};
  /// Lane ids for blocking-wrapper commits routed through the client
  /// ingress: the high bit keeps them disjoint from session ids (which
  /// are bus endpoint ids, and so fit in 32 bits).
  std::atomic<std::uint64_t> next_internal_lane_{1ull << 63};

  Mutex partition_mu_;  // serializes placement decisions

  // Cluster-wide metrics collection (remote deployments): CollectMetrics
  // registers a pending entry keyed by request id; coordinator-delivered
  // MetricsReports fill it and signal the waiter. Unsolicited reports
  // (background poll, late replies) just refresh remote depths.
  Mutex metrics_mu_;
  std::condition_variable metrics_cv_;
  std::atomic<std::uint64_t> next_metrics_request_{1};
  struct MetricsCollection {
    std::vector<MetricsReportMessage> reports;
    std::size_t expected = 0;
    bool failed = false;  // shutdown before completion
  };
  std::unordered_map<std::uint64_t, MetricsCollection> metrics_pending_
      GUARDED_BY(metrics_mu_);
  std::uint64_t last_metrics_poll_ns_ = 0;  // GC-thread private

  // Coordinator-side program instruments (owned by metrics_).
  obs::Counter* coord_programs_completed_ = nullptr;
  obs::Counter* coord_programs_aborted_ = nullptr;
  obs::Counter* coord_program_hops_ = nullptr;
  obs::Counter* coord_accounting_msgs_ = nullptr;
  /// Versions and edges pruned from rewritten backing-store blobs.
  obs::Counter* backing_versions_pruned_ = nullptr;
  obs::LatencyHistogram* coord_program_latency_ = nullptr;

  // Periodic GC timer (paper §4.5).
  std::thread gc_thread_;
  Mutex gc_mu_;
  std::condition_variable gc_cv_;
  bool stop_gc_ GUARDED_BY(gc_mu_) = false;

  // Bulk-load bookkeeping: shard -> vertices needing a durable flush.
  Mutex bulk_mu_;
  RefinableTimestamp bulk_ts_ GUARDED_BY(bulk_mu_);
  std::vector<std::vector<NodeId>> bulk_dirty_ GUARDED_BY(bulk_mu_);

  // Endpoints of killed shards, kept for recovery reattachment.
  std::unordered_map<ShardId, EndpointId> dead_shard_endpoints_;

  // --- Shard-process supervision (docs/fault_tolerance.md) -----------------

  /// Commit/recovery gate. Commits and program seeding hold it SHARED;
  /// the supervisor holds it EXCLUSIVE across the wire-sequence reset +
  /// backing-store scan + partition replay, so no slice or hop batch can
  /// interleave with the replay stream. Lock order: the epoch barrier
  /// (which takes every clock lock) runs BEFORE the exclusive acquisition
  /// and never under it.
  SharedMutex commit_gate_;
  /// Per-shard down flags (remote deployments with supervision only):
  /// set the moment a crash is detected so ShardAlive fast-fails new work
  /// with Unavailable instead of letting it hang on a dead socket.
  std::unique_ptr<std::atomic<bool>[]> remote_down_;
  /// Declared last: destroyed (and explicitly stopped in Shutdown) before
  /// every component it watches.
  std::unique_ptr<ShardSupervisor> supervisor_;
};

}  // namespace weaver
