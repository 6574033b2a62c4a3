// Shard server: stores one partition of the multi-version graph in memory
// and executes transactions and node programs in refinable-timestamp order
// (paper §3.2, §4.1, §4.2).
//
// Execution model (Fig 6): the shard keeps one FIFO queue of incoming
// transactions per gatekeeper. Per-gatekeeper streams arrive in timestamp
// order over FIFO bus channels, so each queue is sorted; the event loop
// repeatedly executes the globally-least queue head, by vector clock, and
// concurrent heads in arrival order (concurrent transactions never write
// the same vertex). The timeline oracle, through the caching
// OrderResolver, is the reactive stage of refinable timestamps: the shard
// consults it only to order a concurrent transaction against a node
// program (a transaction head in the delay rule, or a version a program
// reads). NOP transactions guarantee every queue always has a head,
// bounding the wait; they never reach the oracle.
//
// Node programs (paper §4.1, §4.5; docs/node_programs.md): execution is
// decentralized. Hop batches arrive from the coordinator (start wave) or
// directly from peer shards; the first batch for a program installs a
// ProgramContext that interns the registry lookup, timestamp, and
// visibility order function once. A program's hops are delayed until
// every queue head is strictly after its timestamp -- i.e. all preceding
// and concurrent transactions have executed -- a check that is sticky
// (heads only advance), so it runs once per (shard, program). Eligible
// hops execute as a local worklist (a traversal that stays on this shard
// never leaves it); hops owned by peers batch into one message per peer
// per drain cycle; exact (vertex, params) duplicates coalesce at ingress,
// and VisitOnce programs prune every hop to an already-claimed vertex.
// Each cycle ends with an accounting delta to the coordinator, which
// detects quiescence by credit counting. Per-program scratch state lives
// here until the coordinator sends EndProgram (paper §4.5).
//
// Thread ownership (why this class has no mutexes and no GUARDED_BY
// annotations -- docs/static_analysis.md): the shard is single-threaded
// by design. Every mutable structure (graph, queues, program contexts,
// scratch state) is owned by the event-loop thread, which is the only
// thread that touches it; cross-thread communication happens exclusively
// through the inbox BlockingQueue (annotated, common/queue.h) on the way
// in and bus sends on the way out, and the handful of values other
// threads may read (diagnostic gauges, the running flag) are atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/id_set.h"
#include "common/ids.h"
#include "common/queue.h"
#include "core/locator.h"
#include "core/messages.h"
#include "core/node_program.h"
#include "graph/graph_store.h"
#include "net/bus.h"
#include "obs/metrics.h"
#include "order/resolver.h"

namespace weaver {

class Shard {
 public:
  struct Options {
    ShardId id = 0;
    std::size_t num_gatekeepers = 1;
    MessageBus* bus = nullptr;
    /// In-process oracle (single-process deployments and shard servers
    /// without the oracle service). Wrapped in an owned local-mode
    /// OracleClient. Exactly one of oracle / oracle_client must be set.
    TimelineOracle* oracle = nullptr;
    /// Externally owned client (remote-oracle shard servers,
    /// coord/serverd). Remote calls can fail mid-failover; the shard
    /// parks waves and aborts programs with a retriable Unavailable
    /// instead of inventing an order.
    OracleClient* oracle_client = nullptr;
    std::shared_ptr<const ProgramRegistry> programs;
    /// Vertex -> shard directory used to route forwarded program hops.
    NodeLocator* locator = nullptr;
    /// Reuse an existing endpoint (shard recovery keeps its address).
    EndpointId reuse_endpoint = kNoEndpoint;
    /// Inbox capacity; senders block once this many messages are queued
    /// (bounded-queue backpressure). 0 keeps the historical unbounded
    /// inbox.
    std::size_t inbox_capacity = 0;
    /// Stop batch-draining the inbox into the per-gatekeeper queues while
    /// more than this many transactions are already queued, so inbox
    /// depth reflects real backlog and upstream producers (NOP timers)
    /// can see it and back off. The event loop still consumes at least
    /// one message per iteration, so starved queues always refill.
    /// 0 disables the throttle.
    std::size_t queue_high_water = 0;
    /// Max program hops executed per context per drain cycle. Bounds how
    /// long program work can monopolize the event loop before control
    /// returns to Route() -- which is also what lets a coordinator abort
    /// (EndProgram) interrupt a runaway program. Leftover hops carry to
    /// the next cycle. Default mirrors
    /// WeaverOptions::shard_max_hops_per_cycle (the deployment always
    /// overwrites this; keep the two in sync).
    std::size_t max_hops_per_cycle = 2048;
    /// When set, the shard exports its counters and queue gauges under
    /// "shard<id>." names and answers kMsgMetricsRequest with a registry
    /// snapshot (docs/observability.md). The registry must outlive the
    /// shard; the shard drops its names in its destructor.
    obs::MetricsRegistry* metrics = nullptr;
    /// Collect `oracle` at the kMsgGc watermark too. Shard-server
    /// processes own their oracle REPLICA, so the parent's GC watermark
    /// reaches it only through the shard (true in coord/serverd);
    /// in-process deployments share one oracle that Weaver collects
    /// itself (false).
    bool gc_oracle = false;
  };
  static constexpr EndpointId kNoEndpoint = ~0u;

  struct Stats {
    std::atomic<std::uint64_t> txs_applied{0};
    std::atomic<std::uint64_t> nops_processed{0};
    std::atomic<std::uint64_t> op_apply_errors{0};
    /// Program drain cycles executed (the decentralized "wave" analog).
    std::atomic<std::uint64_t> waves_executed{0};
    std::atomic<std::uint64_t> wave_delays{0};  // eligibility re-checks
    std::atomic<std::uint64_t> vertices_executed{0};
    /// Program hops consumed (executed or coalesced away).
    std::atomic<std::uint64_t> hops_consumed{0};
    /// Hops forwarded to peer shards, and the batch messages carrying
    /// them (the shard-to-shard traffic the coordinator never sees).
    std::atomic<std::uint64_t> hops_forwarded{0};
    std::atomic<std::uint64_t> hop_batches_sent{0};
    /// Exact (vertex, params) duplicates dropped at ingress.
    std::atomic<std::uint64_t> hops_coalesced{0};
    /// Hops to already-claimed vertices dropped at the spot (VisitOnce
    /// programs only).
    std::atomic<std::uint64_t> hops_pruned{0};
    /// ProgramContexts installed (first hop batch per program).
    std::atomic<std::uint64_t> contexts_installed{0};
    std::atomic<std::uint64_t> gc_rounds{0};
    std::atomic<std::uint64_t> seq_violations{0};
    /// Order resolutions that hit an unreachable oracle (failover in
    /// progress): the wave was parked or the program aborted retriably.
    std::atomic<std::uint64_t> oracle_stalls{0};
    /// Program cycles that ran with a reduced hop budget because the
    /// inbox was backlogged (AdaptiveHopBudget).
    std::atomic<std::uint64_t> hop_budget_throttles{0};
    /// Nanoseconds spent routing and executing work (excludes idle waits).
    std::atomic<std::uint64_t> busy_ns{0};
    /// Nanoseconds spent on per-operation work only: applying transaction
    /// ops and executing program hops (excludes NOP/background routing).
    /// This is the per-op service demand the Fig 12/13 scaling benches'
    /// model uses.
    std::atomic<std::uint64_t> op_work_ns{0};
    /// The program-hop share of op_work_ns: RunProgramCycle time only
    /// (executing, pruning and routing hops; the accounting and
    /// hop-batch sends at the end of a cycle are not counted).
    std::atomic<std::uint64_t> hop_exec_ns{0};
  };

  explicit Shard(Options options);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  ShardId id() const { return options_.id; }
  EndpointId endpoint() const { return endpoint_; }

  /// Installs the shard-id -> endpoint table used to forward program
  /// hops to peers (deployment wiring happens after all shards are
  /// constructed). Call before Start().
  void SetShardEndpoints(std::vector<EndpointId> endpoints) {
    shard_endpoints_ = std::move(endpoints);
  }

  /// Starts the event-loop thread.
  void Start();
  /// Stops and joins the event loop (idempotent).
  void Stop();

  /// Deterministic alternative to Start(): processes queued messages on
  /// the caller's thread until no further progress is possible.
  void ProcessUntilIdle();

  /// Direct access for loading and inspection. The caller must guarantee
  /// the event loop is not running concurrently (tests, bulk load,
  /// recovery).
  GraphStore& graph() { return graph_; }
  OrderResolver& resolver() { return resolver_; }

  const Stats& stats() const { return stats_; }

  /// Number of transactions currently queued (diagnostics).
  std::size_t QueuedTransactions() const;

  /// Live per-program scratch-state tables / contexts (diagnostics:
  /// both drop to zero once EndProgram lands for every finished
  /// program). Atomic gauges, safe to read while the event loop runs.
  std::size_t ProgramStateCount() const {
    return live_state_tables_.load(std::memory_order_relaxed);
  }
  std::size_t ProgramContextCount() const {
    return live_contexts_.load(std::memory_order_relaxed);
  }

 private:
  struct QueueEntry {
    RefinableTimestamp ts;
    std::vector<GraphOp> ops;  // empty for NOPs / uninvolved slices
    bool is_nop = false;
    std::uint64_t arrival = 0;
  };

  /// Per-(shard, program) execution state, installed on first hop batch.
  /// Interned once: the registry lookup, the timestamp, and the
  /// visibility order function -- the per-wave costs of the old
  /// barrier design.
  struct ProgramContext {
    RefinableTimestamp ts;
    std::string name;  // forwarded verbatim in hop batches
    const NodeProgram* program = nullptr;  // null: name not registered
    OrderFn order;
    EndpointId coordinator = 0;
    /// This program's per-vertex scratch-state table (interned pointer
    /// into program_state_; mapped references are rehash-stable).
    /// Unused by VisitOnce programs: a vertex runs at most once there,
    /// so no hop can ever read the state an earlier one left.
    std::unordered_map<NodeId, std::any>* states = nullptr;
    /// program->VisitOnce(): the first hop to reach a vertex decides.
    bool visit_once = false;
    /// Claim set (VisitOnce programs only): every vertex this shard has
    /// queued a hop for -- pending or already executed -- and every
    /// peer-owned vertex it has forwarded one to. One insert per hop
    /// decides it: a hop whose vertex is already claimed is a provable
    /// no-op, pruned before any owner lookup, queueing or bus crossing.
    IdSet claimed;
    /// Delay rule passed (paper §4.1). Sticky: queue heads only advance,
    /// so once every head is strictly after ts it stays that way.
    bool eligible = false;
    std::deque<NextHop> pending;
    /// Ingress coalescing index over `pending` (programs without
    /// VisitOnce; the claim set covers the others): vertex -> (params
    /// hash, pointer to the queued hop's params). An arriving exact
    /// duplicate -- hash match confirmed by a full compare -- is consumed
    /// on the spot. Pointers target live deque elements (std::deque
    /// references survive push/pop at the other end; each entry is
    /// unindexed before its element pops), so no params string is ever
    /// copied.
    std::unordered_map<NodeId,
                       std::vector<std::pair<std::size_t, const std::string*>>>
        pending_keys;
    /// Consumption credit for hops coalesced since the last cycle.
    std::uint64_t coalesced_credit = 0;
  };

  void Loop();
  void Route(const BusMessage& msg);
  /// Registers this shard's instruments under "shard<id>." (ctor).
  void ExportMetrics();
  /// Replies to a metrics scrape with this process's registry snapshot.
  void OnMetricsRequest(const MetricsRequestMessage& req);
  /// Refreshes the queued-transaction gauge + high-water mark (loop
  /// thread; the gauges are atomics so scrapers read them safely).
  void NoteQueueDepth();
  /// Runs eligible transactions and program hops; returns when blocked
  /// on input.
  void ProcessReady();
  bool AllQueuesNonEmpty() const;
  /// Index of the queue whose head is ordered first.
  std::size_t PickMinHead();
  void ApplyEntry(const QueueEntry& entry);
  /// Delay rule (paper §4.1): true once every queue head is ordered
  /// strictly after `prog_ts`. NOP heads are decided by vector clock
  /// alone; only concurrent transaction heads consult the oracle.
  bool WaveEligible(const RefinableTimestamp& prog_ts);

  /// Ingests a hop batch: installs the context on first contact, then
  /// claims (ClaimHops) and queues (QueueLocalHop) its hops.
  void OnHopBatch(WaveHopBatchMessage& batch);
  /// VisitOnce programs: claims the vertex of every hop in `hops` and
  /// erases each hop whose vertex an earlier hop already claimed; returns
  /// how many were erased (counted in hops_pruned). Other programs: no-op.
  std::size_t ClaimHops(ProgramContext& ctx, std::vector<NextHop>& hops);
  /// Queues one local hop that ClaimHops has passed: VisitOnce hops go
  /// straight on the worklist; any other hop is dropped when an exact
  /// (vertex, params) duplicate is already pending. Returns false when
  /// coalesced.
  bool QueueLocalHop(ProgramContext& ctx, NextHop hop);
  /// Executes up to AdaptiveHopBudget() pending hops of one eligible
  /// program, forwards spawned hops, and reports the accounting delta.
  void RunProgramCycle(ProgramId pid, ProgramContext& ctx);
  /// Per-cycle hop budget, scaled down against inbox pressure: at or
  /// past queue_high_water the budget bottoms out at 1/16th of
  /// max_hops_per_cycle, so a read-heavy program cannot starve the
  /// transactional pipeline the backlog is waiting on.
  std::size_t AdaptiveHopBudget();
  /// Runs a cycle for every eligible context with pending hops; returns
  /// true if any hop executed.
  bool RunEligiblePrograms();
  /// True while some eligible context has pending hops (the event loop
  /// must not block on the inbox).
  bool HasRunnableProgramWork() const;
  void FinishProgram(ProgramId pid);

  void RunGc(const RefinableTimestamp& watermark);

  /// Visibility order of a write concurrent (by vector clock) with a
  /// program's read: write-wins preference (transactions order before
  /// programs when no order exists, paper §4.1), refined by the oracle.
  ClockOrder ResolveVisibility(const RefinableTimestamp& write_ts,
                               const RefinableTimestamp& read_ts);
  /// Per-program order function for multi-version visibility checks:
  /// vector clock first, then a one-entry memo on the last concurrent
  /// write, then a per-program map, and only then ResolveVisibility.
  OrderFn VisibilityOrderFn();

  Options options_;
  EndpointId endpoint_ = 0;
  std::shared_ptr<BlockingQueue<BusMessage>> inbox_;
  std::vector<EndpointId> shard_endpoints_;  // ShardId -> EndpointId

  GraphStore graph_;
  /// Set iff Options::oracle was given: the local-mode client wrapping
  /// it. Declared before resolver_, which points at it.
  std::unique_ptr<OracleClient> owned_oracle_client_;
  OrderResolver resolver_;
  std::vector<std::deque<QueueEntry>> gk_queues_;
  std::vector<std::uint64_t> last_channel_seq_;  // FIFO assertions per gk
  std::uint64_t arrival_counter_ = 0;

  // Per-program execution contexts and per-vertex scratch state (paper
  // §2.3, §4.5), both GC'd on EndProgram.
  std::unordered_map<ProgramId, ProgramContext> contexts_;
  std::unordered_map<ProgramId, std::unordered_map<NodeId, std::any>>
      program_state_;
  /// Recently finished programs (bounded): late hop batches racing an
  /// abort must not reinstall a context. Normal completion cannot race
  /// (quiescence implies no batch is in flight).
  std::unordered_set<ProgramId> finished_;
  std::deque<ProgramId> finished_order_;

  /// Set by ResolveVisibility when the oracle was unreachable and a
  /// deterministic fallback order was used; RunProgramCycle checks it
  /// after each hop and aborts the program retriably (the fallback
  /// answer must never become an acknowledged result). Loop-thread
  /// owned.
  bool oracle_stall_ = false;

  std::thread loop_thread_;
  std::atomic<bool> running_{false};

  /// Gauges mirroring contexts_.size() / program_state_.size() for the
  /// thread-safe diagnostics above (the maps themselves are loop-thread
  /// private).
  std::atomic<std::size_t> live_contexts_{0};
  std::atomic<std::size_t> live_state_tables_{0};

  /// Queued-transaction gauge + high-water mark, refreshed by the loop
  /// thread (gk_queues_ itself is loop-thread private).
  std::atomic<std::size_t> queued_txs_{0};
  std::atomic<std::size_t> queue_high_water_mark_{0};

  Stats stats_;
};

}  // namespace weaver
