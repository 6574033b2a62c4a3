// Wire message schemas exchanged over the MessageBus between gatekeepers,
// shard servers, node-program coordinators, and client sessions.
//
// Every schema here is PLAIN DATA -- ids, timestamps, byte strings,
// vectors -- with an Encode/Decode pair in core/message_codec.h, so a
// deployment can carry any of them across a process boundary
// (docs/transport.md). In particular there are no callbacks: client
// requests carry a reply endpoint + request id, and the gatekeeper
// answers with ClientCommitReply / ClientProgramReply messages that the
// session's reply endpoint routes back to the waiting Pending<T>
// (docs/client_api.md). Node-program params, per-hop state, and return
// values are opaque byte strings serialized by the programs themselves
// (core/node_program.h), exactly as they would be on a real wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/graph_op.h"
#include "core/node_program.h"
#include "net/bus.h"
#include "obs/metrics.h"
#include "order/timestamp.h"
#include "vclock/vclock.h"

namespace weaver {

enum MsgTag : std::uint32_t {
  kMsgTx = 1,        // gatekeeper -> shard: committed transaction slice
  kMsgNop = 2,       // gatekeeper -> shard: queue-head keep-alive (§4.2)
  kMsgAnnounce = 3,  // gatekeeper -> gatekeeper: vector clock announce
  kMsgWaveHops = 4,  // coordinator/shard -> shard: batched program hops
  kMsgEndProgram = 5,  // coordinator -> shard: program done, GC its state
  kMsgGc = 6,        // deployment -> shard: multi-version GC watermark
  kMsgStop = 7,      // deployment -> shard: shut down event loop
  kMsgClientCommit = 8,   // session -> gatekeeper: async commit request
  kMsgClientProgram = 9,  // session -> gatekeeper: async node program(s)
  kMsgWaveAccounting = 10,  // shard -> coordinator: program progress delta
  kMsgClientCommitReply = 11,   // gatekeeper -> session: commit outcome
  kMsgClientProgramReply = 12,  // gatekeeper -> session: program outcome
  kMsgMetricsRequest = 13,  // parent -> shard server: snapshot your registry
  kMsgMetricsReport = 14,   // shard server -> parent: the snapshot
  kMsgShardReset = 15,  // supervisor -> surviving shard: peer seq state reset
  kMsgShardResetAck = 16,  // surviving shard -> supervisor: reset done
  kMsgPartitionReplay = 17,  // supervisor -> respawned shard: vertex blobs
  kMsgOracleRequest = 18,  // shard/parent -> oracle service: batched ops
  kMsgOracleReply = 19,    // oracle service -> requester: batched decisions
  kMsgJoinRequest = 20,  // joining serverd -> coordinator: handshake open
  kMsgJoinAck = 21,      // coordinator -> joining serverd: verdict
  kMsgRoleAssign = 22,   // coordinator -> joining serverd: role + config
  kMsgStoreCommit = 23,  // gatekeeper process -> parent: apply to kv store
  kMsgStoreCommitReply = 24,  // parent -> gatekeeper process: apply outcome
  kMsgGkProgramStart = 25,  // gatekeeper process -> parent: run a program
  kMsgGkEpochAdvance = 26,  // parent -> gatekeeper process: epoch bump
  kMsgGkWatermark = 27,  // gatekeeper process -> parent: GC watermark
};

/// Committed transaction: ops are the slice destined for the receiving
/// shard (possibly empty -- an empty slice still advances the queue head,
/// doubling as a NOP for uninvolved shards).
struct TxMessage {
  RefinableTimestamp ts;
  std::vector<GraphOp> ops;
};

struct NopMessage {
  RefinableTimestamp ts;
};

struct AnnounceMessage {
  VectorClock clock;
  GatekeeperId from = 0;
};

// --- Decentralized node-program execution (docs/node_programs.md) ----------
//
// Node programs propagate shard-to-shard, scatter/gather style (paper
// §2.3, §4.5): a shard executes the hops it owns and forwards spawned
// hops DIRECTLY to the owning peer shard -- the coordinator only seeds
// the start hops and detects quiescence from per-shard accounting
// deltas (terminate when hops consumed == hops spawned + starts, the
// credit-counting argument: a hop in flight has been counted spawned
// but not yet consumed).

/// A batch of node-program hops addressed to one shard, sent by the
/// coordinator (the start wave) or by a peer shard (forwarded hops; at
/// most one batch per peer per drain cycle). The timestamp, program
/// name, and coordinator address ride along so any shard can install
/// its per-(shard, program) ProgramContext on first contact -- after
/// that the receiver keys everything off program_id alone.
struct WaveHopBatchMessage {
  ProgramId program_id = 0;
  RefinableTimestamp ts;
  std::string program_name;
  /// Where WaveAccountingMessages for this program go.
  EndpointId coordinator = 0;
  /// Visited-vertex pruning is sound for this execution
  /// (NodeProgram::VisitOnce over the start params). Decided once by
  /// the coordinator at seed time and propagated in every batch so all
  /// shards agree.
  bool visit_once = false;
  std::vector<NextHop> hops;
};

/// Progress delta for one drain cycle of one program on one shard. The
/// shard sends this BEFORE forwarding the cycle's spawned hop batches,
/// so the coordinator registers the spawn credits before any downstream
/// shard can report consuming them (the inline-delivery bus makes that
/// ordering causal; the wire transport preserves it with per-channel
/// sequence numbers plus in-order hub forwarding -- docs/transport.md).
struct WaveAccountingMessage {
  ProgramId program_id = 0;
  ShardId shard = 0;
  /// Hops executed this cycle plus duplicates coalesced at ingress
  /// (coalesced hops were counted spawned by their sender and will never
  /// execute, so they are consumed on arrival).
  std::uint64_t hops_consumed = 0;
  /// Hops this shard created and queued locally or forwarded to peers.
  std::uint64_t hops_spawned = 0;
  std::uint64_t vertices_visited = 0;
  /// Drain cycles this delta covers (always 1 today; the ProgramResult
  /// "waves" analog).
  std::uint64_t cycles = 0;
  /// Shard-to-shard hop batch messages sent this cycle.
  std::uint64_t forwarded_batches = 0;
  std::vector<std::pair<NodeId, std::string>> returns;
  /// Non-OK when the shard could not forward hops (e.g. a peer shard is
  /// detached); the coordinator aborts the program with this status.
  Status error;
};

struct EndProgramMessage {
  ProgramId program_id = 0;
};

struct GcMessage {
  RefinableTimestamp watermark;
};

// --- Client ingress (sessions <-> gatekeepers) ------------------------------
//
// Sessions submit work as messages on the bus instead of calling into
// coordinator internals, so many requests from one client can be in
// flight at once (pipelining) and a real transport can carry the same
// schema across processes. Responses come back as reply messages to the
// endpoint named in the request; request ids correlate them. Commit
// requests that share a session_id are executed in channel
// (= submission) order by the gatekeeper's client ingress; requests from
// different sessions -- and program requests generally -- may interleave
// freely.

/// Async commit. The submitter's transaction is detached into plain
/// fields (Transaction::DetachForSubmit): the buffered write ops, the
/// tentative placements of created vertices, and the OCC read set (key ->
/// observed version). The executing gatekeeper rehydrates a transaction
/// against its own backing store (KvStore::Resume) and validates the read
/// versions at commit, so client-side reads keep their serializable
/// guarantee across a process boundary -- version tokens travel with the
/// transaction, Warp style.
struct ClientCommitMessage {
  /// Lane key on the gatekeeper ingress. Submission order within a
  /// session is the bus channel order (channel_seq); there is no
  /// separate sequence field.
  std::uint64_t session_id = 0;
  /// Correlates the ClientCommitReply; unique per session endpoint.
  std::uint64_t request_id = 0;
  /// Where the reply goes (the session's bus endpoint).
  EndpointId reply_to = 0;
  /// True when the submitter already accounted for the simulated
  /// backing-store round trip (blocking wrappers sleep client-side, as the
  /// pre-session API did). Pipelined submissions leave this false and the
  /// ingress amortizes one round trip across each drained batch.
  bool delay_paid = false;
  std::vector<GraphOp> ops;
  std::vector<std::pair<NodeId, ShardId>> created_placements;
  std::vector<std::pair<std::string, std::uint64_t>> read_set;
};

/// One node-program invocation inside a ClientProgramMessage.
struct ProgramRequest {
  std::uint64_t request_id = 0;
  std::string program_name;
  std::vector<NextHop> starts;
  /// Read-your-writes fence (docs/client_api.md#read-your-writes): when
  /// valid, the executing gatekeeper merges this clock before issuing the
  /// program timestamp, so the program's snapshot observes the fenced
  /// commit. Sessions in SetReadYourWrites(true) mode fill it with their
  /// last committed timestamp.
  RefinableTimestamp fence;
};

/// Async node program(s): executed by the receiving gatekeeper's ingress,
/// which doubles as the node-program coordinator (the paper's topology:
/// gatekeepers coordinate node programs). Programs read consistent
/// snapshots and carry no submission-order promise -- each request runs
/// on any free worker, so one session (or one batched message) can have
/// many in flight. A message may carry several requests: a batched
/// fan-out crosses the bus once and fans out inside the ingress.
struct ClientProgramMessage {
  std::uint64_t session_id = 0;
  EndpointId reply_to = 0;
  std::vector<ProgramRequest> requests;
};

/// Commit outcome, addressed to the requesting session's reply endpoint.
/// Carries the commit timestamp because the submitter detached its
/// transaction into the request and can no longer ask it.
struct ClientCommitReplyMessage {
  std::uint64_t session_id = 0;
  std::uint64_t request_id = 0;
  Status status;
  RefinableTimestamp timestamp;
};

/// Node-program outcome for one ProgramRequest. `result` is meaningful
/// only when `status` is OK.
struct ClientProgramReplyMessage {
  std::uint64_t session_id = 0;
  std::uint64_t request_id = 0;
  Status status;
  ProgramResult result;
};

// --- Observability (docs/observability.md) ----------------------------------

/// Asks a shard-server process to snapshot its metrics registry. The
/// reply is addressed to `reply_to` -- in practice the parent's program
/// coordinator, the highest endpoint id a child can address
/// (coord/serverd.h layout contract), whose handler dispatches on the
/// reply tag.
struct MetricsRequestMessage {
  std::uint64_t request_id = 0;
  EndpointId reply_to = 0;
};

/// One process's registry snapshot. `inbox_depth` duplicates the shard's
/// own "shardN.inbox_depth" gauge as a first-class field because the
/// parent feeds it straight into MessageBus::NoteRemoteDepth -- the
/// remote-endpoint half of QueueDepth() -- without a name lookup.
struct MetricsReportMessage {
  std::uint64_t request_id = 0;
  ShardId shard = 0;
  std::uint64_t inbox_depth = 0;
  obs::MetricsSnapshot snapshot;
};

/// `shard` value in reports (and reset acks) from weaver-oracled: the
/// oracle service is not a shard, so consumers indexing by shard id must
/// skip it.
constexpr ShardId kOracleMetricsSource = 0xFFFFFFFFu;

// --- Shard-process recovery (docs/fault_tolerance.md) -----------------------
//
// When a shard process dies, its wire sequence state dies with it: the
// respawned process starts every channel at seq 1, and every SURVIVING
// process still holds the old counters toward the dead endpoint. The
// supervisor heals this with an explicit reset round: each survivor
// resets its bus state toward `target` (on its event loop, serialized
// with its own hop forwarding) and acks; only after every ack does the
// supervisor attach the replacement transport.

/// Supervisor -> surviving shard server: forget all wire sequence state
/// (send channels and receive expectations) toward endpoint `target`.
struct ShardResetMessage {
  EndpointId target = 0;
  /// Correlates the ack; one recovery uses one token for all survivors.
  std::uint64_t token = 0;
  EndpointId reply_to = 0;
};

/// Surviving shard server -> supervisor: reset applied.
struct ShardResetAckMessage {
  ShardId shard = 0;
  std::uint64_t token = 0;
};

/// Supervisor -> respawned shard server: a batch of the partition's
/// vertices read back from the durable backing store (the gatekeepers
/// commit to the store BEFORE forwarding slices, so an acknowledged
/// write is always here). Blobs are GraphStore::SerializeNode output.
struct PartitionReplayMessage {
  ShardId shard = 0;
  std::vector<std::pair<NodeId, std::string>> vertices;
};

// --- Timeline-oracle service (docs/oracle_service.md) -----------------------
//
// When the timeline oracle runs as its own process, shard servers and the
// parent talk to it with batched request/reply messages. Every op in a
// request is applied in order and answered positionally in the reply, so
// one round trip refines a whole wave's worth of concurrent pairs. Enum
// fields travel as raw bytes (the schema layer stays plain data, like
// GraphOp); decoders validate the ranges.

/// One oracle operation inside an OracleRequestMessage.
struct OracleOp {
  enum Type : std::uint8_t {
    kOrderPair = 0,    // order a vs b, establishing per `prefer` if needed
    kAssignEdge = 1,   // establish happens-before a -> b (cycle-checked)
    kCollect = 2,      // GC: drop events whose clocks precede `watermark`
    kSync = 3,         // dump every explicit edge (replica rehydration)
  };
  std::uint8_t type = kOrderPair;
  RefinableTimestamp a;
  RefinableTimestamp b;
  /// OrderPreference for kOrderPair (0 = prefer a first, 1 = prefer b).
  std::uint8_t prefer = 0;
  /// kCollect only.
  VectorClock watermark;
};

/// Batched oracle ops. `reply_to` is the requester's oracle-client reply
/// endpoint (coord/serverd.h layout contract); `request_id` correlates
/// the reply within that endpoint.
struct OracleRequestMessage {
  std::uint64_t request_id = 0;
  EndpointId reply_to = 0;
  std::vector<OracleOp> ops;
};

/// Positional outcome of one OracleOp. `order` is a ClockOrder byte and
/// is meaningful for kOrderPair (never kConcurrent); `status` carries a
/// kAssignEdge cycle rejection (FailedPrecondition) or per-op failure.
struct OracleDecision {
  std::uint8_t order = 0;
  Status status;
};

/// Reply to one OracleRequestMessage: `decisions` answers the ops
/// positionally; `edges` is the full explicit-edge dump when the request
/// contained a kSync op (empty otherwise).
struct OracleReplyMessage {
  std::uint64_t request_id = 0;
  Status status;
  std::vector<OracleDecision> decisions;
  std::vector<std::pair<RefinableTimestamp, RefinableTimestamp>> edges;
};

// --- Cluster bootstrap (docs/transport.md#cluster-bootstrap) ----------------
//
// A standalone weaver-serverd process joins a running coordinator over
// TCP with a three-message handshake: it sends a JoinRequest on its
// fresh connection, the coordinator answers with a JoinAck (accept or a
// refusal status), and an accepted joiner then receives a RoleAssign
// carrying its role, shard assignment, cluster epoch, and the full
// server configuration -- so the binary needs nothing on its command
// line beyond the coordinator's address and a join token. These three
// schemas travel as ordinary CRC-sealed wire frames but DIRECTLY on the
// raw connection, before the socket is adopted into any MessageBus
// (src/cluster/handshake.h); they still get codec + roundtrip coverage
// like every bus schema.

/// Schema-level codec version carried inside JoinRequest/JoinAck, checked
/// EXACTLY at join time: wire::kWireVersion guards the frame layout, this
/// guards the payload schemas on top of it. Bump when any schema changes
/// incompatibly.
constexpr std::uint32_t kWireCodecVersion = 2;

/// What a joining process comes up as after the handshake.
enum class NodeRole : std::uint8_t {
  kShard = 0,
  kOracle = 1,
  kGatekeeper = 2,
  kSpare = 3,
};

/// `shard_id` wildcard in a JoinRequest: "assign me any open slot of my
/// requested role".
constexpr std::uint32_t kAnyShard = 0xFFFFFFFFu;

/// Joining serverd -> coordinator listener. `cluster_epoch` is the epoch
/// the joiner believes current (0 = no expectation, the fresh-exec case);
/// a nonzero stale value is fenced with FailedPrecondition so a process
/// respawned against an old incarnation cannot rejoin.
struct JoinRequestMessage {
  std::uint32_t codec_version = kWireCodecVersion;
  std::uint32_t cluster_epoch = 0;
  NodeRole role = NodeRole::kSpare;
  std::uint32_t shard_id = kAnyShard;
  /// Shared secret for this cluster instance (the supervisor passes it to
  /// exec'd children; shells read it off the coordinator's stdout).
  std::string token;
  std::uint64_t pid = 0;
};

/// Coordinator -> joiner: accept (OK) or refusal. The coordinator's own
/// codec version and epoch ride along either way so a refused joiner can
/// log WHY (version skew, stale epoch) without guessing.
struct JoinAckMessage {
  Status status;
  std::uint32_t codec_version = kWireCodecVersion;
  std::uint32_t cluster_epoch = 0;
};

/// Coordinator -> accepted joiner: everything the process needs to come
/// up in its role. Mirrors serverd::ShardServerOptions field for field
/// (coord/serverd.h owns the authoritative defaults); `cluster_epoch`
/// seeds gatekeeper clocks so a respawned gatekeeper starts past every
/// pre-crash timestamp.
struct RoleAssignMessage {
  NodeRole role = NodeRole::kSpare;
  std::uint32_t shard_id = 0;
  std::uint32_t cluster_epoch = 0;
  /// Shard role only: sync the per-process oracle replica before serving
  /// (the respawn-after-crash path).
  bool rehydrate = false;
  // -- serverd::ShardServerOptions image ------------------------------------
  std::uint32_t num_shards = 0;
  std::uint32_t num_gatekeepers = 0;
  std::uint64_t inbox_capacity = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t max_hops_per_cycle = 0;
  bool remote_oracle = false;
  bool remote_gatekeepers = false;
  std::uint64_t oracle_rpc_timeout_micros = 0;
  std::uint64_t oracle_total_deadline_micros = 0;
  /// Oracle role only: where the durable changelog lives (empty =
  /// memory-only) and its journaling knobs. An exec'd respawn replays
  /// this directory, so it must travel in the assignment.
  std::string oracle_data_dir;
  std::uint64_t oracle_snapshot_every = 0;
  std::uint8_t oracle_fsync = 0;  // storage FsyncPolicy value
  // -- gatekeeper role knobs -------------------------------------------------
  std::uint64_t tau_micros = 0;
  std::uint64_t nop_period_micros = 0;
  std::uint64_t client_workers = 0;
  std::uint64_t client_batch = 0;
  std::uint64_t client_lane_capacity = 0;
  std::uint64_t max_inflight_programs = 0;
  std::uint64_t nop_high_water = 0;
  std::uint64_t announce_capacity = 0;
};

// --- Out-of-parent gatekeepers (docs/transport.md#cluster-bootstrap) --------
//
// When gatekeepers run as their own processes, the vector clock, slot
// sequencer, timers, and client ingress all live in the child; only the
// durable kv apply (OCC validation + write-back) stays with the parent,
// which owns the backing store. The child drives each commit attempt as
// a StoreCommit RPC to its parent-side agent endpoint and fans the
// committed slices out to the shards itself; node programs are handed to
// the parent coordinator with GkProgramStart (the parent owns locator +
// quiescence accounting).

/// Gatekeeper process -> parent agent: validate + apply one commit
/// attempt at the child-issued timestamp. `request_id` correlates the
/// reply on the child's control endpoint.
struct StoreCommitMessage {
  GatekeeperId gatekeeper = 0;
  std::uint64_t request_id = 0;
  RefinableTimestamp ts;
  /// The simulated backing-store round trip is still owed for this
  /// attempt (the parent pays it inside the apply, where the store is).
  bool pay_delay = false;
  std::vector<GraphOp> ops;
  std::vector<std::pair<NodeId, ShardId>> created_placements;
  std::vector<std::pair<std::string, std::uint64_t>> read_set;
};

/// Parent agent -> gatekeeper process: outcome of one StoreCommit.
/// `retry_timestamp` means a last-update conflict: the child merges
/// `conflict_clock`, issues a fresh timestamp, and retries the attempt --
/// the same loop an in-process gatekeeper runs.
struct StoreCommitReplyMessage {
  GatekeeperId gatekeeper = 0;
  std::uint64_t request_id = 0;
  Status status;
  bool retry_timestamp = false;
  bool kv_conflict = false;
  VectorClock conflict_clock;
};

/// Gatekeeper process -> parent coordinator: run a node program at the
/// child-issued (fence-merged) timestamp. The (reply_to, session_id,
/// request_id) triple is the CLIENT's reply address, generated child-side
/// and echoed verbatim in the ClientProgramReply the parent sends to the
/// child's control endpoint, which forwards the result to the session and
/// settles the program slot.
struct GkProgramStartMessage {
  GatekeeperId gatekeeper = 0;
  EndpointId reply_to = 0;
  std::uint64_t session_id = 0;
  std::uint64_t request_id = 0;
  RefinableTimestamp ts;
  std::string program_name;
  std::vector<NextHop> starts;
};

/// Parent -> gatekeeper process control endpoint: advance the cluster
/// epoch (a peer process died). The child applies it under its clock lock
/// exactly like ClusterManager::AdvanceEpochBarrier does in process.
struct GkEpochAdvanceMessage {
  std::uint32_t epoch = 0;
};

/// Gatekeeper process -> parent coordinator: periodic oldest-active
/// timestamp, feeding the parent's GC watermark (the remote analog of
/// polling Gatekeeper::OldestActive in process).
struct GkWatermarkMessage {
  GatekeeperId gatekeeper = 0;
  RefinableTimestamp oldest_active;
};

/// `shard` value in MetricsReports from a gatekeeper process: report
/// sources are one id space, and gatekeeper g reports as
/// kGkMetricsBase + g (never a valid shard id; consumers indexing by
/// shard skip it like kOracleMetricsSource).
constexpr ShardId kGkMetricsBase = 0xFFFFFF00u;

}  // namespace weaver
