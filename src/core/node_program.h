// Node programs: Weaver's read-only graph analysis queries (paper §2.3).
//
// A node program is a stored-procedure-like computation that runs at
// vertices and propagates itself along edges, scatter/gather style. The
// framework mirrors the paper's Fig 3 API:
//
//   * the program runs against a NodeView -- a consistent snapshot of one
//     vertex at the program's refinable timestamp Tprog (multi-version
//     reads, paper §4.1);
//   * prog_params arrive from the previous hop; the program returns a list
//     of (next vertex, params) pairs to visit next;
//   * prog_state is per-(program-instance, vertex) scratch state that
//     persists at the vertex until the program completes everywhere, then
//     is garbage collected (paper §4.5).
//
// Programs are registered by name in a ProgramRegistry; shards look them
// up when executing a wave. Parameters, state, and return values are
// opaque byte strings (programs serialize with ByteWriter/ByteReader),
// exactly as they would be on a real wire.
#pragma once

#include <any>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "graph/graph_store.h"
#include "order/timestamp.h"

namespace weaver {

/// Read-only view of one edge at the program's timestamp.
class EdgeView {
 public:
  EdgeView(const Edge* edge, const RefinableTimestamp* ts,
           const OrderFn* order)
      : edge_(edge), ts_(ts), order_(order) {}

  EdgeId id() const { return edge_->id; }
  NodeId to() const { return edge_->to; }

  std::optional<std::string> GetProperty(std::string_view key) const {
    return edge_->props.ValueAt(key, *ts_, *order_);
  }
  /// edge.check(prop) from the paper's Fig 3: true iff the edge carries
  /// `key` = `value` at the program's timestamp.
  bool Check(std::string_view key, std::string_view value) const {
    return edge_->props.Check(key, value, *ts_, *order_);
  }

 private:
  const Edge* edge_;
  const RefinableTimestamp* ts_;
  const OrderFn* order_;
};

/// Read-only view of one vertex at the program's timestamp.
class NodeView {
 public:
  NodeView(const Node* node, const RefinableTimestamp& ts,
           const OrderFn& order)
      : node_(node), ts_(&ts), order_(&order) {}

  /// False if the vertex does not exist at the program's timestamp (never
  /// created here, created later, or already deleted).
  bool Exists() const {
    return node_ != nullptr && node_->VisibleAt(*ts_, *order_);
  }
  NodeId id() const { return node_ == nullptr ? kInvalidNodeId : node_->id; }

  std::optional<std::string> GetProperty(std::string_view key) const {
    if (!Exists()) return std::nullopt;
    return node_->props.ValueAt(key, *ts_, *order_);
  }
  bool CheckProperty(std::string_view key, std::string_view value) const {
    return Exists() && node_->props.Check(key, value, *ts_, *order_);
  }
  std::vector<std::pair<std::string, std::string>> Properties() const {
    if (!Exists()) return {};
    return node_->props.SnapshotAt(*ts_, *order_);
  }

  /// Calls `fn(const EdgeView&)` for every out-edge visible at the
  /// program's timestamp, without materializing a vector.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    if (!Exists()) return;
    for (const auto& [eid, e] : node_->out_edges) {
      if (e.VisibleAt(*ts_, *order_)) fn(EdgeView(&e, ts_, order_));
    }
  }
  std::size_t OutDegree() const {
    return Exists() ? node_->OutDegreeAt(*ts_, *order_) : 0;
  }

  const RefinableTimestamp& timestamp() const { return *ts_; }

 private:
  const Node* node_;
  const RefinableTimestamp* ts_;
  const OrderFn* order_;
};

/// One propagation target produced by a vertex-level execution.
struct NextHop {
  NodeId node = kInvalidNodeId;
  std::string params;
};

/// Output of one vertex-level execution.
struct ProgramOutput {
  std::vector<NextHop> next_hops;
  /// If set, collected into the client-visible result list.
  std::optional<std::string> return_value;
};

/// Interface implemented by every node program. Implementations must be
/// stateless (all per-query state goes through `state`): one instance
/// serves all concurrent executions.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  virtual std::string_view name() const = 0;
  /// Vertex-level computation (the `node_program` function of Fig 3).
  /// `state` is this program instance's state at this vertex; it holds
  /// no value on first visit.
  virtual void Run(const NodeView& node, const std::string& params,
                   std::any* state, ProgramOutput* out) const = 0;
  /// Declares that, for an execution started with `start_params`, the
  /// FIRST hop to reach a vertex decides everything the program does
  /// there: every later hop to that vertex is a no-op REGARDLESS of its
  /// params (the "if visited then return" pattern of the paper's Fig 3
  /// BFS). Shards then keep one claim set per program: a vertex is
  /// claimed when its first hop is queued (or, for a peer's vertex,
  /// forwarded), and every later hop to a claimed vertex is pruned at
  /// the spot -- pending, visited or already forwarded alike. That is
  /// the dominant hop volume in fan-in-heavy traversals. Each vertex
  /// therefore runs at most once per execution. The coordinator asks
  /// once per execution (per start hop) and the answer rides in every
  /// hop batch, so it must depend only on propagation-invariant params.
  /// Programs whose revisits depend on per-hop params (shortest path's
  /// smaller distance, k-hop's larger budget, label-prop's smaller
  /// label, any depth-budgeted traversal where a later hop can be
  /// shallower) must keep the default false -- decentralized execution
  /// is not level-synchronous, so a vertex may be first reached via a
  /// LONGER path.
  virtual bool VisitOnce(const std::string& start_params) const {
    (void)start_params;
    return false;
  }
};

/// Name -> program lookup shared by all shards of a deployment.
class ProgramRegistry {
 public:
  /// Registers a program; replaces any previous program of the same name.
  void Register(std::unique_ptr<NodeProgram> program);
  const NodeProgram* Find(std::string_view name) const;
  std::vector<std::string> Names() const;

  /// Registry preloaded with the standard programs in src/programs/.
  static std::shared_ptr<ProgramRegistry> WithStandardPrograms();

 private:
  std::unordered_map<std::string, std::unique_ptr<NodeProgram>> programs_;
};

/// Client-visible result of a node program execution.
struct ProgramResult {
  /// (vertex, return blob) pairs. Within one shard returns follow visit
  /// order; across shards they arrive in accounting order, which is not
  /// deterministic -- order-sensitive consumers sort by vertex. A
  /// program whose revisits return again (shortest path, label prop)
  /// yields a per-vertex return STREAM; consumers reduce it per vertex
  /// (min / last-wins), exactly as those programs document.
  std::vector<std::pair<NodeId, std::string>> returns;
  std::uint64_t vertices_visited = 0;
  /// Shard drain cycles that executed hops for this program (the
  /// decentralized analog of the old coordinator wave count; a program
  /// that crosses a shard boundary takes >= 2).
  std::uint64_t waves = 0;
  /// Total hops consumed (executed + coalesced) across all shards.
  std::uint64_t hops = 0;
  /// Shard-to-shard hop batch messages -- traffic the coordinator never
  /// sees (zero means the traversal stayed on its seed shards).
  std::uint64_t forwarded_batches = 0;
  /// Accounting messages the coordinator received: its total inbound
  /// message count for the program (the old barrier design paid
  /// shards-touched messages per wave plus a blocking round trip each).
  std::uint64_t coordinator_msgs = 0;
  RefinableTimestamp timestamp;
};

}  // namespace weaver
