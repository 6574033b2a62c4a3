// GraphStore: the in-memory, multi-version property graph held by one
// shard server (paper §3.2, §4.2).
//
// Each shard stores a set of vertices, all out-edges rooted at those
// vertices, and associated attributes. Every structural write (vertex or
// edge creation/deletion, property assignment) is stamped with the
// refinable timestamp of its transaction; deletion marks objects rather
// than erasing them, forming the multi-version graph that lets node
// programs read consistent snapshots without blocking writers.
//
// Threading: a GraphStore is owned by its shard's event loop and is
// externally synchronized -- all mutation and program execution happen on
// that single thread (the actor model the shard server implements).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/serde.h"
#include "graph/property.h"
#include "order/timestamp.h"

namespace weaver {

/// A directed edge rooted at its source vertex.
struct Edge {
  EdgeId id = kInvalidEdgeId;
  NodeId from = kInvalidNodeId;
  NodeId to = kInvalidNodeId;
  PropertySet props;
  RefinableTimestamp created;
  RefinableTimestamp deleted;  // invalid() == live

  bool VisibleAt(const RefinableTimestamp& read_ts,
                 const OrderFn& order) const {
    if (!WriteVisibleAt(created, read_ts, order)) return false;
    if (deleted.valid() && WriteVisibleAt(deleted, read_ts, order)) {
      return false;
    }
    return true;
  }
};

/// A vertex with its out-edges and attributes.
struct Node {
  NodeId id = kInvalidNodeId;
  PropertySet props;
  std::unordered_map<EdgeId, Edge> out_edges;
  RefinableTimestamp created;
  RefinableTimestamp deleted;  // invalid() == live
  /// Timestamp of the last committed write touching this vertex; mirrors
  /// the backing store's last-update record (paper §4.2).
  RefinableTimestamp last_update;

  bool VisibleAt(const RefinableTimestamp& read_ts,
                 const OrderFn& order) const {
    if (!WriteVisibleAt(created, read_ts, order)) return false;
    if (deleted.valid() && WriteVisibleAt(deleted, read_ts, order)) {
      return false;
    }
    return true;
  }

  /// Number of out-edges visible at `read_ts`.
  std::size_t OutDegreeAt(const RefinableTimestamp& read_ts,
                          const OrderFn& order) const;

  // --- Writes at `ts` (shared by the shard store and the backing-store
  // apply, so the two copies cannot diverge). Property writes need a live
  // object; an edge op on an edge id that is absent here answers exactly
  // like one on a tombstoned edge, because GC may have pruned the
  // tombstone and a commit's outcome must not depend on GC timing.

  Status Delete(const RefinableTimestamp& ts);
  Status AddEdge(EdgeId eid, NodeId to, const RefinableTimestamp& ts);
  Status DeleteEdge(EdgeId eid, const RefinableTimestamp& ts);
  Status AssignProperty(std::string_view key, std::string_view value,
                        const RefinableTimestamp& ts);
  Status RemoveProperty(std::string_view key, const RefinableTimestamp& ts);
  Status AssignEdgeProperty(EdgeId eid, std::string_view key,
                            std::string_view value,
                            const RefinableTimestamp& ts);
  Status RemoveEdgeProperty(EdgeId eid, std::string_view key,
                            const RefinableTimestamp& ts);

  /// Drops property versions and out-edges deleted strictly before
  /// `watermark` under `order` (the vertex itself is the caller's call).
  /// Returns the number of versions and edges dropped.
  std::size_t CollectBefore(const RefinableTimestamp& watermark,
                            const OrderFn& order);

 private:
  /// The live out-edge `eid`, or FailedPrecondition.
  Result<Edge*> LiveEdge(EdgeId eid);
};

/// Point-in-time view of one edge read inside a transaction.
struct EdgeSnapshot {
  EdgeId id = kInvalidEdgeId;
  NodeId to = kInvalidNodeId;
  std::vector<std::pair<std::string, std::string>> properties;
};

/// Point-in-time view of one vertex read inside a transaction: the latest
/// committed state (live property versions and live edges only).
struct NodeSnapshot {
  NodeId id = kInvalidNodeId;
  bool exists = false;
  std::vector<std::pair<std::string, std::string>> properties;
  std::vector<EdgeSnapshot> edges;

  std::optional<std::string> GetProperty(std::string_view key) const {
    for (const auto& [k, v] : properties) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
};

class GraphStore {
 public:
  struct Stats {
    std::uint64_t nodes_created = 0;
    std::uint64_t nodes_deleted = 0;
    std::uint64_t edges_created = 0;
    std::uint64_t edges_deleted = 0;
    std::uint64_t props_assigned = 0;
    std::uint64_t versions_collected = 0;
  };

  GraphStore() = default;
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  // --- Structural writes (applied by the shard in timestamp order) ------

  Status CreateNode(NodeId id, const RefinableTimestamp& ts);
  Status DeleteNode(NodeId id, const RefinableTimestamp& ts);
  Status CreateEdge(EdgeId eid, NodeId from, NodeId to,
                    const RefinableTimestamp& ts);
  Status DeleteEdge(NodeId from, EdgeId eid, const RefinableTimestamp& ts);
  Status AssignNodeProperty(NodeId id, std::string_view key,
                            std::string_view value,
                            const RefinableTimestamp& ts);
  Status RemoveNodeProperty(NodeId id, std::string_view key,
                            const RefinableTimestamp& ts);
  Status AssignEdgeProperty(NodeId from, EdgeId eid, std::string_view key,
                            std::string_view value,
                            const RefinableTimestamp& ts);
  Status RemoveEdgeProperty(NodeId from, EdgeId eid, std::string_view key,
                            const RefinableTimestamp& ts);

  // --- Reads -------------------------------------------------------------

  /// Raw access for node-program execution. Returns nullptr if the vertex
  /// has never existed on this shard (visibility still must be checked).
  const Node* FindNode(NodeId id) const;
  Node* FindNodeMutable(NodeId id);

  bool ContainsNode(NodeId id) const { return nodes_.count(id) != 0; }
  std::size_t NodeCount() const { return nodes_.size(); }
  std::vector<NodeId> AllNodeIds() const;

  // --- Maintenance --------------------------------------------------------

  /// Multi-version GC (paper §4.5): erases objects deleted strictly before
  /// `watermark` (the oldest in-flight operation) and collapses superseded
  /// property versions. Returns number of objects/versions collected.
  std::size_t CollectBefore(const RefinableTimestamp& watermark,
                            const OrderFn& order);

  /// Serialization of one vertex (with all its versions) into a backing-
  /// store blob, and the inverse, used for durability and shard recovery.
  static std::string SerializeNode(const Node& node);
  static Result<Node> DeserializeNode(std::string_view blob);
  /// Decodes only the latest committed state of a blob (live property
  /// versions and live edges, in blob order) without materializing the
  /// version history: the transactional read path.
  static Result<NodeSnapshot> DecodeLatest(std::string_view blob);
  /// Decodes only the vertex header: true iff the vertex is not deleted.
  static Result<bool> DecodeIsLive(std::string_view blob);

  /// Installs a recovered vertex, replacing any existing one.
  void InstallNode(Node node);

  const Stats& stats() const { return stats_; }

 private:
  /// The vertex `id` (deleted or not), or NotFound.
  Result<Node*> Existing(NodeId id);

  std::unordered_map<NodeId, std::unique_ptr<Node>> nodes_;
  Stats stats_;
};

}  // namespace weaver
