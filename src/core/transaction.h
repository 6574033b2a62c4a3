// Transaction: the client-side weaver_tx block (paper §2.2, Fig 2).
//
// Writes (create/delete vertex/edge, assign/remove properties) are
// buffered and submitted as a batch to a gatekeeper at commit (paper
// §4.2). Reads go to the backing store through the transaction's OCC
// context, so any concurrent modification of data this transaction read
// aborts it at commit. Buffered writes are not visible to the
// transaction's own reads -- this matches the paper's client model, where
// writes are collated and validated at commit time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "core/graph_op.h"
#include "graph/graph_store.h"
#include "kvstore/kvstore.h"
#include "order/timestamp.h"

namespace weaver {

class Weaver;

/// Outcome of an (async) commit. Carries the commit timestamp because the
/// submitting client moved its Transaction into the request and can no
/// longer ask it.
struct CommitResult {
  Status status;
  RefinableTimestamp timestamp;
  bool ok() const { return status.ok(); }
};

/// The plain-data content of a transaction, detached for submission as a
/// ClientCommit message (core/messages.h): the buffered write batch, the
/// tentative shard placements of created vertices, and the OCC read set.
/// Everything here is serializable; the executing gatekeeper rehydrates a
/// live transaction from it against its own backing store.
struct CommitPayload {
  std::vector<GraphOp> ops;
  std::vector<std::pair<NodeId, ShardId>> created_placements;
  std::vector<std::pair<std::string, std::uint64_t>> read_set;
};

class Transaction {
 public:
  /// Constructs an invalid transaction (equivalent to the moved-from
  /// state). Lets Pending<T> payloads, request messages, and session
  /// containers hold transactions by value; assign a real one from
  /// BeginTx() before use.
  Transaction() = default;
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(Transaction&& other) noexcept;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// False for default-constructed or moved-from transactions. Write and
  /// read methods on an invalid transaction fail with FailedPrecondition
  /// (id-returning creators return invalid ids) instead of crashing.
  bool valid() const { return db_ != nullptr; }

  // --- Writes (buffered; applied atomically at commit) -------------------

  /// Creates a vertex with a freshly allocated handle.
  NodeId CreateNode();
  /// Creates a vertex with a caller-chosen handle (must be unused).
  Status CreateNodeWithId(NodeId id);
  Status DeleteNode(NodeId id);
  /// Creates a directed edge and returns its handle.
  EdgeId CreateEdge(NodeId from, NodeId to);
  Status DeleteEdge(NodeId from, EdgeId edge);
  Status AssignNodeProperty(NodeId id, std::string key, std::string value);
  Status RemoveNodeProperty(NodeId id, std::string key);
  Status AssignEdgeProperty(NodeId from, EdgeId edge, std::string key,
                            std::string value);
  Status RemoveEdgeProperty(NodeId from, EdgeId edge, std::string key);

  // --- Reads (transactional: recorded in the OCC read set) ---------------

  /// Reads a vertex's latest committed state. NotFound if it never
  /// existed; a snapshot with exists == false if it was deleted.
  Result<NodeSnapshot> GetNode(NodeId id);
  /// True iff the vertex exists (committed, not deleted).
  Result<bool> NodeExists(NodeId id);

  // --- Submission (session client API) ------------------------------------

  /// Detaches the buffered state as the plain fields of a ClientCommit
  /// message and invalidates the transaction (valid() becomes false; the
  /// local OCC context is rolled back -- the executing gatekeeper resumes
  /// it from the exported read set). The hollow shell remains safe to
  /// hold: blocking wrappers annotate it with the commit outcome so
  /// timestamp()/committed() keep working.
  CommitPayload DetachForSubmit();

  // --- Introspection ------------------------------------------------------

  const std::vector<GraphOp>& ops() const { return ops_; }
  std::size_t NumOps() const { return ops_.size(); }
  bool committed() const { return committed_; }
  /// The refinable timestamp assigned at commit (valid only afterwards).
  const RefinableTimestamp& timestamp() const { return ts_; }

 private:
  friend class Weaver;
  Transaction(Weaver* db, KvTransaction kvtx);

  Weaver* db_ = nullptr;
  KvTransaction kvtx_;
  std::vector<GraphOp> ops_;
  /// Shards tentatively chosen for vertices created by this transaction.
  std::unordered_map<NodeId, ShardId> created_placements_;
  RefinableTimestamp ts_;
  bool committed_ = false;
};

/// Shared retry loop behind Weaver::RunTransaction and
/// Session::RunTransaction: runs `body` against fresh transactions from
/// `begin` until `commit` succeeds, the body fails with a non-retryable
/// status, or `max_attempts` is exhausted. Only kAborted retries.
Status RetryTransaction(const std::function<Transaction()>& begin,
                        const std::function<Status(Transaction*)>& commit,
                        const std::function<Status(Transaction&)>& body,
                        int max_attempts);

}  // namespace weaver
