#include "core/transaction.h"

#include <utility>

#include "core/weaver.h"
#include "graph/graph_store.h"

namespace weaver {

namespace {

Status MovedFromError() {
  return Status::FailedPrecondition(
      "transaction is invalid (default-constructed or moved-from)");
}

}  // namespace

Transaction::Transaction(Weaver* db, KvTransaction kvtx)
    : db_(db), kvtx_(std::move(kvtx)) {}

Transaction::Transaction(Transaction&& other) noexcept
    : db_(std::exchange(other.db_, nullptr)),
      kvtx_(std::move(other.kvtx_)),
      ops_(std::move(other.ops_)),
      created_placements_(std::move(other.created_placements_)),
      ts_(std::move(other.ts_)),
      committed_(std::exchange(other.committed_, false)) {
  other.ops_.clear();
  other.created_placements_.clear();
}

Transaction& Transaction::operator=(Transaction&& other) noexcept {
  if (this != &other) {
    db_ = std::exchange(other.db_, nullptr);
    kvtx_ = std::move(other.kvtx_);
    ops_ = std::move(other.ops_);
    created_placements_ = std::move(other.created_placements_);
    ts_ = std::move(other.ts_);
    committed_ = std::exchange(other.committed_, false);
    other.ops_.clear();
    other.created_placements_.clear();
  }
  return *this;
}

NodeId Transaction::CreateNode() {
  if (db_ == nullptr) return kInvalidNodeId;
  const NodeId id = db_->AllocateNodeId();
  ops_.push_back(GraphOp::CreateNode(id));
  created_placements_[id] = db_->PlaceNewNode(id);
  return id;
}

Status Transaction::CreateNodeWithId(NodeId id) {
  if (db_ == nullptr) return MovedFromError();
  if (id == kInvalidNodeId) return Status::InvalidArgument("invalid id");
  db_->ReserveNodeId(id);
  ops_.push_back(GraphOp::CreateNode(id));
  created_placements_[id] = db_->PlaceNewNode(id);
  return Status::Ok();
}

Status Transaction::DeleteNode(NodeId id) {
  if (db_ == nullptr) return MovedFromError();
  ops_.push_back(GraphOp::DeleteNode(id));
  return Status::Ok();
}

EdgeId Transaction::CreateEdge(NodeId from, NodeId to) {
  if (db_ == nullptr) return kInvalidEdgeId;
  const EdgeId eid = db_->AllocateEdgeId();
  ops_.push_back(GraphOp::CreateEdge(eid, from, to));
  return eid;
}

Status Transaction::DeleteEdge(NodeId from, EdgeId edge) {
  if (db_ == nullptr) return MovedFromError();
  ops_.push_back(GraphOp::DeleteEdge(from, edge));
  return Status::Ok();
}

Status Transaction::AssignNodeProperty(NodeId id, std::string key,
                                       std::string value) {
  if (db_ == nullptr) return MovedFromError();
  ops_.push_back(
      GraphOp::AssignNodeProp(id, std::move(key), std::move(value)));
  return Status::Ok();
}

Status Transaction::RemoveNodeProperty(NodeId id, std::string key) {
  if (db_ == nullptr) return MovedFromError();
  ops_.push_back(GraphOp::RemoveNodeProp(id, std::move(key)));
  return Status::Ok();
}

Status Transaction::AssignEdgeProperty(NodeId from, EdgeId edge,
                                       std::string key, std::string value) {
  if (db_ == nullptr) return MovedFromError();
  ops_.push_back(GraphOp::AssignEdgeProp(from, edge, std::move(key),
                                         std::move(value)));
  return Status::Ok();
}

Status Transaction::RemoveEdgeProperty(NodeId from, EdgeId edge,
                                       std::string key) {
  if (db_ == nullptr) return MovedFromError();
  ops_.push_back(GraphOp::RemoveEdgeProp(from, edge, std::move(key)));
  return Status::Ok();
}

CommitPayload Transaction::DetachForSubmit() {
  CommitPayload payload;
  payload.ops = std::move(ops_);
  payload.created_placements.assign(created_placements_.begin(),
                                    created_placements_.end());
  payload.read_set = kvtx_.ExportReads();
  // The local OCC context is done: the executing side resumes validation
  // from the exported versions, so holding ours open would only pin
  // store state.
  kvtx_.Abort();
  db_ = nullptr;
  ops_.clear();
  created_placements_.clear();
  return payload;
}

Result<NodeSnapshot> Transaction::GetNode(NodeId id) {
  if (db_ == nullptr) return MovedFromError();
  auto blob = kvtx_.Get(kv_keys::VertexData(id));
  if (!blob.ok()) return blob.status();
  return GraphStore::DecodeLatest(*blob);
}

Result<bool> Transaction::NodeExists(NodeId id) {
  if (db_ == nullptr) return MovedFromError();
  auto blob = kvtx_.Get(kv_keys::VertexData(id));
  if (blob.status().IsNotFound()) return false;
  if (!blob.ok()) return blob.status();
  return GraphStore::DecodeIsLive(*blob);
}

Status RetryTransaction(const std::function<Transaction()>& begin,
                        const std::function<Status(Transaction*)>& commit,
                        const std::function<Status(Transaction&)>& body,
                        int max_attempts) {
  Status last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Transaction tx = begin();
    Status st = body(tx);
    if (!st.ok()) return st;  // application error: do not retry
    st = commit(&tx);
    if (st.ok()) return st;
    if (!st.IsAborted()) return st;  // non-retryable
    last = st;
  }
  return last;
}

}  // namespace weaver
