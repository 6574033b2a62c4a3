#include "graph/graph_store.h"

#include <algorithm>

namespace weaver {

std::size_t Node::OutDegreeAt(const RefinableTimestamp& read_ts,
                              const OrderFn& order) const {
  std::size_t n = 0;
  for (const auto& [eid, e] : out_edges) {
    if (e.VisibleAt(read_ts, order)) ++n;
  }
  return n;
}

Status Node::Delete(const RefinableTimestamp& ts) {
  if (deleted.valid()) {
    return Status::FailedPrecondition("node already deleted");
  }
  deleted = ts;
  last_update = ts;
  return Status::Ok();
}

Status Node::AddEdge(EdgeId eid, NodeId to, const RefinableTimestamp& ts) {
  if (deleted.valid()) {
    return Status::FailedPrecondition("source node deleted");
  }
  auto [it, inserted] = out_edges.try_emplace(eid);
  if (!inserted) return Status::AlreadyExists("edge " + std::to_string(eid));
  Edge& e = it->second;
  e.id = eid;
  e.from = id;
  e.to = to;
  e.created = ts;
  last_update = ts;
  return Status::Ok();
}

Result<Edge*> Node::LiveEdge(EdgeId eid) {
  auto it = out_edges.find(eid);
  if (it == out_edges.end() || it->second.deleted.valid()) {
    return Status::FailedPrecondition("edge " + std::to_string(eid) +
                                      " is not live on node " +
                                      std::to_string(id));
  }
  return &it->second;
}

Status Node::DeleteEdge(EdgeId eid, const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Edge * e, LiveEdge(eid));
  e->deleted = ts;
  last_update = ts;
  return Status::Ok();
}

Status Node::AssignProperty(std::string_view key, std::string_view value,
                            const RefinableTimestamp& ts) {
  if (deleted.valid()) return Status::FailedPrecondition("node deleted");
  props.Assign(key, value, ts);
  last_update = ts;
  return Status::Ok();
}

Status Node::RemoveProperty(std::string_view key,
                            const RefinableTimestamp& ts) {
  if (deleted.valid()) return Status::FailedPrecondition("node deleted");
  if (!props.Remove(key, ts)) {
    return Status::NotFound("property " + std::string(key));
  }
  last_update = ts;
  return Status::Ok();
}

Status Node::AssignEdgeProperty(EdgeId eid, std::string_view key,
                                std::string_view value,
                                const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Edge * e, LiveEdge(eid));
  e->props.Assign(key, value, ts);
  last_update = ts;
  return Status::Ok();
}

Status Node::RemoveEdgeProperty(EdgeId eid, std::string_view key,
                                const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Edge * e, LiveEdge(eid));
  if (!e->props.Remove(key, ts)) {
    return Status::NotFound("property " + std::string(key));
  }
  last_update = ts;
  return Status::Ok();
}

std::size_t Node::CollectBefore(const RefinableTimestamp& watermark,
                                const OrderFn& order) {
  std::size_t collected = props.CollectBefore(watermark, order);
  for (auto it = out_edges.begin(); it != out_edges.end();) {
    Edge& e = it->second;
    if (e.deleted.valid() &&
        order(e.deleted, watermark) == ClockOrder::kBefore) {
      it = out_edges.erase(it);
      ++collected;
    } else {
      collected += e.props.CollectBefore(watermark, order);
      ++it;
    }
  }
  return collected;
}

Status GraphStore::CreateNode(NodeId id, const RefinableTimestamp& ts) {
  auto [it, inserted] = nodes_.try_emplace(id);
  if (!inserted) {
    // Re-creating a deleted vertex id is not permitted: handles are unique
    // for all time in the multi-version graph.
    return Status::AlreadyExists("node " + std::to_string(id));
  }
  it->second = std::make_unique<Node>();
  it->second->id = id;
  it->second->created = ts;
  it->second->last_update = ts;
  stats_.nodes_created++;
  return Status::Ok();
}

Result<Node*> GraphStore::Existing(NodeId id) {
  Node* n = FindNodeMutable(id);
  if (n == nullptr) return Status::NotFound("node " + std::to_string(id));
  return n;
}

Status GraphStore::DeleteNode(NodeId id, const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Node * n, Existing(id));
  WEAVER_RETURN_IF_ERROR(n->Delete(ts));
  stats_.nodes_deleted++;
  return Status::Ok();
}

Status GraphStore::CreateEdge(EdgeId eid, NodeId from, NodeId to,
                              const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Node * n, Existing(from));
  WEAVER_RETURN_IF_ERROR(n->AddEdge(eid, to, ts));
  stats_.edges_created++;
  return Status::Ok();
}

Status GraphStore::DeleteEdge(NodeId from, EdgeId eid,
                              const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Node * n, Existing(from));
  WEAVER_RETURN_IF_ERROR(n->DeleteEdge(eid, ts));
  stats_.edges_deleted++;
  return Status::Ok();
}

Status GraphStore::AssignNodeProperty(NodeId id, std::string_view key,
                                      std::string_view value,
                                      const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Node * n, Existing(id));
  WEAVER_RETURN_IF_ERROR(n->AssignProperty(key, value, ts));
  stats_.props_assigned++;
  return Status::Ok();
}

Status GraphStore::RemoveNodeProperty(NodeId id, std::string_view key,
                                      const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Node * n, Existing(id));
  return n->RemoveProperty(key, ts);
}

Status GraphStore::AssignEdgeProperty(NodeId from, EdgeId eid,
                                      std::string_view key,
                                      std::string_view value,
                                      const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Node * n, Existing(from));
  WEAVER_RETURN_IF_ERROR(n->AssignEdgeProperty(eid, key, value, ts));
  stats_.props_assigned++;
  return Status::Ok();
}

Status GraphStore::RemoveEdgeProperty(NodeId from, EdgeId eid,
                                      std::string_view key,
                                      const RefinableTimestamp& ts) {
  WEAVER_ASSIGN_OR_RETURN(Node * n, Existing(from));
  return n->RemoveEdgeProperty(eid, key, ts);
}

const Node* GraphStore::FindNode(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

Node* GraphStore::FindNodeMutable(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> GraphStore::AllNodeIds() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, _] : nodes_) out.push_back(id);
  return out;
}

std::size_t GraphStore::CollectBefore(const RefinableTimestamp& watermark,
                                      const OrderFn& order) {
  std::size_t collected = 0;
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    Node& node = *it->second;
    if (node.deleted.valid() &&
        order(node.deleted, watermark) == ClockOrder::kBefore) {
      it = nodes_.erase(it);
      ++collected;
    } else {
      collected += node.CollectBefore(watermark, order);
      ++it;
    }
  }
  stats_.versions_collected += collected;
  return collected;
}

namespace {

void SerializeTs(ByteWriter* w, const RefinableTimestamp& ts) {
  w->PutU8(ts.valid() ? 1 : 0);
  if (ts.valid()) ts.Serialize(w);
}

void SerializeProps(ByteWriter* w, const PropertySet& props) {
  w->PutU32(static_cast<std::uint32_t>(props.versions().size()));
  for (const auto& v : props.versions()) {
    w->PutString(v.key);
    w->PutString(v.value);
    SerializeTs(w, v.created);
    SerializeTs(w, v.deleted);
  }
}

/// How a sink reads each timestamp field of a blob: decoded in full, or
/// skipped over with only its presence noted (most readers only need to
/// know whether an object was deleted).
struct DecodedTs {
  RefinableTimestamp ts;  // invalid() == field absent

  bool present() const { return ts.valid(); }
  static Status Read(ByteReader* r, DecodedTs* out) {
    std::uint8_t present = 0;
    WEAVER_RETURN_IF_ERROR(r->GetU8(&present));
    if (!present) return Status::Ok();
    return RefinableTimestamp::Deserialize(r, &out->ts);
  }
};

struct PresenceTs {
  bool set = false;

  bool present() const { return set; }
  static Status Read(ByteReader* r, PresenceTs* out) {
    std::uint8_t present = 0;
    WEAVER_RETURN_IF_ERROR(r->GetU8(&present));
    out->set = present != 0;
    return out->set ? RefinableTimestamp::Skip(r) : Status::Ok();
  }
};

/// The one decoder of the blob format SerializeNode writes. It walks the
/// blob once and reports every field to `sink`, which materializes only
/// what it needs. `Sink::Ts` (DecodedTs or PresenceTs) says how to read
/// timestamps; keys and values view the blob.
///   bool OnNode(id, created, deleted, last_update)  false: stop here
///   void OnProp(key, value, created, deleted)
///   bool OnEdge(id, from, to, created, deleted)     false: skip its props
///   void OnEdgeProp(key, value, created, deleted)
template <typename Sink>
Status DecodeNodeBlob(std::string_view blob, Sink* sink) {
  using Ts = typename Sink::Ts;
  ByteReader r(blob);
  NodeId id = kInvalidNodeId;
  Ts created, deleted, last_update;
  WEAVER_RETURN_IF_ERROR(r.GetU64(&id));
  WEAVER_RETURN_IF_ERROR(Ts::Read(&r, &created));
  WEAVER_RETURN_IF_ERROR(Ts::Read(&r, &deleted));
  WEAVER_RETURN_IF_ERROR(Ts::Read(&r, &last_update));
  if (!sink->OnNode(id, std::move(created), std::move(deleted),
                    std::move(last_update))) {
    return Status::Ok();
  }
  auto read_props = [&r](auto&& emit) -> Status {
    std::uint32_t n = 0;
    WEAVER_RETURN_IF_ERROR(r.GetU32(&n));
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string_view key, value;
      Ts v_created, v_deleted;
      WEAVER_RETURN_IF_ERROR(r.GetStringView(&key));
      WEAVER_RETURN_IF_ERROR(r.GetStringView(&value));
      WEAVER_RETURN_IF_ERROR(Ts::Read(&r, &v_created));
      WEAVER_RETURN_IF_ERROR(Ts::Read(&r, &v_deleted));
      emit(key, value, std::move(v_created), std::move(v_deleted));
    }
    return Status::Ok();
  };
  WEAVER_RETURN_IF_ERROR(read_props([sink](auto&&... v) {
    sink->OnProp(std::forward<decltype(v)>(v)...);
  }));
  std::uint32_t edge_count = 0;
  WEAVER_RETURN_IF_ERROR(r.GetU32(&edge_count));
  for (std::uint32_t i = 0; i < edge_count; ++i) {
    EdgeId eid = kInvalidEdgeId;
    NodeId from = kInvalidNodeId;
    NodeId to = kInvalidNodeId;
    Ts e_created, e_deleted;
    WEAVER_RETURN_IF_ERROR(r.GetU64(&eid));
    WEAVER_RETURN_IF_ERROR(r.GetU64(&from));
    WEAVER_RETURN_IF_ERROR(r.GetU64(&to));
    WEAVER_RETURN_IF_ERROR(Ts::Read(&r, &e_created));
    WEAVER_RETURN_IF_ERROR(Ts::Read(&r, &e_deleted));
    const bool keep =
        sink->OnEdge(eid, from, to, std::move(e_created), std::move(e_deleted));
    WEAVER_RETURN_IF_ERROR(read_props([sink, keep](auto&&... v) {
      if (keep) sink->OnEdgeProp(std::forward<decltype(v)>(v)...);
    }));
  }
  return Status::Ok();
}

/// Materializes the whole version history (DeserializeNode).
struct NodeBuilder {
  using Ts = DecodedTs;
  Node node;
  Edge* edge = nullptr;

  bool OnNode(NodeId id, Ts created, Ts deleted, Ts last_update) {
    node.id = id;
    node.created = std::move(created.ts);
    node.deleted = std::move(deleted.ts);
    node.last_update = std::move(last_update.ts);
    return true;
  }
  void OnProp(std::string_view key, std::string_view value, Ts created,
              Ts deleted) {
    node.props.AppendVersionRaw(PropertyVersion{std::string(key),
                                                std::string(value),
                                                std::move(created.ts),
                                                std::move(deleted.ts)});
  }
  bool OnEdge(EdgeId eid, NodeId from, NodeId to, Ts created, Ts deleted) {
    auto [it, inserted] = node.out_edges.try_emplace(eid);
    if (!inserted) return false;  // first copy of a duplicate id wins
    edge = &it->second;
    edge->id = eid;
    edge->from = from;
    edge->to = to;
    edge->created = std::move(created.ts);
    edge->deleted = std::move(deleted.ts);
    return true;
  }
  void OnEdgeProp(std::string_view key, std::string_view value, Ts created,
                  Ts deleted) {
    edge->props.AppendVersionRaw(PropertyVersion{std::string(key),
                                                 std::string(value),
                                                 std::move(created.ts),
                                                 std::move(deleted.ts)});
  }
};

/// Keeps only the latest committed state (DecodeLatest).
struct LatestBuilder {
  using Ts = PresenceTs;
  NodeSnapshot snap;

  bool OnNode(NodeId id, const Ts&, const Ts& deleted, const Ts&) {
    snap.id = id;
    snap.exists = !deleted.present();
    return snap.exists;
  }
  void OnProp(std::string_view key, std::string_view value, const Ts&,
              const Ts& deleted) {
    if (!deleted.present()) snap.properties.emplace_back(key, value);
  }
  bool OnEdge(EdgeId eid, NodeId, NodeId to, const Ts&, const Ts& deleted) {
    if (deleted.present()) return false;
    snap.edges.push_back(EdgeSnapshot{eid, to, {}});
    return true;
  }
  void OnEdgeProp(std::string_view key, std::string_view value, const Ts&,
                  const Ts& deleted) {
    if (!deleted.present()) {
      snap.edges.back().properties.emplace_back(key, value);
    }
  }
};

/// Reads the header only (DecodeIsLive).
struct LivenessProbe {
  using Ts = PresenceTs;
  bool live = false;

  bool OnNode(NodeId, const Ts&, const Ts& deleted, const Ts&) {
    live = !deleted.present();
    return false;
  }
  void OnProp(std::string_view, std::string_view, const Ts&, const Ts&) {}
  bool OnEdge(EdgeId, NodeId, NodeId, const Ts&, const Ts&) { return false; }
  void OnEdgeProp(std::string_view, std::string_view, const Ts&,
                  const Ts&) {}
};

}  // namespace

std::string GraphStore::SerializeNode(const Node& node) {
  ByteWriter w;
  w.PutU64(node.id);
  SerializeTs(&w, node.created);
  SerializeTs(&w, node.deleted);
  SerializeTs(&w, node.last_update);
  SerializeProps(&w, node.props);
  w.PutU32(static_cast<std::uint32_t>(node.out_edges.size()));
  for (const auto& [eid, e] : node.out_edges) {
    w.PutU64(e.id);
    w.PutU64(e.from);
    w.PutU64(e.to);
    SerializeTs(&w, e.created);
    SerializeTs(&w, e.deleted);
    SerializeProps(&w, e.props);
  }
  return w.Take();
}

Result<Node> GraphStore::DeserializeNode(std::string_view blob) {
  NodeBuilder b;
  WEAVER_RETURN_IF_ERROR(DecodeNodeBlob(blob, &b));
  return std::move(b.node);
}

Result<NodeSnapshot> GraphStore::DecodeLatest(std::string_view blob) {
  LatestBuilder b;
  WEAVER_RETURN_IF_ERROR(DecodeNodeBlob(blob, &b));
  return std::move(b.snap);
}

Result<bool> GraphStore::DecodeIsLive(std::string_view blob) {
  LivenessProbe p;
  WEAVER_RETURN_IF_ERROR(DecodeNodeBlob(blob, &p));
  return p.live;
}

void GraphStore::InstallNode(Node node) {
  const NodeId id = node.id;
  auto ptr = std::make_unique<Node>(std::move(node));
  nodes_[id] = std::move(ptr);
}

}  // namespace weaver
