#include "programs/standard_programs.h"

#include <algorithm>
#include <unordered_set>

#include "common/serde.h"

namespace weaver {
namespace programs {

// ---- Codecs ---------------------------------------------------------------

namespace {
// BfsParams presence flags: a field at its default is left out.
constexpr std::uint8_t kBfsHasFilter = 1;  // edge_prop_key, _value follow
constexpr std::uint8_t kBfsHasTarget = 2;
constexpr std::uint8_t kBfsHasDepth = 4;
constexpr std::uint8_t kBfsHasMaxDepth = 8;
}  // namespace

std::string BfsParams::Encode() const {
  // A flags byte, then only the non-default fields, integers as varints:
  // filter-free params fit std::string's inline buffer, so copying them
  // into every spawned hop allocates nothing.
  std::uint8_t flags = 0;
  if (!edge_prop_key.empty() || !edge_prop_value.empty()) {
    flags |= kBfsHasFilter;
  }
  if (target != kInvalidNodeId) flags |= kBfsHasTarget;
  if (depth != 0) flags |= kBfsHasDepth;
  if (max_depth != 0) flags |= kBfsHasMaxDepth;
  ByteWriter w;
  w.PutU8(flags);
  if (flags & kBfsHasFilter) {
    w.PutString(edge_prop_key);
    w.PutString(edge_prop_value);
  }
  if (flags & kBfsHasTarget) w.PutVarint(target);
  if (flags & kBfsHasDepth) w.PutVarint(depth);
  if (flags & kBfsHasMaxDepth) w.PutVarint(max_depth);
  return w.Take();
}

BfsParams BfsParams::Decode(const std::string& blob) {
  BfsParams p;
  ByteReader r(blob);
  std::uint8_t flags = 0;
  if (!r.GetU8(&flags).ok()) return p;
  if (flags & kBfsHasFilter) {
    (void)r.GetString(&p.edge_prop_key);
    (void)r.GetString(&p.edge_prop_value);
  }
  std::uint64_t v = 0;
  if ((flags & kBfsHasTarget) && r.GetVarint(&v).ok()) p.target = v;
  if ((flags & kBfsHasDepth) && r.GetVarint(&v).ok()) {
    p.depth = static_cast<std::uint32_t>(v);
  }
  if ((flags & kBfsHasMaxDepth) && r.GetVarint(&v).ok()) {
    p.max_depth = static_cast<std::uint32_t>(v);
  }
  return p;
}

std::string GetEdgesParams::Encode() const {
  ByteWriter w;
  w.PutString(edge_prop_key);
  w.PutString(edge_prop_value);
  return w.Take();
}

GetEdgesParams GetEdgesParams::Decode(const std::string& blob) {
  GetEdgesParams p;
  if (blob.empty()) return p;
  ByteReader r(blob);
  (void)r.GetString(&p.edge_prop_key);
  (void)r.GetString(&p.edge_prop_value);
  return p;
}

std::string GetEdgesResult::Encode() const {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(edges.size()));
  for (const auto& [eid, to] : edges) {
    w.PutU64(eid);
    w.PutU64(to);
  }
  return w.Take();
}

GetEdgesResult GetEdgesResult::Decode(const std::string& blob) {
  GetEdgesResult out;
  ByteReader r(blob);
  std::uint32_t n = 0;
  if (!r.GetU32(&n).ok()) return out;
  for (std::uint32_t i = 0; i < n; ++i) {
    EdgeId eid = 0;
    NodeId to = 0;
    if (!r.GetU64(&eid).ok() || !r.GetU64(&to).ok()) break;
    out.edges.emplace_back(eid, to);
  }
  return out;
}

std::string GetNodeResult::Encode() const {
  ByteWriter w;
  w.PutU8(exists ? 1 : 0);
  w.PutU64(out_degree);
  w.PutU32(static_cast<std::uint32_t>(properties.size()));
  for (const auto& [k, v] : properties) {
    w.PutString(k);
    w.PutString(v);
  }
  return w.Take();
}

GetNodeResult GetNodeResult::Decode(const std::string& blob) {
  GetNodeResult out;
  ByteReader r(blob);
  std::uint8_t e = 0;
  if (!r.GetU8(&e).ok()) return out;
  out.exists = e != 0;
  (void)r.GetU64(&out.out_degree);
  std::uint32_t n = 0;
  (void)r.GetU32(&n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k, v;
    if (!r.GetString(&k).ok() || !r.GetString(&v).ok()) break;
    out.properties.emplace_back(std::move(k), std::move(v));
  }
  return out;
}

std::string ClusteringParams::Encode() const {
  ByteWriter w;
  w.PutU8(phase);
  w.PutU64(origin);
  w.PutU32(static_cast<std::uint32_t>(neighborhood.size()));
  for (NodeId n : neighborhood) w.PutU64(n);
  w.PutU64(hits);
  return w.Take();
}

ClusteringParams ClusteringParams::Decode(const std::string& blob) {
  ClusteringParams p;
  if (blob.empty()) return p;
  ByteReader r(blob);
  (void)r.GetU8(&p.phase);
  (void)r.GetU64(&p.origin);
  std::uint32_t n = 0;
  (void)r.GetU32(&n);
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeId id = 0;
    if (!r.GetU64(&id).ok()) break;
    p.neighborhood.push_back(id);
  }
  (void)r.GetU64(&p.hits);
  return p;
}

std::string ClusteringResult::Encode() const {
  ByteWriter w;
  w.PutU64(closed_pairs);
  w.PutU64(degree);
  return w.Take();
}

ClusteringResult ClusteringResult::Decode(const std::string& blob) {
  ClusteringResult out;
  ByteReader r(blob);
  (void)r.GetU64(&out.closed_pairs);
  (void)r.GetU64(&out.degree);
  return out;
}

std::string ShortestPathParams::Encode() const {
  ByteWriter w;
  w.PutU64(target);
  w.PutU32(distance);
  return w.Take();
}

ShortestPathParams ShortestPathParams::Decode(const std::string& blob) {
  ShortestPathParams p;
  if (blob.empty()) return p;
  ByteReader r(blob);
  (void)r.GetU64(&p.target);
  (void)r.GetU32(&p.distance);
  return p;
}

std::string BlockRenderParams::Encode() const {
  ByteWriter w;
  w.PutU8(phase);
  return w.Take();
}

BlockRenderParams BlockRenderParams::Decode(const std::string& blob) {
  BlockRenderParams p;
  if (blob.empty()) return p;
  ByteReader r(blob);
  (void)r.GetU8(&p.phase);
  return p;
}

std::string PathDiscoveryParams::Encode() const {
  ByteWriter w;
  w.PutU64(target);
  w.PutU32(max_depth);
  w.PutU32(static_cast<std::uint32_t>(path_so_far.size()));
  for (NodeId n : path_so_far) w.PutU64(n);
  return w.Take();
}

PathDiscoveryParams PathDiscoveryParams::Decode(const std::string& blob) {
  PathDiscoveryParams p;
  if (blob.empty()) return p;
  ByteReader r(blob);
  (void)r.GetU64(&p.target);
  (void)r.GetU32(&p.max_depth);
  std::uint32_t n = 0;
  (void)r.GetU32(&n);
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeId id = 0;
    if (!r.GetU64(&id).ok()) break;
    p.path_so_far.push_back(id);
  }
  return p;
}

// ---- Programs -------------------------------------------------------------

namespace {

class GetNodeProgram final : public NodeProgram {
 public:
  std::string_view name() const override { return kGetNode; }
  void Run(const NodeView& node, const std::string&, std::any*,
           ProgramOutput* out) const override {
    GetNodeResult result;
    result.exists = node.Exists();
    if (result.exists) {
      result.out_degree = node.OutDegree();
      result.properties = node.Properties();
    }
    out->return_value = result.Encode();
  }
};

class GetEdgesProgram final : public NodeProgram {
 public:
  std::string_view name() const override { return kGetEdges; }
  void Run(const NodeView& node, const std::string& params, std::any*,
           ProgramOutput* out) const override {
    const GetEdgesParams p = GetEdgesParams::Decode(params);
    GetEdgesResult result;
    node.ForEachEdge([&](const EdgeView& e) {
      if (!p.edge_prop_key.empty() &&
          !e.Check(p.edge_prop_key, p.edge_prop_value)) {
        return;
      }
      result.edges.emplace_back(e.id(), e.to());
    });
    out->return_value = result.Encode();
  }
};

class CountEdgesProgram final : public NodeProgram {
 public:
  std::string_view name() const override { return kCountEdges; }
  void Run(const NodeView& node, const std::string&, std::any*,
           ProgramOutput* out) const override {
    ByteWriter w;
    w.PutU64(node.OutDegree());
    out->return_value = w.Take();
  }
};

/// The paper's Fig 3, verbatim in structure: visit once, follow edges that
/// carry the requested property, propagate the same params.
class BfsProgram final : public NodeProgram {
 public:
  std::string_view name() const override { return kBfs; }
  // Depth-unbounded BFS never acts on a revisit; a depth LIMIT makes
  // revisits params-dependent (a later hop may be shallower and allowed
  // to keep expanding), so pruning would under-explore.
  bool VisitOnce(const std::string& start_params) const override {
    return BfsParams::Decode(start_params).max_depth == 0;
  }
  void Run(const NodeView& node, const std::string& params, std::any* state,
           ProgramOutput* out) const override {
    if (!node.Exists()) return;
    if (state->has_value()) return;  // node.prog_state.visited
    *state = true;
    BfsParams p = BfsParams::Decode(params);
    if (node.id() == p.target) {
      out->return_value = "found";
      return;
    }
    ByteWriter w;
    w.PutU64(node.id());
    out->return_value = w.Take();
    // Depth is read only under a limit, so an unbounded traversal
    // forwards its incoming params unchanged (no re-encode per vertex).
    const std::string* next_blob = &params;
    std::string deeper;
    if (p.max_depth != 0) {
      if (p.depth >= p.max_depth) return;
      BfsParams next = p;
      next.depth = p.depth + 1;
      deeper = next.Encode();
      next_blob = &deeper;
    }
    node.ForEachEdge([&](const EdgeView& e) {
      if (!p.edge_prop_key.empty() &&
          !e.Check(p.edge_prop_key, p.edge_prop_value)) {
        return;
      }
      out->next_hops.push_back(NextHop{e.to(), *next_blob});
    });
  }
};

class ClusteringProgram final : public NodeProgram {
 public:
  std::string_view name() const override { return kClustering; }
  void Run(const NodeView& node, const std::string& params, std::any*,
           ProgramOutput* out) const override {
    if (!node.Exists()) return;
    ClusteringParams p = ClusteringParams::Decode(params);
    if (p.phase == ClusteringParams::kGather) {
      std::vector<NodeId> neighbors;
      node.ForEachEdge(
          [&](const EdgeView& e) { neighbors.push_back(e.to()); });
      std::sort(neighbors.begin(), neighbors.end());
      neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                      neighbors.end());
      ClusteringResult gather;
      gather.degree = neighbors.size();
      out->return_value = gather.Encode();
      if (neighbors.size() < 2) return;
      ClusteringParams probe;
      probe.phase = ClusteringParams::kProbe;
      probe.origin = node.id();
      probe.neighborhood = neighbors;
      const std::string blob = probe.Encode();
      for (NodeId n : neighbors) out->next_hops.push_back(NextHop{n, blob});
      return;
    }
    // kProbe: count edges from this neighbor back into the neighborhood.
    std::unordered_set<NodeId> in_set(p.neighborhood.begin(),
                                      p.neighborhood.end());
    ClusteringResult probe_result;
    node.ForEachEdge([&](const EdgeView& e) {
      if (e.to() != node.id() && in_set.count(e.to())) {
        probe_result.closed_pairs++;
      }
    });
    out->return_value = probe_result.Encode();
  }
};

class ShortestPathProgram final : public NodeProgram {
 public:
  std::string_view name() const override { return kShortestPath; }
  void Run(const NodeView& node, const std::string& params, std::any* state,
           ProgramOutput* out) const override {
    if (!node.Exists()) return;
    const ShortestPathParams p = ShortestPathParams::Decode(params);
    if (state->has_value() &&
        std::any_cast<std::uint32_t>(*state) <= p.distance) {
      return;  // already reached at least this cheaply
    }
    *state = p.distance;
    if (node.id() == p.target) {
      ByteWriter w;
      w.PutU32(p.distance);
      out->return_value = w.Take();
      return;
    }
    ShortestPathParams next = p;
    next.distance = p.distance + 1;
    const std::string blob = next.Encode();
    node.ForEachEdge([&](const EdgeView& e) {
      out->next_hops.push_back(NextHop{e.to(), blob});
    });
  }
};

/// Renders one Bitcoin block the way Blockchain.info's raw-block API does:
/// the block vertex fans out to its transaction vertices; each transaction
/// renders its id, attributes, and spend edges as a JSON-ish row.
class BlockRenderProgram final : public NodeProgram {
 public:
  std::string_view name() const override { return kBlockRender; }
  void Run(const NodeView& node, const std::string& params, std::any*,
           ProgramOutput* out) const override {
    if (!node.Exists()) return;
    const BlockRenderParams p = BlockRenderParams::Decode(params);
    if (p.phase == 0) {
      // Block vertex: render the header, fan out to transactions.
      std::string header = "{\"block\":" + std::to_string(node.id());
      for (const auto& [k, v] : node.Properties()) {
        header += ",\"" + k + "\":\"" + v + "\"";
      }
      header += "}";
      out->return_value = std::move(header);
      BlockRenderParams next;
      next.phase = 1;
      const std::string blob = next.Encode();
      node.ForEachEdge([&](const EdgeView& e) {
        if (e.Check("type", "in_block")) {
          out->next_hops.push_back(NextHop{e.to(), blob});
        }
      });
      return;
    }
    // Transaction vertex: render the row the explorer shows.
    std::string row = "{\"tx\":" + std::to_string(node.id());
    for (const auto& [k, v] : node.Properties()) {
      row += ",\"" + k + "\":\"" + v + "\"";
    }
    row += ",\"out\":[";
    bool first = true;
    node.ForEachEdge([&](const EdgeView& e) {
      if (!e.Check("type", "spend")) return;
      if (!first) row += ",";
      first = false;
      row += std::to_string(e.to());
      if (auto val = e.GetProperty("value"); val.has_value()) {
        row += ":" + *val;
      }
    });
    row += "]}";
    out->return_value = std::move(row);
  }
};

/// Path discovery with per-vertex pruning state; the discovered path is
/// returned to the client, which may memoize it application-side and
/// invalidate it when the graph changes under it (paper §4.6 pattern; see
/// examples/robobrain.cc).
class PathDiscoveryProgram final : public NodeProgram {
 public:
  std::string_view name() const override { return kPathDiscovery; }
  // Always depth-budgeted (path_so_far vs max_depth): a vertex first
  // reached via a longer path must still re-expand on a shorter one,
  // so ingress pruning stays off.
  void Run(const NodeView& node, const std::string& params, std::any* state,
           ProgramOutput* out) const override {
    if (!node.Exists()) return;
    PathDiscoveryParams p = PathDiscoveryParams::Decode(params);
    if (state->has_value()) return;  // visited: prune
    *state = true;
    p.path_so_far.push_back(node.id());
    if (node.id() == p.target) {
      ByteWriter w;
      w.PutU32(static_cast<std::uint32_t>(p.path_so_far.size()));
      for (NodeId n : p.path_so_far) w.PutU64(n);
      out->return_value = w.Take();
      return;
    }
    if (p.path_so_far.size() > p.max_depth) return;
    const std::string blob = p.Encode();
    node.ForEachEdge([&](const EdgeView& e) {
      out->next_hops.push_back(NextHop{e.to(), blob});
    });
  }
};

}  // namespace

void RegisterStandardPrograms(ProgramRegistry* registry) {
  registry->Register(std::make_unique<GetNodeProgram>());
  registry->Register(std::make_unique<GetEdgesProgram>());
  registry->Register(std::make_unique<CountEdgesProgram>());
  registry->Register(std::make_unique<BfsProgram>());
  registry->Register(std::make_unique<ClusteringProgram>());
  registry->Register(std::make_unique<ShortestPathProgram>());
  registry->Register(std::make_unique<BlockRenderProgram>());
  registry->Register(std::make_unique<PathDiscoveryProgram>());
}

}  // namespace programs
}  // namespace weaver
