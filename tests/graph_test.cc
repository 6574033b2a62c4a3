// Tests for the multi-version property graph: PropertySet version chains,
// visibility at timestamps, GraphStore CRUD, serialization, GC.
#include "graph/graph_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/property.h"

namespace weaver {
namespace {

// All timestamps in this file come from a single logical gatekeeper, so
// plain vector-clock comparison is total; the order function is the
// trivial one.
RefinableTimestamp Ts(std::uint64_t seq) {
  VectorClock c(0, std::vector<std::uint64_t>{seq});
  return RefinableTimestamp(c, 0, seq);
}

OrderFn PlainOrder() {
  return [](const RefinableTimestamp& a, const RefinableTimestamp& b) {
    return a.Compare(b);
  };
}

// ---- PropertySet ----------------------------------------------------------

TEST(PropertySetTest, AssignThenReadBack) {
  PropertySet props;
  props.Assign("color", "red", Ts(1));
  EXPECT_EQ(props.ValueAt("color", Ts(2), PlainOrder()), "red");
}

TEST(PropertySetTest, InvisibleBeforeCreation) {
  PropertySet props;
  props.Assign("color", "red", Ts(5));
  EXPECT_EQ(props.ValueAt("color", Ts(4), PlainOrder()), std::nullopt);
}

TEST(PropertySetTest, VisibleAtExactCreationTimestamp) {
  PropertySet props;
  props.Assign("color", "red", Ts(5));
  EXPECT_EQ(props.ValueAt("color", Ts(5), PlainOrder()), "red");
}

TEST(PropertySetTest, ReassignmentSupersedes) {
  PropertySet props;
  props.Assign("color", "red", Ts(1));
  props.Assign("color", "blue", Ts(3));
  const auto order = PlainOrder();
  EXPECT_EQ(props.ValueAt("color", Ts(2), order), "red");
  EXPECT_EQ(props.ValueAt("color", Ts(4), order), "blue");
  EXPECT_EQ(props.VersionCount(), 2u);
}

TEST(PropertySetTest, RemoveHidesFromLaterReads) {
  PropertySet props;
  props.Assign("color", "red", Ts(1));
  EXPECT_TRUE(props.Remove("color", Ts(3)));
  const auto order = PlainOrder();
  EXPECT_EQ(props.ValueAt("color", Ts(2), order), "red");  // time travel
  EXPECT_EQ(props.ValueAt("color", Ts(4), order), std::nullopt);
}

TEST(PropertySetTest, RemoveMissingReturnsFalse) {
  PropertySet props;
  EXPECT_FALSE(props.Remove("nope", Ts(1)));
}

TEST(PropertySetTest, DistinctKeysIndependent) {
  PropertySet props;
  props.Assign("weight", "3.0", Ts(1));
  props.Assign("color", "red", Ts(1));
  props.Remove("weight", Ts(2));
  const auto order = PlainOrder();
  EXPECT_EQ(props.ValueAt("color", Ts(3), order), "red");
  EXPECT_EQ(props.ValueAt("weight", Ts(3), order), std::nullopt);
}

TEST(PropertySetTest, CheckMatchesKeyAndValue) {
  PropertySet props;
  props.Assign("color", "red", Ts(1));
  const auto order = PlainOrder();
  EXPECT_TRUE(props.Check("color", "red", Ts(2), order));
  EXPECT_FALSE(props.Check("color", "blue", Ts(2), order));
  EXPECT_FALSE(props.Check("shape", "red", Ts(2), order));
}

TEST(PropertySetTest, SnapshotAtReturnsAllLive) {
  PropertySet props;
  props.Assign("a", "1", Ts(1));
  props.Assign("b", "2", Ts(2));
  props.Remove("a", Ts(3));
  const auto snap = props.SnapshotAt(Ts(4), PlainOrder());
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, "b");
}

TEST(PropertySetTest, GcDropsDeadVersions) {
  PropertySet props;
  props.Assign("a", "1", Ts(1));
  props.Assign("a", "2", Ts(2));  // version 1 deleted at Ts(2)
  props.Assign("a", "3", Ts(3));  // version 2 deleted at Ts(3)
  EXPECT_EQ(props.VersionCount(), 3u);
  EXPECT_EQ(props.CollectBefore(Ts(10), PlainOrder()), 2u);
  EXPECT_EQ(props.VersionCount(), 1u);
  EXPECT_EQ(props.ValueAt("a", Ts(10), PlainOrder()), "3");
}

TEST(PropertySetTest, GcKeepsVersionsVisibleToWatermark) {
  PropertySet props;
  props.Assign("a", "1", Ts(1));
  props.Assign("a", "2", Ts(5));
  // Watermark at 3: version 1 (deleted at 5) is still visible to a reader
  // at 3 and must survive.
  EXPECT_EQ(props.CollectBefore(Ts(3), PlainOrder()), 0u);
  EXPECT_EQ(props.ValueAt("a", Ts(3), PlainOrder()), "1");
}

// ---- GraphStore ------------------------------------------------------------

TEST(GraphStoreTest, CreateAndFindNode) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  const Node* n = g.FindNode(1);
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->id, 1u);
  EXPECT_TRUE(n->VisibleAt(Ts(2), PlainOrder()));
  EXPECT_FALSE(n->VisibleAt(Ts(0), PlainOrder()));
}

TEST(GraphStoreTest, DuplicateCreateRejected) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  EXPECT_TRUE(g.CreateNode(1, Ts(2)).IsAlreadyExists());
}

TEST(GraphStoreTest, DeleteNodeIsMarkNotErase) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.DeleteNode(1, Ts(5)).ok());
  const Node* n = g.FindNode(1);
  ASSERT_NE(n, nullptr);  // still present: multi-version
  EXPECT_TRUE(n->VisibleAt(Ts(3), PlainOrder()));   // historical read
  EXPECT_FALSE(n->VisibleAt(Ts(6), PlainOrder()));  // current read
}

TEST(GraphStoreTest, DoubleDeleteRejected) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.DeleteNode(1, Ts(2)).ok());
  EXPECT_TRUE(g.DeleteNode(1, Ts(3)).IsFailedPrecondition());
}

TEST(GraphStoreTest, EdgesVisibleAtTimestamps) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.CreateNode(2, Ts(1)).ok());
  ASSERT_TRUE(g.CreateEdge(100, 1, 2, Ts(3)).ok());
  ASSERT_TRUE(g.DeleteEdge(1, 100, Ts(7)).ok());
  const Node* n = g.FindNode(1);
  const auto order = PlainOrder();
  EXPECT_EQ(n->OutDegreeAt(Ts(2), order), 0u);
  EXPECT_EQ(n->OutDegreeAt(Ts(5), order), 1u);
  EXPECT_EQ(n->OutDegreeAt(Ts(8), order), 0u);
}

TEST(GraphStoreTest, EdgeOnDeletedNodeRejected) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.DeleteNode(1, Ts(2)).ok());
  EXPECT_TRUE(g.CreateEdge(100, 1, 2, Ts(3)).IsFailedPrecondition());
}

TEST(GraphStoreTest, EdgeOnMissingNodeNotFound) {
  GraphStore g;
  EXPECT_TRUE(g.CreateEdge(100, 9, 2, Ts(1)).IsNotFound());
  EXPECT_TRUE(g.DeleteEdge(9, 100, Ts(1)).IsNotFound());
}

TEST(GraphStoreTest, NodeAndEdgePropertiesAreVersioned) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.CreateEdge(100, 1, 2, Ts(1)).ok());
  ASSERT_TRUE(g.AssignNodeProperty(1, "name", "alice", Ts(2)).ok());
  ASSERT_TRUE(g.AssignEdgeProperty(1, 100, "weight", "3.0", Ts(2)).ok());
  ASSERT_TRUE(g.AssignEdgeProperty(1, 100, "weight", "4.0", Ts(4)).ok());
  const Node* n = g.FindNode(1);
  const auto order = PlainOrder();
  EXPECT_EQ(n->props.ValueAt("name", Ts(3), order), "alice");
  const Edge& e = n->out_edges.at(100);
  EXPECT_EQ(e.props.ValueAt("weight", Ts(3), order), "3.0");
  EXPECT_EQ(e.props.ValueAt("weight", Ts(5), order), "4.0");
}

TEST(GraphStoreTest, PropertyWritesOnDeletedVertexRejected) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.AssignNodeProperty(1, "k", "v", Ts(2)).ok());
  ASSERT_TRUE(g.DeleteNode(1, Ts(3)).ok());
  EXPECT_TRUE(g.AssignNodeProperty(1, "k", "w", Ts(4)).IsFailedPrecondition());
  EXPECT_TRUE(g.RemoveNodeProperty(1, "k", Ts(4)).IsFailedPrecondition());
  // Nothing was written: the live version is still the one from Ts(2).
  const Node* n = g.FindNode(1);
  EXPECT_EQ(n->props.VersionCount(), 1u);
  EXPECT_EQ(n->last_update.local_seq, 3u);
}

TEST(GraphStoreTest, PropertyWritesOnDeletedEdgeRejected) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.CreateEdge(100, 1, 2, Ts(1)).ok());
  ASSERT_TRUE(g.AssignEdgeProperty(1, 100, "w", "1", Ts(2)).ok());
  ASSERT_TRUE(g.DeleteEdge(1, 100, Ts(3)).ok());
  EXPECT_TRUE(
      g.AssignEdgeProperty(1, 100, "w", "2", Ts(4)).IsFailedPrecondition());
  EXPECT_TRUE(g.RemoveEdgeProperty(1, 100, "w", Ts(4)).IsFailedPrecondition());
  EXPECT_TRUE(g.DeleteEdge(1, 100, Ts(4)).IsFailedPrecondition());
  EXPECT_EQ(g.FindNode(1)->out_edges.at(100).props.VersionCount(), 1u);
}

// GC may erase an edge tombstone at any time, so every edge op must
// answer the same before and after it does.
TEST(GraphStoreTest, PrunedEdgeAnswersLikeTombstonedEdge) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.CreateEdge(100, 1, 2, Ts(1)).ok());
  ASSERT_TRUE(g.DeleteEdge(1, 100, Ts(2)).ok());
  auto codes = [&g](std::uint64_t seq) {
    return std::vector<StatusCode>{
        g.DeleteEdge(1, 100, Ts(seq)).code(),
        g.AssignEdgeProperty(1, 100, "w", "1", Ts(seq)).code(),
        g.RemoveEdgeProperty(1, 100, "w", Ts(seq)).code()};
  };
  const std::vector<StatusCode> tombstoned = codes(3);
  ASSERT_EQ(g.CollectBefore(Ts(5), PlainOrder()), 1u);
  ASSERT_TRUE(g.FindNode(1)->out_edges.empty());
  EXPECT_EQ(codes(6), tombstoned);
  EXPECT_EQ(tombstoned[0], StatusCode::kFailedPrecondition);
}

TEST(GraphStoreTest, RemoveMissingPropertyNotFound) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  EXPECT_TRUE(g.RemoveNodeProperty(1, "nope", Ts(2)).IsNotFound());
}

TEST(GraphStoreTest, LastUpdateTracksWrites) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.AssignNodeProperty(1, "k", "v", Ts(9)).ok());
  EXPECT_EQ(g.FindNode(1)->last_update.local_seq, 9u);
}

TEST(GraphStoreTest, SerializeDeserializeRoundTrip) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.AssignNodeProperty(1, "name", "alice", Ts(2)).ok());
  ASSERT_TRUE(g.CreateEdge(100, 1, 2, Ts(3)).ok());
  ASSERT_TRUE(g.AssignEdgeProperty(1, 100, "w", "1", Ts(3)).ok());
  ASSERT_TRUE(g.DeleteEdge(1, 100, Ts(5)).ok());

  const std::string blob = GraphStore::SerializeNode(*g.FindNode(1));
  auto restored = GraphStore::DeserializeNode(blob);
  ASSERT_TRUE(restored.ok());
  const auto order = PlainOrder();
  EXPECT_EQ(restored->id, 1u);
  EXPECT_EQ(restored->props.ValueAt("name", Ts(3), order), "alice");
  ASSERT_EQ(restored->out_edges.size(), 1u);
  // The deleted edge survives with its full version history.
  EXPECT_TRUE(restored->out_edges.at(100).VisibleAt(Ts(4), order));
  EXPECT_FALSE(restored->out_edges.at(100).VisibleAt(Ts(6), order));
  EXPECT_EQ(restored->last_update.local_seq, 5u);
}

TEST(GraphStoreTest, DeserializeGarbageFails) {
  EXPECT_FALSE(GraphStore::DeserializeNode("nonsense").ok());
  EXPECT_FALSE(GraphStore::DecodeLatest("nonsense").ok());
  EXPECT_FALSE(GraphStore::DecodeIsLive("nonsense").ok());
}

// The reference for DecodeLatest: materialize every version, then keep
// the live ones (the transactional read path before DecodeLatest).
NodeSnapshot LatestByDeserializing(std::string_view blob) {
  auto node = GraphStore::DeserializeNode(blob);
  EXPECT_TRUE(node.ok());
  NodeSnapshot snap;
  snap.id = node->id;
  snap.exists = !node->deleted.valid();
  if (!snap.exists) return snap;
  for (const auto& v : node->props.versions()) {
    if (!v.deleted.valid()) snap.properties.emplace_back(v.key, v.value);
  }
  for (const auto& [eid, e] : node->out_edges) {
    if (e.deleted.valid()) continue;
    EdgeSnapshot es{eid, e.to, {}};
    for (const auto& v : e.props.versions()) {
      if (!v.deleted.valid()) es.properties.emplace_back(v.key, v.value);
    }
    snap.edges.push_back(std::move(es));
  }
  return snap;
}

void ExpectSameSnapshot(NodeSnapshot a, NodeSnapshot b) {
  auto by_id = [](const EdgeSnapshot& x, const EdgeSnapshot& y) {
    return x.id < y.id;
  };
  std::sort(a.edges.begin(), a.edges.end(), by_id);
  std::sort(b.edges.begin(), b.edges.end(), by_id);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.exists, b.exists);
  EXPECT_EQ(a.properties, b.properties);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].id, b.edges[i].id);
    EXPECT_EQ(a.edges[i].to, b.edges[i].to);
    EXPECT_EQ(a.edges[i].properties, b.edges[i].properties);
  }
}

TEST(GraphStoreTest, DecodeLatestMatchesDeserializeThenFilter) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  std::uint64_t seq = 2;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        g.AssignNodeProperty(1, "counter", std::to_string(i), Ts(seq++)).ok());
  }
  ASSERT_TRUE(g.AssignNodeProperty(1, "gone", "x", Ts(seq++)).ok());
  ASSERT_TRUE(g.RemoveNodeProperty(1, "gone", Ts(seq++)).ok());
  for (EdgeId e = 100; e < 130; ++e) {
    ASSERT_TRUE(g.CreateEdge(e, 1, e + 1000, Ts(seq++)).ok());
    ASSERT_TRUE(g.AssignEdgeProperty(1, e, "w", "a", Ts(seq++)).ok());
    if (e % 3 == 0) {
      ASSERT_TRUE(g.AssignEdgeProperty(1, e, "w", "b", Ts(seq++)).ok());
    }
    if (e % 4 == 0) ASSERT_TRUE(g.DeleteEdge(1, e, Ts(seq++)).ok());
  }
  const std::string blob = GraphStore::SerializeNode(*g.FindNode(1));
  auto latest = GraphStore::DecodeLatest(blob);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  ExpectSameSnapshot(*latest, LatestByDeserializing(blob));
  EXPECT_EQ(latest->GetProperty("counter"), "19");
  EXPECT_EQ(latest->GetProperty("gone"), std::nullopt);
  EXPECT_EQ(latest->edges.size(), 30u - 8u);
  EXPECT_EQ(GraphStore::DecodeIsLive(blob).value(), true);

  // A deleted vertex decodes to exists == false, with nothing else.
  ASSERT_TRUE(g.DeleteNode(1, Ts(seq++)).ok());
  const std::string dead = GraphStore::SerializeNode(*g.FindNode(1));
  auto gone = GraphStore::DecodeLatest(dead);
  ASSERT_TRUE(gone.ok());
  ExpectSameSnapshot(*gone, LatestByDeserializing(dead));
  EXPECT_FALSE(gone->exists);
  EXPECT_TRUE(gone->edges.empty());
  EXPECT_EQ(GraphStore::DecodeIsLive(dead).value(), false);
}

TEST(GraphStoreTest, DecodeRejectsTruncatedBlobs) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.AssignNodeProperty(1, "k", "v", Ts(2)).ok());
  ASSERT_TRUE(g.CreateEdge(100, 1, 2, Ts(3)).ok());
  const std::string blob = GraphStore::SerializeNode(*g.FindNode(1));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::string_view cut(blob.data(), len);
    EXPECT_FALSE(GraphStore::DeserializeNode(cut).ok()) << len;
    EXPECT_FALSE(GraphStore::DecodeLatest(cut).ok()) << len;
  }
}

TEST(GraphStoreTest, GcErasesDeletedObjects) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.CreateNode(2, Ts(1)).ok());
  ASSERT_TRUE(g.CreateEdge(100, 1, 2, Ts(2)).ok());
  ASSERT_TRUE(g.DeleteEdge(1, 100, Ts(3)).ok());
  ASSERT_TRUE(g.DeleteNode(2, Ts(3)).ok());
  EXPECT_GT(g.CollectBefore(Ts(10), PlainOrder()), 0u);
  EXPECT_EQ(g.FindNode(2), nullptr);                  // erased
  EXPECT_TRUE(g.FindNode(1)->out_edges.empty());      // edge erased
  EXPECT_NE(g.FindNode(1), nullptr);                  // live node kept
}

TEST(GraphStoreTest, GcKeepsObjectsVisibleAtWatermark) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.DeleteNode(1, Ts(8)).ok());
  EXPECT_EQ(g.CollectBefore(Ts(5), PlainOrder()), 0u);
  ASSERT_NE(g.FindNode(1), nullptr);
  EXPECT_TRUE(g.FindNode(1)->VisibleAt(Ts(5), PlainOrder()));
}

TEST(GraphStoreTest, InstallNode) {
  GraphStore g;
  Node n;
  n.id = 42;
  n.created = Ts(1);
  g.InstallNode(std::move(n));
  EXPECT_TRUE(g.ContainsNode(42));
  EXPECT_FALSE(g.ContainsNode(43));
}

TEST(GraphStoreTest, AllNodeIdsEnumerates) {
  GraphStore g;
  ASSERT_TRUE(g.CreateNode(1, Ts(1)).ok());
  ASSERT_TRUE(g.CreateNode(2, Ts(1)).ok());
  auto ids = g.AllNodeIds();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<NodeId>{1, 2}));
}

}  // namespace
}  // namespace weaver
