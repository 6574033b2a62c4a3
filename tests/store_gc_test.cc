// Backing-store GC (docs/storage.md, "What the backing store keeps"):
// ApplyCommitToStore prunes, from every vertex blob it rewrites, the
// property versions and edges deleted strictly before the published GC
// watermark, and nothing else. The end-to-end cases run a deployment
// whose GC thread publishes that watermark while commit threads read it
// (this suite runs under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/graph_op.h"
#include "core/weaver.h"
#include "kvstore/kvstore.h"
#include "order/gatekeeper.h"

namespace weaver {
namespace {

/// A timestamp from gatekeeper `gk` with the two-gatekeeper clock {a, b}.
RefinableTimestamp Ts(std::uint64_t a, std::uint64_t b, GatekeeperId gk = 1,
                      std::uint64_t seq = 0) {
  return RefinableTimestamp(VectorClock(0, {a, b}), gk,
                            seq != 0 ? seq : (gk == 0 ? a : b));
}

/// Drives ApplyCommitToStore directly against an in-memory store; every
/// vertex lives on shard 0.
class StoreApply {
 public:
  ApplyOutcome Apply(const RefinableTimestamp& ts,
                     const std::vector<GraphOp>& ops,
                     const RefinableTimestamp& watermark = {}) {
    std::unordered_map<NodeId, ShardId> placements;
    for (const GraphOp& op : ops) placements[op.node] = 0;
    KvTransaction tx = kv_.Begin();
    return ApplyCommitToStore(&tx, ts, ops, placements, watermark);
  }

  void MustApply(const RefinableTimestamp& ts,
                 const std::vector<GraphOp>& ops) {
    const ApplyOutcome out = Apply(ts, ops);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  }

  std::string Blob(NodeId id) { return kv_.Get(kv_keys::VertexData(id)).value(); }
  Node Read(NodeId id) { return GraphStore::DeserializeNode(Blob(id)).value(); }

 private:
  KvStore kv_;
};

/// Vertex `id` with property k = "old" and edge `id` (to vertex 0),
/// created at {1, 0}; then k = "new" and the edge deleted at `deleted`.
void HistoryDeletedAt(StoreApply* store, NodeId id,
                      const RefinableTimestamp& deleted) {
  store->MustApply(Ts(1, 0, 0), {GraphOp::CreateNode(id),
                                 GraphOp::AssignNodeProp(id, "k", "old"),
                                 GraphOp::CreateEdge(id, id, 0)});
  store->MustApply(deleted, {GraphOp::AssignNodeProp(id, "k", "new"),
                             GraphOp::DeleteEdge(id, id)});
}

TEST(StoreGcTest, PrunesOnlyVersionsDeletedStrictlyBeforeWatermark) {
  StoreApply store;
  const RefinableTimestamp watermark = Ts(3, 3, 0, 3);
  HistoryDeletedAt(&store, 1, Ts(2, 2));  // strictly before: pruned
  HistoryDeletedAt(&store, 2, Ts(3, 3));  // equal clock: kept
  HistoryDeletedAt(&store, 3, Ts(2, 5));  // concurrent: kept
  HistoryDeletedAt(&store, 4, Ts(4, 4));  // after: kept
  // Same issuer as the watermark with a lower local sequence, but a
  // concurrent clock: RefinableTimestamp::Compare would say "before";
  // pruning must not take that shortcut.
  HistoryDeletedAt(&store, 5, Ts(2, 5, 0, 2));
  ASSERT_EQ(Ts(2, 5, 0, 2).Compare(watermark), ClockOrder::kBefore);

  std::vector<GraphOp> touch_all;
  for (NodeId id = 1; id <= 5; ++id) {
    touch_all.push_back(GraphOp::AssignNodeProp(id, "x", "y"));
  }
  const ApplyOutcome out = store.Apply(Ts(9, 9), touch_all, watermark);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.versions_pruned, 2u);  // vertex 1: "old" and its edge

  const Node pruned = store.Read(1);
  ASSERT_EQ(pruned.props.VersionCount(), 2u);
  EXPECT_EQ(pruned.props.versions()[0].value, "new");
  EXPECT_TRUE(pruned.out_edges.empty());
  for (NodeId id = 2; id <= 5; ++id) {
    const Node kept = store.Read(id);
    EXPECT_EQ(kept.props.VersionCount(), 3u) << "vertex " << id;
    EXPECT_EQ(kept.props.versions()[0].value, "old") << "vertex " << id;
    ASSERT_EQ(kept.out_edges.size(), 1u) << "vertex " << id;
    EXPECT_TRUE(kept.out_edges.at(id).deleted.valid()) << "vertex " << id;
  }
}

TEST(StoreGcTest, InvalidWatermarkRewritesBlobUnchanged) {
  StoreApply store;
  HistoryDeletedAt(&store, 1, Ts(2, 2));
  const GraphOp op = GraphOp::AssignNodeProp(1, "k", "newer");
  const RefinableTimestamp ts = Ts(9, 9);
  // The blob as the store wrote it before pruning existed: decode, apply,
  // re-encode.
  Node expected = store.Read(1);
  ASSERT_TRUE(ApplyGraphOpToNode(&expected, op, ts).ok());
  const ApplyOutcome out = store.Apply(ts, {op}, RefinableTimestamp{});
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.versions_pruned, 0u);
  EXPECT_EQ(store.Blob(1), GraphStore::SerializeNode(expected));
}

TEST(StoreGcTest, PropertyWriteOnDeletedVertexIsRejected) {
  StoreApply store;
  store.MustApply(Ts(1, 0, 0), {GraphOp::CreateNode(1),
                                GraphOp::AssignNodeProp(1, "k", "v")});
  store.MustApply(Ts(2, 0, 0), {GraphOp::DeleteNode(1)});
  const std::string before = store.Blob(1);
  EXPECT_TRUE(
      store.Apply(Ts(3, 0, 0), {GraphOp::AssignNodeProp(1, "k", "w")})
          .status.IsFailedPrecondition());
  EXPECT_TRUE(store.Apply(Ts(3, 0, 0), {GraphOp::RemoveNodeProp(1, "k")})
                  .status.IsFailedPrecondition());
  EXPECT_EQ(store.Blob(1), before);
}

// A commit's outcome must not depend on whether GC has pruned an edge
// tombstone yet.
TEST(StoreGcTest, OpsOnPrunedEdgeAnswerLikeTombstonedEdge) {
  StoreApply store;
  HistoryDeletedAt(&store, 1, Ts(2, 2));
  const std::vector<GraphOp> edge_ops = {
      GraphOp::DeleteEdge(1, 1), GraphOp::AssignEdgeProp(1, 1, "w", "1"),
      GraphOp::RemoveEdgeProp(1, 1, "w")};
  auto codes = [&](std::uint64_t t) {
    std::vector<StatusCode> out;
    for (const GraphOp& op : edge_ops) {
      out.push_back(store.Apply(Ts(t, t), {op}).status.code());
    }
    return out;
  };
  const std::vector<StatusCode> tombstoned = codes(5);
  EXPECT_EQ(tombstoned[0], StatusCode::kFailedPrecondition);
  EXPECT_EQ(tombstoned[1], StatusCode::kFailedPrecondition);
  EXPECT_EQ(tombstoned[2], StatusCode::kFailedPrecondition);

  const ApplyOutcome prune = store.Apply(
      Ts(6, 6), {GraphOp::AssignNodeProp(1, "x", "y")}, Ts(3, 3));
  ASSERT_TRUE(prune.status.ok());
  ASSERT_TRUE(store.Read(1).out_edges.empty());
  EXPECT_EQ(codes(7), tombstoned);
}

// ---- End to end, in-process gatekeepers -----------------------------------

std::string BlobOf(Weaver* db, NodeId id) {
  return db->kv().Get(kv_keys::VertexData(id)).value();
}

std::size_t BlobSize(Weaver* db, NodeId id) { return BlobOf(db, id).size(); }

std::size_t CounterVersions(Weaver* db, NodeId id) {
  return GraphStore::DeserializeNode(BlobOf(db, id))->props.VersionCount();
}

/// Counter versions left after a GC round and one more increment: the
/// live one, the one that increment superseded, and possibly the one the
/// last increment before the round superseded -- when no NOP ticked the
/// clock in between, that deletion sits exactly at the watermark.
constexpr std::size_t kAfterGcRound = 3;

Status Increment(Weaver* db, NodeId id) {
  return db->RunTransaction(
      [id](Transaction& tx) -> Status {
        WEAVER_ASSIGN_OR_RETURN(NodeSnapshot snap, tx.GetNode(id));
        const int value = std::stoi(snap.GetProperty("counter").value());
        return tx.AssignNodeProperty(id, "counter",
                                     std::to_string(value + 1));
      },
      /*max_attempts=*/64);
}

/// GC rounds, each followed by one increment (pruning happens when a blob
/// is rewritten), until the counter blob is down to kAfterGcRound
/// versions. With several gatekeepers the watermark trails the newest
/// commit until announces carry it to every clock, so this can take a
/// few rounds. Returns the number of increments made.
int GcUntilPruned(Weaver* db, NodeId id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int increments = 0;
  do {
    db->RunGarbageCollection();
    EXPECT_TRUE(Increment(db, id).ok());
    ++increments;
  } while (CounterVersions(db, id) > kAfterGcRound &&
           std::chrono::steady_clock::now() < deadline);
  return increments;
}

NodeId CreateCounter(Weaver* db) {
  Transaction tx = db->BeginTx();
  const NodeId id = tx.CreateNode();
  EXPECT_TRUE(tx.AssignNodeProperty(id, "counter", "0").ok());
  EXPECT_TRUE(db->Commit(&tx).ok());
  return id;
}

std::string CounterValue(Weaver* db, NodeId id) {
  Transaction tx = db->BeginTx();
  return tx.GetNode(id).value().GetProperty("counter").value_or("");
}

std::uint64_t PrunedCount(Weaver* db) {
  return db->metrics().Snapshot().CounterValue("backing.versions_pruned");
}

TEST(StoreGcEndToEnd, RewrittenCounterBlobStaysBounded) {
  WeaverOptions o;
  o.num_shards = 2;
  o.num_gatekeepers = 2;
  o.gc_period_micros = 0;  // this test runs the GC rounds itself
  auto db = Weaver::Open(o);
  ASSERT_NE(db, nullptr);
  const NodeId id = CreateCounter(db.get());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(Increment(db.get(), id).ok());
  // No GC round yet, so no watermark: nothing was pruned.
  const std::size_t after_ten = BlobSize(db.get(), id);
  EXPECT_EQ(PrunedCount(db.get()), 0u);
  for (int i = 10; i < 500; ++i) ASSERT_TRUE(Increment(db.get(), id).ok());
  EXPECT_GT(BlobSize(db.get(), id), after_ten);

  // With no program in flight the watermark is the gatekeepers' clocks,
  // so rewrites after a GC round drop every superseded counter version.
  const int extra = GcUntilPruned(db.get(), id);
  EXPECT_LE(CounterVersions(db.get(), id), kAfterGcRound);
  EXPECT_LE(BlobSize(db.get(), id), after_ten);
  EXPECT_EQ(CounterValue(db.get(), id), std::to_string(500 + extra));
  EXPECT_GE(PrunedCount(db.get()), 501u + extra - kAfterGcRound);
}

TEST(StoreGcEndToEnd, InFlightProgramHoldsBackPruning) {
  WeaverOptions o;
  o.num_shards = 1;
  o.num_gatekeepers = 1;
  o.gc_period_micros = 0;
  auto db = Weaver::Open(o);
  ASSERT_NE(db, nullptr);
  const NodeId id = CreateCounter(db.get());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(Increment(db.get(), id).ok());
  // A program registered now may read counter = 5 until it ends.
  const RefinableTimestamp program = db->gatekeeper(0).BeginProgram();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(Increment(db.get(), id).ok());
  db->RunGarbageCollection();
  ASSERT_TRUE(Increment(db.get(), id).ok());
  // "0".."4" were superseded before the program began; "5" onwards were
  // superseded after it and must still be there.
  const Node held = GraphStore::DeserializeNode(BlobOf(db.get(), id)).value();
  ASSERT_EQ(held.props.VersionCount(), 7u);
  EXPECT_EQ(held.props.versions().front().value, "5");

  db->gatekeeper(0).EndProgram(program);
  GcUntilPruned(db.get(), id);
  EXPECT_LE(CounterVersions(db.get(), id), kAfterGcRound);
}

// The GC thread publishes watermarks while every commit thread reads
// them; concurrent increments must still all land exactly once.
TEST(StoreGcEndToEnd, WatermarkPublishedWhileCommitting) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  WeaverOptions o;
  o.num_shards = 2;
  o.num_gatekeepers = 2;
  o.gc_period_micros = 1'000;
  auto db = Weaver::Open(o);
  ASSERT_NE(db, nullptr);
  const NodeId id = CreateCounter(db.get());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!Increment(db.get(), id).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(CounterValue(db.get(), id),
            std::to_string(kThreads * kPerThread));
  GcUntilPruned(db.get(), id);
  EXPECT_LE(CounterVersions(db.get(), id), kAfterGcRound);
}

}  // namespace
}  // namespace weaver
