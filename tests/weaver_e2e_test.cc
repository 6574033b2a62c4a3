// End-to-end tests of the full deployment: transactions, node programs,
// snapshot isolation, and the paper's motivating scenarios (Fig 1, Fig 2).
#include "core/weaver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "programs/standard_programs.h"

namespace weaver {
namespace {

// Sanitizer builds run the deployment an order of magnitude slower, and
// the aggressive timer periods below then produce announce/NOP messages
// faster than the instrumented shard loops can drain them (the bus has no
// backpressure; see ROADMAP). Relax the timers under sanitizers so the
// concurrency tests exercise the same interleavings at a survivable rate.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::uint64_t kTimerScale = 20;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr std::uint64_t kTimerScale = 20;
#else
constexpr std::uint64_t kTimerScale = 1;
#endif
#else
constexpr std::uint64_t kTimerScale = 1;
#endif

WeaverOptions FastOptions(std::size_t gks = 2, std::size_t shards = 2) {
  WeaverOptions o;
  o.num_gatekeepers = gks;
  o.num_shards = shards;
  o.tau_micros = 200 * kTimerScale;
  o.nop_period_micros = 100 * kTimerScale;
  return o;
}

TEST(WeaverE2E, OpenAndShutdown) {
  auto db = Weaver::Open(FastOptions());
  EXPECT_TRUE(db->started());
  EXPECT_EQ(db->num_gatekeepers(), 2u);
  EXPECT_EQ(db->num_shards(), 2u);
  db->Shutdown();
  EXPECT_FALSE(db->started());
}

TEST(WeaverE2E, CreateNodeAndReadBack) {
  auto db = Weaver::Open(FastOptions());
  auto tx = db->BeginTx();
  const NodeId n = tx.CreateNode();
  ASSERT_TRUE(tx.AssignNodeProperty(n, "name", "alice").ok());
  ASSERT_TRUE(db->Commit(&tx).ok());
  EXPECT_TRUE(tx.committed());
  EXPECT_TRUE(tx.timestamp().valid());

  auto tx2 = db->BeginTx();
  auto snap = tx2.GetNode(n);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->exists);
  EXPECT_EQ(snap->GetProperty("name"), "alice");
}

TEST(WeaverE2E, Fig2PhotoAclTransaction) {
  // The paper's Fig 2: post a photo and set up its ACL atomically.
  auto db = Weaver::Open(FastOptions());
  // Setup: a user and three friends.
  NodeId user, f1, f2, f3;
  {
    auto tx = db->BeginTx();
    user = tx.CreateNode();
    f1 = tx.CreateNode();
    f2 = tx.CreateNode();
    f3 = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // The Fig 2 transaction.
  NodeId photo;
  {
    auto tx = db->BeginTx();
    photo = tx.CreateNode();
    const EdgeId own = tx.CreateEdge(user, photo);
    ASSERT_TRUE(tx.AssignEdgeProperty(user, own, "OWNS", "1").ok());
    for (NodeId nbr : {f1, f2}) {  // f3 not permitted
      const EdgeId access = tx.CreateEdge(photo, nbr);
      ASSERT_TRUE(tx.AssignEdgeProperty(photo, access, "VISIBLE", "1").ok());
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // Reads see the whole ACL or nothing (here: the whole thing).
  auto tx = db->BeginTx();
  auto snap = tx.GetNode(photo);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->edges.size(), 2u);
}

TEST(WeaverE2E, DeleteNodeThenOpsFail) {
  auto db = Weaver::Open(FastOptions());
  NodeId n;
  {
    auto tx = db->BeginTx();
    n = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    ASSERT_TRUE(tx.DeleteNode(n).ok());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    (void)tx.CreateEdge(n, n);
    EXPECT_FALSE(db->Commit(&tx).ok());  // source deleted
  }
  {
    auto tx = db->BeginTx();
    auto exists = tx.NodeExists(n);
    ASSERT_TRUE(exists.ok());
    EXPECT_FALSE(*exists);
  }
}

TEST(WeaverE2E, CommitOnUnknownVertexFails) {
  auto db = Weaver::Open(FastOptions());
  auto tx = db->BeginTx();
  ASSERT_TRUE(tx.AssignNodeProperty(999999, "k", "v").ok());
  EXPECT_TRUE(db->Commit(&tx).IsNotFound());
}

TEST(WeaverE2E, RunTransactionRetriesOnConflict) {
  auto db = Weaver::Open(FastOptions());
  NodeId counter;
  {
    auto tx = db->BeginTx();
    counter = tx.CreateNode();
    ASSERT_TRUE(tx.AssignNodeProperty(counter, "value", "0").ok());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // Concurrent read-modify-write increments: every one must land.
  constexpr int kThreads = 4;
  constexpr int kIncrements = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        const Status st = db->RunTransaction(
            [&](Transaction& tx) -> Status {
              auto snap = tx.GetNode(counter);
              if (!snap.ok()) return snap.status();
              const int cur = std::stoi(*snap->GetProperty("value"));
              return tx.AssignNodeProperty(counter, "value",
                                           std::to_string(cur + 1));
            },
            /*max_attempts=*/100);
        if (!st.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto tx = db->BeginTx();
  auto snap = tx.GetNode(counter);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(*snap->GetProperty("value"),
            std::to_string(kThreads * kIncrements));
}

TEST(WeaverE2E, GetNodeProgramSeesCommittedWrites) {
  auto db = Weaver::Open(FastOptions());
  NodeId n;
  {
    auto tx = db->BeginTx();
    n = tx.CreateNode();
    ASSERT_TRUE(tx.AssignNodeProperty(n, "name", "bob").ok());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  auto result = db->RunProgram(programs::kGetNode, n);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->returns.size(), 1u);
  const auto decoded =
      programs::GetNodeResult::Decode(result->returns[0].second);
  EXPECT_TRUE(decoded.exists);
  ASSERT_EQ(decoded.properties.size(), 1u);
  EXPECT_EQ(decoded.properties[0].second, "bob");
}

TEST(WeaverE2E, ProgramOnMissingVertexReturnsNothing) {
  auto db = Weaver::Open(FastOptions());
  // Vertex id never created: locator lookup fails; no returns.
  auto result = db->RunProgram(programs::kGetNode, 424242);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->returns.empty());
}

TEST(WeaverE2E, UnknownProgramRejected) {
  auto db = Weaver::Open(FastOptions());
  EXPECT_TRUE(db->RunProgram("no_such_program", 1).status().IsNotFound());
}

TEST(WeaverE2E, BfsCrossShardTraversal) {
  auto db = Weaver::Open(FastOptions(2, 3));
  // Chain a -> b -> c -> d spread across shards.
  std::vector<NodeId> chain;
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < 4; ++i) chain.push_back(tx.CreateNode());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < 3; ++i) {
      const EdgeId e = tx.CreateEdge(chain[i], chain[i + 1]);
      ASSERT_TRUE(tx.AssignEdgeProperty(chain[i], e, "rel", "follows").ok());
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  programs::BfsParams params;
  params.edge_prop_key = "rel";
  params.edge_prop_value = "follows";
  params.target = chain[3];
  auto result =
      db->RunProgram(programs::kBfs, chain[0], params.Encode());
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const auto& [node, ret] : result->returns) {
    if (ret == "found") {
      found = true;
      EXPECT_EQ(node, chain[3]);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GE(result->waves, 2u);  // crossed shard boundaries
}

TEST(WeaverE2E, BfsRespectsEdgePropertyFilter) {
  auto db = Weaver::Open(FastOptions());
  NodeId a, b;
  {
    auto tx = db->BeginTx();
    a = tx.CreateNode();
    b = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    const EdgeId e = tx.CreateEdge(a, b);
    ASSERT_TRUE(tx.AssignEdgeProperty(a, e, "rel", "blocks").ok());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  programs::BfsParams params;
  params.edge_prop_key = "rel";
  params.edge_prop_value = "follows";  // does not match "blocks"
  params.target = b;
  auto result = db->RunProgram(programs::kBfs, a, params.Encode());
  ASSERT_TRUE(result.ok());
  for (const auto& [_, ret] : result->returns) {
    EXPECT_NE(ret, "found");
  }
}

TEST(WeaverE2E, CountEdgesProgram) {
  auto db = Weaver::Open(FastOptions());
  NodeId hub;
  {
    auto tx = db->BeginTx();
    hub = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < 5; ++i) {
      const NodeId spoke = tx.CreateNode();
      tx.CreateEdge(hub, spoke);
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  auto result = db->RunProgram(programs::kCountEdges, hub);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->returns.size(), 1u);
  ByteReader r(result->returns[0].second);
  std::uint64_t count = 0;
  ASSERT_TRUE(r.GetU64(&count).ok());
  EXPECT_EQ(count, 5u);
}

TEST(WeaverE2E, ShortestPathProgram) {
  auto db = Weaver::Open(FastOptions(2, 3));
  // Diamond with a long way around: a->b->d (2) and a->c1->c2->d (3).
  NodeId a, b, c1, c2, d;
  {
    auto tx = db->BeginTx();
    a = tx.CreateNode();
    b = tx.CreateNode();
    c1 = tx.CreateNode();
    c2 = tx.CreateNode();
    d = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    tx.CreateEdge(a, b);
    tx.CreateEdge(b, d);
    tx.CreateEdge(a, c1);
    tx.CreateEdge(c1, c2);
    tx.CreateEdge(c2, d);
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  programs::ShortestPathParams params;
  params.target = d;
  auto result = db->RunProgram(programs::kShortestPath, a, params.Encode());
  ASSERT_TRUE(result.ok());
  std::uint32_t best = ~0u;
  for (const auto& [node, ret] : result->returns) {
    EXPECT_EQ(node, d);
    ByteReader r(ret);
    std::uint32_t dist = 0;
    ASSERT_TRUE(r.GetU32(&dist).ok());
    best = std::min(best, dist);
  }
  EXPECT_EQ(best, 2u);
}

TEST(WeaverE2E, BulkLoadThenQuery) {
  WeaverOptions o = FastOptions(2, 2);
  o.start = false;
  auto db = Weaver::Open(o);
  ASSERT_TRUE(db->BulkCreateNode(1, {{"name", "a"}}).ok());
  ASSERT_TRUE(db->BulkCreateNode(2, {{"name", "b"}}).ok());
  auto e = db->BulkCreateEdge(1, 2, {{"rel", "follows"}});
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(db->FinishBulkLoad().ok());
  db->Start();

  auto result = db->RunProgram(programs::kGetEdges, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->returns.size(), 1u);
  const auto decoded =
      programs::GetEdgesResult::Decode(result->returns[0].second);
  ASSERT_EQ(decoded.edges.size(), 1u);
  EXPECT_EQ(decoded.edges[0].second, 2u);
}

TEST(WeaverE2E, ReadOnlyProgramStreamKeepsNopsOutOfOracle) {
  // With timers running, programs keep meeting NOP heads whose clocks are
  // concurrent with them. The delay rule decides those by clock, so a
  // stream of reads over bulk-loaded data (no transactions at all) never
  // asks the oracle for an order and its DAG does not grow with NOPs.
  WeaverOptions o = FastOptions(2, 2);
  o.start = false;
  auto db = Weaver::Open(o);
  constexpr NodeId kNodes = 8;
  for (NodeId id = 1; id <= kNodes; ++id) {
    ASSERT_TRUE(db->BulkCreateNode(id, {{"name", std::to_string(id)}}).ok());
  }
  ASSERT_TRUE(db->FinishBulkLoad().ok());
  db->Start();
  // The load timestamp comes from gk0. Wait until gk1 has heard of it, so
  // its programs see the loaded versions by clock: a version read is a
  // legitimate transaction-vs-program oracle pair, not what is tested.
  while (db->gatekeeper(1).SnapshotClock().Component(0) == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 400; ++i) {
    const NodeId n = 1 + static_cast<NodeId>(i) % kNodes;
    auto result = db->RunProgramOn(static_cast<GatekeeperId>(i % 2),
                                   programs::kGetNode, n);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->returns.size(), 1u);
    const auto decoded =
        programs::GetNodeResult::Decode(result->returns[0].second);
    ASSERT_EQ(decoded.properties.size(), 1u);
    EXPECT_EQ(decoded.properties[0].second, std::to_string(n));
  }
  EXPECT_EQ(db->oracle().stats().order_requests.load(), 0u);
  EXPECT_GT(db->shard(0).stats().nops_processed.load(), 0u);
}

TEST(WeaverE2E, BulkLoadAfterStartRejected) {
  auto db = Weaver::Open(FastOptions());
  EXPECT_TRUE(db->BulkCreateNode(1).IsFailedPrecondition());
}

TEST(WeaverE2E, HistoricalReads) {
  // Multi-version graph supports reads at old timestamps: a node program
  // issued before a delete (by timestamp) still sees the object.
  auto db = Weaver::Open(FastOptions());
  NodeId a, b;
  {
    auto tx = db->BeginTx();
    a = tx.CreateNode();
    b = tx.CreateNode();
    tx.CreateEdge(a, b);
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // Delete the edge...
  {
    auto tx = db->BeginTx();
    auto snap = tx.GetNode(a);
    ASSERT_TRUE(snap.ok());
    ASSERT_EQ(snap->edges.size(), 1u);
    ASSERT_TRUE(tx.DeleteEdge(a, snap->edges[0].id).ok());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // ...a fresh program (later timestamp) sees no edges,
  auto result = db->RunProgram(programs::kCountEdges, a);
  ASSERT_TRUE(result.ok());
  ByteReader r(result->returns[0].second);
  std::uint64_t count = 1;
  ASSERT_TRUE(r.GetU64(&count).ok());
  EXPECT_EQ(count, 0u);
  // ...but the version chain still holds the deleted edge until GC.
  db->RunGarbageCollection();
}

TEST(WeaverE2E, GarbageCollectionShrinksState) {
  auto db = Weaver::Open(FastOptions());
  NodeId n;
  {
    auto tx = db->BeginTx();
    n = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // Churn some property versions.
  for (int i = 0; i < 10; ++i) {
    auto tx = db->BeginTx();
    ASSERT_TRUE(
        tx.AssignNodeProperty(n, "v", std::to_string(i)).ok());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // Allow the shard loops to drain, then GC.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  db->RunGarbageCollection();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The program still sees the latest value.
  auto result = db->RunProgram(programs::kGetNode, n);
  ASSERT_TRUE(result.ok());
  const auto decoded =
      programs::GetNodeResult::Decode(result->returns[0].second);
  ASSERT_EQ(decoded.properties.size(), 1u);
  EXPECT_EQ(decoded.properties[0].second, "9");
}

TEST(WeaverE2E, ManyConcurrentClients) {
  auto db = Weaver::Open(FastOptions(3, 3));
  // Seed a small graph.
  std::vector<NodeId> nodes;
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < 20; ++i) nodes.push_back(tx.CreateNode());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  std::vector<std::thread> clients;
  std::atomic<int> commits{0}, reads{0};
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        if ((i + t) % 3 == 0) {
          // Writer: add an edge.
          const Status st = db->RunTransaction([&](Transaction& tx) {
            tx.CreateEdge(nodes[(t * 7 + i) % nodes.size()],
                          nodes[(t * 11 + i + 1) % nodes.size()]);
            return Status::Ok();
          });
          if (st.ok()) commits.fetch_add(1);
        } else {
          auto r = db->RunProgram(programs::kCountEdges,
                                  nodes[(t * 13 + i) % nodes.size()]);
          if (r.ok()) reads.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_GT(commits.load(), 0);
  EXPECT_GT(reads.load(), 0);
  // No FIFO violations anywhere.
  for (std::size_t s = 0; s < db->num_shards(); ++s) {
    EXPECT_EQ(db->shard(static_cast<ShardId>(s)).stats().seq_violations.load(),
              0u);
  }
}

}  // namespace
}  // namespace weaver
