// Tests for the decentralized node-program execution model
// (docs/node_programs.md): shard-to-shard hop forwarding, quiescence by
// credit-counting accounting, ingress coalescing / visited-vertex
// pruning, per-program state GC after async completion, and a
// writers-vs-programs stress (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "client/weaver_client.h"
#include "common/random.h"
#include "core/weaver.h"
#include "programs/extended_programs.h"
#include "programs/standard_programs.h"

namespace weaver {
namespace {

WeaverOptions FastOptions(std::size_t gks, std::size_t shards) {
  WeaverOptions o;
  o.num_gatekeepers = gks;
  o.num_shards = shards;
  o.tau_micros = 200;
  o.nop_period_micros = 100;
  return o;
}

/// Builds the same pseudo-random graph on any deployment: `num_nodes`
/// vertices, `num_edges` directed edges chosen by a fixed-seed RNG.
void BuildGraph(Weaver* db, NodeId num_nodes, std::size_t num_edges,
                std::uint64_t seed, std::vector<NodeId>* nodes) {
  {
    auto tx = db->BeginTx();
    for (NodeId i = 0; i < num_nodes; ++i) nodes->push_back(tx.CreateNode());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  Rng rng(seed);
  // Several transactions so placements span every shard configuration.
  const std::size_t per_tx = 64;
  for (std::size_t done = 0; done < num_edges;) {
    auto tx = db->BeginTx();
    for (std::size_t i = 0; i < per_tx && done < num_edges; ++i, ++done) {
      const NodeId from = (*nodes)[rng.Uniform(num_nodes)];
      const NodeId to = (*nodes)[rng.Uniform(num_nodes)];
      tx.CreateEdge(from, to);
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
}

std::vector<std::pair<NodeId, std::string>> Sorted(
    std::vector<std::pair<NodeId, std::string>> returns) {
  std::sort(returns.begin(), returns.end());
  return returns;
}

// The cross-check suite of the acceptance criteria: every program must
// produce identical results on a multi-shard deployment (decentralized
// forwarding) and on a single-shard one (trivially serial reference),
// given the same quiesced graph.
TEST(ProgramExecutionTest, MultiShardMatchesSingleShardReference) {
  constexpr NodeId kNodes = 120;
  constexpr std::size_t kEdges = 600;
  std::vector<NodeId> single_nodes, multi_nodes;
  auto single = Weaver::Open(FastOptions(1, 1));
  auto multi = Weaver::Open(FastOptions(2, 3));
  BuildGraph(single.get(), kNodes, kEdges, 42, &single_nodes);
  BuildGraph(multi.get(), kNodes, kEdges, 42, &multi_nodes);
  ASSERT_EQ(single_nodes, multi_nodes);  // same ids => comparable returns

  struct Case {
    std::string_view program;
    std::string params;
    /// Programs whose revisits return again (shortest path) emit a
    /// per-vertex return STREAM; the client-visible result is the
    /// per-vertex reduction (min here), which is how every consumer of
    /// these programs already reads them (see WeaverE2E.ShortestPath,
    /// LabelProp's "last one per vertex wins"). Visit-once programs
    /// return exactly once per vertex and compare raw.
    bool reduce_min_per_vertex = false;
  };
  programs::BfsParams bfs;
  bfs.target = single_nodes[kNodes - 1];
  programs::ShortestPathParams sp;
  sp.target = single_nodes[kNodes / 2];
  programs::KHopParams khop;
  khop.remaining = 3;
  const std::vector<Case> cases = {
      {programs::kBfs, bfs.Encode(), false},
      {programs::kShortestPath, sp.Encode(), true},
      {programs::kKHop, khop.Encode(), false},  // returns once per vertex
      {programs::kCountEdges, "", false},
      {programs::kGetNode, "", false},
  };
  auto reduce = [](const std::vector<std::pair<NodeId, std::string>>& returns,
                   bool min_per_vertex) {
    if (!min_per_vertex) return Sorted(returns);
    std::map<NodeId, std::string> best;
    for (const auto& [node, blob] : returns) {
      auto [it, fresh] = best.try_emplace(node, blob);
      if (!fresh && blob < it->second) it->second = blob;
    }
    return std::vector<std::pair<NodeId, std::string>>(best.begin(),
                                                       best.end());
  };
  for (const Case& c : cases) {
    for (NodeId start : {single_nodes[0], single_nodes[7]}) {
      auto ref = single->RunProgram(c.program, start, c.params);
      auto dec = multi->RunProgram(c.program, start, c.params);
      ASSERT_TRUE(ref.ok()) << c.program << ": " << ref.status().ToString();
      ASSERT_TRUE(dec.ok()) << c.program << ": " << dec.status().ToString();
      // Returns are compared as sorted multisets: within a shard the
      // order is visit order, across shards it is accounting order.
      EXPECT_EQ(reduce(ref->returns, c.reduce_min_per_vertex),
                reduce(dec->returns, c.reduce_min_per_vertex))
          << c.program << " diverged from the serial reference";
    }
  }
}

// Termination on cyclic graphs: quiescence accounting must balance even
// when the traversal loops back onto visited vertices across shards.
TEST(ProgramExecutionTest, TerminatesOnCyclicGraph) {
  auto db = Weaver::Open(FastOptions(2, 3));
  constexpr int kRing = 30;
  std::vector<NodeId> ring;
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < kRing; ++i) ring.push_back(tx.CreateNode());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < kRing; ++i) {
      tx.CreateEdge(ring[i], ring[(i + 1) % kRing]);
      // Chords make the cycle structure denser than a plain ring.
      tx.CreateEdge(ring[i], ring[(i + 7) % kRing]);
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // VisitOnce traversal around the cycles.
  auto bfs = db->RunProgram(programs::kBfs, ring[0], programs::BfsParams{}.Encode());
  ASSERT_TRUE(bfs.ok()) << bfs.status().ToString();
  EXPECT_EQ(bfs->returns.size(), static_cast<std::size_t>(kRing));
  // Param-dependent revisits (shortest path) must also quiesce.
  programs::ShortestPathParams sp;
  sp.target = ring[kRing / 2];
  auto spr = db->RunProgram(programs::kShortestPath, ring[0], sp.Encode());
  ASSERT_TRUE(spr.ok()) << spr.status().ToString();
  ASSERT_FALSE(spr->returns.empty());
}

// Hop coalescing correctness: a diamond fan-in delivers multiple
// identical hops to one vertex; coalescing must drop the duplicates
// (counters) without changing the result (exactly one return per
// vertex).
TEST(ProgramExecutionTest, FanInCoalescesWithoutChangingResults) {
  auto db = Weaver::Open(FastOptions(2, 2));
  // a -> b1..b8 -> z : z receives 8 same-depth, same-params hops.
  NodeId a, z;
  std::vector<NodeId> mids;
  {
    auto tx = db->BeginTx();
    a = tx.CreateNode();
    for (int i = 0; i < 8; ++i) mids.push_back(tx.CreateNode());
    z = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    for (NodeId m : mids) {
      tx.CreateEdge(a, m);
      tx.CreateEdge(m, z);
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  auto result =
      db->RunProgram(programs::kBfs, a, programs::BfsParams{}.Encode());
  ASSERT_TRUE(result.ok());
  std::vector<NodeId> returned;
  for (const auto& [node, _] : result->returns) returned.push_back(node);
  std::sort(returned.begin(), returned.end());
  EXPECT_TRUE(std::adjacent_find(returned.begin(), returned.end()) ==
              returned.end())
      << "a vertex produced two returns: duplicate hops were re-dispatched";
  EXPECT_EQ(returned.size(), mids.size() + 2);  // a + mids + z
  // The duplicates went somewhere: pruned or coalesced at ingress, and
  // strictly fewer hops consumed than edges traversed naively.
  std::uint64_t pruned = 0;
  for (std::size_t s = 0; s < db->num_shards(); ++s) {
    const auto& st = db->shard(static_cast<ShardId>(s)).stats();
    pruned += st.hops_pruned.load() + st.hops_coalesced.load();
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_LT(result->hops, 1u + 2 * mids.size() + 1);
}

// Program scratch state is GC'd on every touched shard after an ASYNC
// (session API) completion -- the EndProgram broadcast of the
// accounting-driven teardown.
TEST(ProgramExecutionTest, StateGcAfterAsyncCompletion) {
  auto db = Weaver::Open(FastOptions(2, 3));
  std::vector<NodeId> chain;
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < 12; ++i) chain.push_back(tx.CreateNode());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    for (int i = 0; i + 1 < 12; ++i) tx.CreateEdge(chain[i], chain[i + 1]);
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  WeaverClient client(db.get());
  auto session = client.OpenSession();
  for (int round = 0; round < 4; ++round) {
    auto pending = session->RunProgramAsync(
        programs::kBfs, {NextHop{chain[0], programs::BfsParams{}.Encode()}});
    auto result = pending.Take();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->returns.size(), chain.size());
  }
  // EndProgram is broadcast after the result is delivered; give the
  // shard loops a moment to drain it, then require zero retained state.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    std::size_t live = 0;
    for (std::size_t s = 0; s < db->num_shards(); ++s) {
      live += db->shard(static_cast<ShardId>(s)).ProgramStateCount();
      live += db->shard(static_cast<ShardId>(s)).ProgramContextCount();
    }
    if (live == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::size_t s = 0; s < db->num_shards(); ++s) {
    EXPECT_EQ(db->shard(static_cast<ShardId>(s)).ProgramStateCount(), 0u)
        << "shard " << s << " leaked program state";
    EXPECT_EQ(db->shard(static_cast<ShardId>(s)).ProgramContextCount(), 0u)
        << "shard " << s << " leaked a program context";
  }
}

// Concurrent writers vs. programs: the delay rule + decentralized
// forwarding under churn. TSan-clean is part of the acceptance criteria
// (this test is in CI's TSan suite).
TEST(ProgramExecutionTest, ConcurrentWritesVsProgramsStress) {
  auto db = Weaver::Open(FastOptions(2, 3));
  constexpr int kNodes = 40;
  std::vector<NodeId> nodes;
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < kNodes; ++i) nodes.push_back(tx.CreateNode());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < kNodes; ++i) {
      tx.CreateEdge(nodes[i], nodes[(i + 1) % kNodes]);
      tx.CreateEdge(nodes[i], nodes[(i + 5) % kNodes]);
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> commit_failures{0};
  std::thread writer([&] {
    Rng rng(7);
    while (!stop.load()) {
      const NodeId n = nodes[rng.Uniform(kNodes)];
      const Status st = db->RunTransaction([&](Transaction& tx) {
        return tx.AssignNodeProperty(n, "w", std::to_string(rng.Next()));
      });
      if (!st.ok()) commit_failures.fetch_add(1);
    }
  });
  std::thread program_runner([&] {
    Rng rng(11);
    for (int i = 0; i < 40; ++i) {
      auto r = db->RunProgram(programs::kBfs, nodes[rng.Uniform(kNodes)],
                              programs::BfsParams{}.Encode());
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // The whole strongly-connected ring is reachable from any start.
      EXPECT_EQ(r->returns.size(), static_cast<std::size_t>(kNodes));
    }
  });
  program_runner.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(commit_failures.load(), 0);
}

// Forwarding is real messaging: a multi-shard traversal must move hop
// batches shard-to-shard and report more than one drain cycle, while a
// single-shard traversal completes in one cycle with zero forwards.
TEST(ProgramExecutionTest, AccountingCountersReflectTopology) {
  auto multi = Weaver::Open(FastOptions(2, 3));
  auto single = Weaver::Open(FastOptions(2, 1));
  for (Weaver* db : {multi.get(), single.get()}) {
    std::vector<NodeId> chain;
    {
      auto tx = db->BeginTx();
      for (int i = 0; i < 9; ++i) chain.push_back(tx.CreateNode());
      ASSERT_TRUE(db->Commit(&tx).ok());
    }
    {
      auto tx = db->BeginTx();
      for (int i = 0; i + 1 < 9; ++i) tx.CreateEdge(chain[i], chain[i + 1]);
      ASSERT_TRUE(db->Commit(&tx).ok());
    }
    auto r = db->RunProgram(programs::kBfs, chain[0],
                            programs::BfsParams{}.Encode());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->returns.size(), chain.size());
    EXPECT_EQ(r->hops, static_cast<std::uint64_t>(9));  // chain: no fan-in
    if (db == multi.get()) {
      EXPECT_GT(r->forwarded_batches, 0u) << "no shard-to-shard forwarding";
      EXPECT_GE(r->waves, 2u);
    } else {
      EXPECT_EQ(r->forwarded_batches, 0u);
      EXPECT_EQ(r->waves, 1u);  // one local worklist drain
    }
    EXPECT_GE(r->coordinator_msgs, r->waves);
  }
}

// Cross-shard fan-in: in K(8,8) with edges both ways every vertex is
// reached from 8 in-edges spread over 3 shards. The first hop to reach a
// vertex claims it, so each reachable vertex runs (and returns) exactly
// once however the hops race across shards -- and hop execution shows up
// in its own per-shard time counter, inside op_work_ns.
TEST(ProgramExecutionTest, CrossShardFanInRunsEachVertexOnce) {
  auto db = Weaver::Open(FastOptions(2, 3));
  constexpr int kSide = 8;
  std::vector<NodeId> left, right;
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < kSide; ++i) left.push_back(tx.CreateNode());
    for (int i = 0; i < kSide; ++i) right.push_back(tx.CreateNode());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    for (NodeId l : left) {
      for (NodeId r : right) {
        tx.CreateEdge(l, r);
        tx.CreateEdge(r, l);
      }
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  std::uint64_t executed_before = 0;
  for (std::size_t s = 0; s < db->num_shards(); ++s) {
    executed_before +=
        db->shard(static_cast<ShardId>(s)).stats().vertices_executed.load();
  }
  auto result =
      db->RunProgram(programs::kBfs, left[0], programs::BfsParams{}.Encode());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<NodeId> expected(left);
  expected.insert(expected.end(), right.begin(), right.end());
  std::sort(expected.begin(), expected.end());
  std::vector<NodeId> returned;
  for (const auto& [node, _] : result->returns) returned.push_back(node);
  std::sort(returned.begin(), returned.end());
  EXPECT_EQ(returned, expected) << "every reachable vertex returns once";

  std::uint64_t executed = 0, hop_ns = 0;
  for (std::size_t s = 0; s < db->num_shards(); ++s) {
    const auto& st = db->shard(static_cast<ShardId>(s)).stats();
    executed += st.vertices_executed.load();
    hop_ns += st.hop_exec_ns.load();
    EXPECT_LE(st.hop_exec_ns.load(), st.op_work_ns.load()) << "shard " << s;
  }
  EXPECT_EQ(executed - executed_before, expected.size());
  EXPECT_GT(hop_ns, 0u);
}

// Visibility over versions from interleaved writers. Gatekeepers A and B
// take turns writing one vertex's edges; the historical read runs on a
// third gatekeeper C, whose clock may not have caught up with any of
// them, so each write event can be concurrent with the read and resolved
// through the per-program order memo -- with the edge scan switching
// between events. One edge is deleted before the read, one is created
// after it (on C: ordered after by C's own sequence).
TEST(ProgramExecutionTest, HistoricalEdgesFromInterleavedWriters) {
  WeaverOptions o = FastOptions(3, 2);
  o.tau_micros = 5000;  // slow announces: more pairs stay concurrent
  o.gc_period_micros = 0;
  auto db = Weaver::Open(o);
  WeaverClient client(db.get());
  auto a = client.OpenSessionOn(0);
  auto b = client.OpenSessionOn(1);
  auto c = client.OpenSessionOn(2);

  NodeId v = kInvalidNodeId;
  std::vector<NodeId> targets;
  std::map<NodeId, EdgeId> edges;  // target -> edge
  ASSERT_TRUE(a->RunTransaction([&](Transaction& tx) {
                 targets.clear();
                 edges.clear();
                 v = tx.CreateNode();
                 for (int i = 0; i < 7; ++i) targets.push_back(tx.CreateNode());
                 edges[targets[0]] = tx.CreateEdge(v, targets[0]);
                 return Status::Ok();
               }).ok());
  // B, A, B: each writes new edges of v; B's first write also adds the
  // edge that its second one deletes.
  ASSERT_TRUE(b->RunTransaction([&](Transaction& tx) {
                 edges[targets[1]] = tx.CreateEdge(v, targets[1]);
                 edges[targets[2]] = tx.CreateEdge(v, targets[2]);
                 return Status::Ok();
               }).ok());
  ASSERT_TRUE(a->RunTransaction([&](Transaction& tx) {
                 edges[targets[3]] = tx.CreateEdge(v, targets[3]);
                 return Status::Ok();
               }).ok());
  ASSERT_TRUE(b->RunTransaction([&](Transaction& tx) {
                 edges[targets[4]] = tx.CreateEdge(v, targets[4]);
                 return tx.DeleteEdge(v, edges[targets[2]]);
               }).ok());
  // The read's timestamp: a write on C to an unrelated vertex.
  Transaction marker = c->BeginTx();
  marker.CreateNode();
  ASSERT_TRUE(c->Commit(&marker).ok());
  const RefinableTimestamp then = marker.timestamp();
  ASSERT_TRUE(c->RunTransaction([&](Transaction& tx) {
                 edges[targets[5]] = tx.CreateEdge(v, targets[5]);
                 return Status::Ok();
               }).ok());

  auto read = db->RunProgramAt(programs::kGetEdges, {NextHop{v, ""}}, then);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->returns.size(), 1u);
  auto seen =
      programs::GetEdgesResult::Decode(read->returns[0].second).edges;
  std::sort(seen.begin(), seen.end());
  std::vector<std::pair<EdgeId, NodeId>> expected;
  for (int i : {0, 1, 3, 4}) {
    expected.emplace_back(edges[targets[i]], targets[i]);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

// The compact BfsParams encoding round-trips every field, and
// filter-free params stay within std::string's inline buffer (15 bytes),
// so copying them into each spawned hop never allocates.
TEST(ProgramExecutionTest, BfsParamsRoundTrip) {
  auto same = [](const programs::BfsParams& x, const programs::BfsParams& y) {
    return x.edge_prop_key == y.edge_prop_key &&
           x.edge_prop_value == y.edge_prop_value && x.target == y.target &&
           x.depth == y.depth && x.max_depth == y.max_depth;
  };
  programs::BfsParams plain;
  EXPECT_TRUE(same(programs::BfsParams::Decode(plain.Encode()), plain));
  EXPECT_TRUE(same(programs::BfsParams::Decode(""), plain));

  programs::BfsParams bounded;
  bounded.target = 123456789;
  bounded.depth = 3;
  bounded.max_depth = 6;
  EXPECT_TRUE(same(programs::BfsParams::Decode(bounded.Encode()), bounded));

  programs::BfsParams unset_target;
  unset_target.target = UINT64_MAX;
  unset_target.max_depth = 2;
  EXPECT_TRUE(
      same(programs::BfsParams::Decode(unset_target.Encode()), unset_target));

  programs::BfsParams filtered = bounded;
  filtered.edge_prop_key = "type";
  filtered.edge_prop_value = "follows";
  EXPECT_TRUE(same(programs::BfsParams::Decode(filtered.Encode()), filtered));

  for (const auto* p : {&plain, &bounded, &unset_target}) {
    EXPECT_LE(p->Encode().size(), 15u);
  }
}

}  // namespace
}  // namespace weaver
