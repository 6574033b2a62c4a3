// Fault tolerance tests (paper §4.3): shard crash + recovery from the
// backing store, gatekeeper replacement behind the epoch barrier, and the
// cluster manager's failure detector.
#include <gtest/gtest.h>

#include <thread>

#include "coord/cluster_manager.h"
#include "core/weaver.h"
#include "programs/standard_programs.h"

namespace weaver {
namespace {

WeaverOptions FastOptions(std::size_t gks = 2, std::size_t shards = 2) {
  WeaverOptions o;
  o.num_gatekeepers = gks;
  o.num_shards = shards;
  o.tau_micros = 200;
  o.nop_period_micros = 100;
  return o;
}

TEST(FaultToleranceTest, ShardRecoversGraphFromBackingStore) {
  auto db = Weaver::Open(FastOptions(2, 2));
  // Build state across both shards.
  std::vector<NodeId> nodes;
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < 12; ++i) nodes.push_back(tx.CreateNode());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  {
    auto tx = db->BeginTx();
    for (int i = 0; i < 11; ++i) {
      const EdgeId e = tx.CreateEdge(nodes[i], nodes[i + 1]);
      ASSERT_TRUE(tx.AssignEdgeProperty(nodes[i], e, "rel", "next").ok());
    }
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  // Let shard application settle so pre-crash reads work.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Crash shard 0.
  ASSERT_TRUE(db->KillShard(0).ok());
  EXPECT_FALSE(db->cluster().IsAlive("shard0"));
  EXPECT_TRUE(db->KillShard(0).IsFailedPrecondition());

  // Programs touching the dead shard fail over to the client for re-run.
  bool saw_unavailable = false;
  for (NodeId n : nodes) {
    auto r = db->RunProgram(programs::kGetNode, n);
    if (!r.ok() && r.status().IsUnavailable()) saw_unavailable = true;
  }
  EXPECT_TRUE(saw_unavailable);

  // Recover: the replacement restores the partition from the backing
  // store and rejoins.
  ASSERT_TRUE(db->RecoverShard(0).ok());
  EXPECT_TRUE(db->cluster().IsAlive("shard0"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // All committed data is readable again.
  for (NodeId n : nodes) {
    auto r = db->RunProgram(programs::kGetNode, n);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->returns.size(), 1u);
    EXPECT_TRUE(programs::GetNodeResult::Decode(r->returns[0].second).exists);
  }
  // Including edges: the chain is still traversable end to end.
  programs::BfsParams params;
  params.edge_prop_key = "rel";
  params.edge_prop_value = "next";
  params.target = nodes.back();
  auto result = db->RunProgram(programs::kBfs, nodes[0], params.Encode());
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const auto& [_, ret] : result->returns) found |= ret == "found";
  EXPECT_TRUE(found);
}

TEST(FaultToleranceTest, WritesDuringOutageSurviveRecovery) {
  auto db = Weaver::Open(FastOptions(2, 2));
  NodeId n;
  {
    auto tx = db->BeginTx();
    n = tx.CreateNode();
    ASSERT_TRUE(tx.AssignNodeProperty(n, "v", "before").ok());
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  auto owner = db->locator().Lookup(n);
  ASSERT_TRUE(owner.has_value());
  ASSERT_TRUE(db->KillShard(*owner).ok());

  // Transactions keep committing during the outage: the backing store is
  // the source of truth (the shard message is dropped on the floor).
  {
    auto tx = db->BeginTx();
    ASSERT_TRUE(tx.AssignNodeProperty(n, "v", "during").ok());
    const Status st = db->Commit(&tx);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  ASSERT_TRUE(db->RecoverShard(*owner).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto r = db->RunProgram(programs::kGetNode, n);
  ASSERT_TRUE(r.ok());
  const auto decoded = programs::GetNodeResult::Decode(r->returns[0].second);
  ASSERT_EQ(decoded.properties.size(), 1u);
  EXPECT_EQ(decoded.properties[0].second, "during");
}

TEST(FaultToleranceTest, GatekeeperReplacementBumpsEpoch) {
  auto db = Weaver::Open(FastOptions(2, 2));
  NodeId n;
  {
    auto tx = db->BeginTx();
    n = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  const std::uint32_t before = db->cluster().current_epoch();
  ASSERT_TRUE(db->ReplaceGatekeeper(1).ok());
  EXPECT_EQ(db->cluster().current_epoch(), before + 1);
  // Every gatekeeper moved to the new epoch in unison.
  for (std::size_t g = 0; g < db->num_gatekeepers(); ++g) {
    EXPECT_EQ(db->gatekeeper(static_cast<GatekeeperId>(g))
                  .SnapshotClock()
                  .epoch(),
              before + 1);
  }
  // New-epoch transactions order after all old-epoch ones and the system
  // keeps serving.
  const Status st = db->RunTransaction([&](Transaction& tx) {
    return tx.AssignNodeProperty(n, "post_failover", "yes");
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto r = db->RunProgram(programs::kGetNode, n);
  ASSERT_TRUE(r.ok());
  const auto decoded = programs::GetNodeResult::Decode(r->returns[0].second);
  EXPECT_EQ(decoded.properties.size(), 1u);
}

TEST(FaultToleranceTest, EpochTimestampsOrderAfterOldEpoch) {
  auto db = Weaver::Open(FastOptions(2, 2));
  NodeId n;
  {
    auto tx = db->BeginTx();
    n = tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
  }
  auto tx_old = db->BeginTx();
  ASSERT_TRUE(tx_old.AssignNodeProperty(n, "k", "old").ok());
  ASSERT_TRUE(db->Commit(&tx_old).ok());
  const RefinableTimestamp old_ts = tx_old.timestamp();

  ASSERT_TRUE(db->ReplaceGatekeeper(0).ok());

  auto tx_new = db->BeginTx();
  ASSERT_TRUE(tx_new.AssignNodeProperty(n, "k", "new").ok());
  ASSERT_TRUE(db->Commit(&tx_new).ok());
  EXPECT_EQ(old_ts.Compare(tx_new.timestamp()), ClockOrder::kBefore);
}

TEST(FaultToleranceTest, RecoverAliveShardRejected) {
  auto db = Weaver::Open(FastOptions());
  EXPECT_TRUE(db->RecoverShard(0).IsFailedPrecondition());
  EXPECT_TRUE(db->KillShard(99).IsInvalidArgument());
}

TEST(ClusterManagerTest, RegisterFailRecover) {
  ClusterManager cm;
  cm.Register("shard0", ServerKind::kShard, 0);
  cm.Register("gk0", ServerKind::kGatekeeper, 0);
  EXPECT_TRUE(cm.IsAlive("shard0"));
  cm.MarkFailed("shard0");
  EXPECT_FALSE(cm.IsAlive("shard0"));
  EXPECT_TRUE(cm.IsAlive("gk0"));
  cm.MarkRecovered("shard0");
  EXPECT_TRUE(cm.IsAlive("shard0"));
}

TEST(ClusterManagerTest, MembersSortedSnapshot) {
  ClusterManager cm;
  cm.Register("shard1", ServerKind::kShard, 1);
  cm.Register("gk0", ServerKind::kGatekeeper, 0);
  const auto members = cm.Members();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].name, "gk0");
  EXPECT_EQ(members[1].name, "shard1");
}

TEST(ClusterManagerTest, UnknownNamesIgnored) {
  ClusterManager cm;
  cm.MarkFailed("ghost");     // no crash
  cm.MarkRecovered("ghost");  // no crash
  EXPECT_FALSE(cm.IsAlive("ghost"));
}

}  // namespace
}  // namespace weaver
