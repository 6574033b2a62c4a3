// Component tests of gatekeepers and shard servers, using deterministic
// deployments (start = false) driven by manual pumping.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/weaver.h"
#include "order/gatekeeper.h"
#include "programs/standard_programs.h"
#include "shard/shard.h"

namespace weaver {
namespace {

WeaverOptions ManualOptions(std::size_t gks = 2, std::size_t shards = 2) {
  WeaverOptions o;
  o.num_gatekeepers = gks;
  o.num_shards = shards;
  o.start = false;  // no timers, no event loop threads
  o.tau_micros = 0;
  o.nop_period_micros = 0;
  return o;
}

TEST(GatekeeperTest, TimestampsAreMonotonicPerGatekeeper) {
  auto db = Weaver::Open(ManualOptions());
  Gatekeeper& gk = db->gatekeeper(0);
  RefinableTimestamp prev = gk.BeginProgram();
  for (int i = 0; i < 20; ++i) {
    const RefinableTimestamp cur = gk.BeginProgram();
    EXPECT_EQ(prev.Compare(cur), ClockOrder::kBefore);
    prev = cur;
  }
}

TEST(GatekeeperTest, AnnounceMergesPeerClocks) {
  auto db = Weaver::Open(ManualOptions(3, 1));
  Gatekeeper& gk0 = db->gatekeeper(0);
  Gatekeeper& gk1 = db->gatekeeper(1);
  // gk0 advances alone; gk1 knows nothing of it.
  for (int i = 0; i < 5; ++i) gk0.BeginProgram();
  EXPECT_EQ(gk1.SnapshotClock().Component(0), 0u);
  gk0.PumpAnnounce();
  EXPECT_EQ(gk1.SnapshotClock().Component(0), 5u);
  EXPECT_EQ(db->gatekeeper(2).SnapshotClock().Component(0), 5u);
  EXPECT_GE(gk0.stats().announces_sent.load(), 2u);
  EXPECT_GE(gk1.stats().announces_received.load(), 1u);
}

TEST(GatekeeperTest, TimestampsComparableAfterAnnounce) {
  auto db = Weaver::Open(ManualOptions(2, 1));
  const RefinableTimestamp t1 = db->gatekeeper(0).BeginProgram();
  // Without announce: concurrent.
  const RefinableTimestamp t2 = db->gatekeeper(1).BeginProgram();
  EXPECT_EQ(t1.Compare(t2), ClockOrder::kConcurrent);
  // After announce: gk1's next timestamp dominates t1.
  db->gatekeeper(0).PumpAnnounce();
  const RefinableTimestamp t3 = db->gatekeeper(1).BeginProgram();
  EXPECT_EQ(t1.Compare(t3), ClockOrder::kBefore);
}

TEST(GatekeeperTest, NopsAdvanceShardQueues) {
  auto db = Weaver::Open(ManualOptions(2, 2));
  db->gatekeeper(0).PumpNop();
  db->gatekeeper(1).PumpNop();
  db->shard(0).ProcessUntilIdle();
  // The shard executes the smaller head, then stops: once one queue goes
  // empty it cannot rule out a smaller timestamp still in flight from
  // that gatekeeper (this is exactly why NOPs must keep flowing, §4.2).
  EXPECT_EQ(db->shard(0).stats().nops_processed.load(), 1u);
  EXPECT_EQ(db->shard(0).QueuedTransactions(), 1u);
  // Another NOP round unblocks the remainder.
  db->gatekeeper(0).PumpNop();
  db->gatekeeper(1).PumpNop();
  db->shard(0).ProcessUntilIdle();
  EXPECT_EQ(db->shard(0).stats().nops_processed.load(), 3u);
}

TEST(GatekeeperTest, OldestActiveTracksPrograms) {
  auto db = Weaver::Open(ManualOptions(2, 1));
  Gatekeeper& gk = db->gatekeeper(0);
  const RefinableTimestamp p1 = gk.BeginProgram();
  for (int i = 0; i < 5; ++i) gk.BeginProgram();  // later programs
  const RefinableTimestamp oldest = gk.OldestActive();
  EXPECT_LE(oldest.clock.Component(0), p1.clock.Component(0));
  gk.EndProgram(p1);
  // With p1 gone the watermark may advance (it tracks live programs).
  const RefinableTimestamp next = gk.OldestActive();
  EXPECT_GE(next.clock.Component(0), oldest.clock.Component(0));
}

TEST(ShardTest, TransactionsApplyInTimestampOrderAcrossGatekeepers) {
  auto db = Weaver::Open(ManualOptions(2, 1));
  // Two writes to the same vertex via different gatekeepers; the second
  // is issued after an announce, so its timestamp strictly dominates.
  auto tx1 = db->BeginTx();
  const NodeId n = tx1.CreateNode();
  ASSERT_TRUE(tx1.AssignNodeProperty(n, "v", "first").ok());
  ASSERT_TRUE(db->Commit(&tx1).ok());
  auto tx2 = db->BeginTx();
  ASSERT_TRUE(tx2.AssignNodeProperty(n, "v", "second").ok());
  ASSERT_TRUE(db->Commit(&tx2).ok());

  db->PumpAll();
  Shard& shard = db->shard(0);
  EXPECT_GE(shard.stats().txs_applied.load(), 2u);
  const Node* node = shard.graph().FindNode(n);
  ASSERT_NE(node, nullptr);
  OrderFn plain = [](const RefinableTimestamp& a,
                     const RefinableTimestamp& b) { return a.Compare(b); };
  const RefinableTimestamp read_ts = db->gatekeeper(0).BeginProgram();
  EXPECT_EQ(node->props.ValueAt("v", read_ts, plain), "second");
}

TEST(ShardTest, EmptySlicesActAsNops) {
  auto db = Weaver::Open(ManualOptions(2, 2));
  // A transaction whose ops all land on shard 0 still advances shard 1's
  // queue head via the empty slice.
  auto tx = db->BeginTx();
  (void)tx.CreateNode();
  ASSERT_TRUE(db->Commit(&tx).ok());
  db->gatekeeper(0).PumpNop();
  db->gatekeeper(1).PumpNop();
  db->shard(1).ProcessUntilIdle();
  EXPECT_GE(db->shard(1).stats().nops_processed.load(), 1u);
}

TEST(ShardTest, NoSequenceViolationsUnderManualPumping) {
  auto db = Weaver::Open(ManualOptions(2, 2));
  for (int i = 0; i < 10; ++i) {
    auto tx = db->BeginTx();
    (void)tx.CreateNode();
    ASSERT_TRUE(db->Commit(&tx).ok());
    if (i % 3 == 0) db->PumpAll();
  }
  db->PumpAll();
  EXPECT_EQ(db->shard(0).stats().seq_violations.load(), 0u);
  EXPECT_EQ(db->shard(1).stats().seq_violations.load(), 0u);
}

TEST(ShardTest, ConcurrentHeadsExecuteWithoutOracleCommitment) {
  // Two gatekeepers commit without announcing: their timestamps are
  // concurrent. Concurrent transactions can never conflict (the
  // gatekeeper's last-update check forces conflicting writes onto
  // comparable timestamps), so the shard executes concurrent heads in
  // arrival order WITHOUT asking the oracle to commit an order --
  // committing one per concurrent pair made queue backlogs O(n^2) oracle
  // work and let a NOP flood outrun the drain rate. Both transactions
  // must still apply; the oracle stays out of it.
  auto db = Weaver::Open(ManualOptions(2, 1));
  auto seed = db->BeginTx();
  const NodeId a = seed.CreateNode();
  const NodeId b = seed.CreateNode();
  ASSERT_TRUE(db->Commit(&seed).ok());
  db->PumpAll();
  const auto oracle_before = db->oracle().stats().order_requests.load();

  // Round-robin sends tx1 to gk1 and tx2 to gk0 (seed used gk0).
  auto tx1 = db->BeginTx();
  ASSERT_TRUE(tx1.AssignNodeProperty(a, "k", "1").ok());
  ASSERT_TRUE(db->Commit(&tx1).ok());
  auto tx2 = db->BeginTx();
  ASSERT_TRUE(tx2.AssignNodeProperty(b, "k", "2").ok());
  ASSERT_TRUE(db->Commit(&tx2).ok());
  ASSERT_EQ(tx1.timestamp().Compare(tx2.timestamp()),
            ClockOrder::kConcurrent);

  db->gatekeeper(0).PumpNop();
  db->gatekeeper(1).PumpNop();
  db->shard(0).ProcessUntilIdle();
  EXPECT_EQ(db->oracle().stats().order_requests.load(), oracle_before);
  EXPECT_GE(db->shard(0).stats().txs_applied.load(), 3u);

  // Both writes are visible: execution order between the concurrent,
  // non-conflicting transactions did not matter.
  auto check = db->BeginTx();
  auto snap_a = check.GetNode(a);
  auto snap_b = check.GetNode(b);
  ASSERT_TRUE(snap_a.ok());
  ASSERT_TRUE(snap_b.ok());
  EXPECT_EQ(snap_a->GetProperty("k").value_or(""), "1");
  EXPECT_EQ(snap_b->GetProperty("k").value_or(""), "2");
}

TEST(ShardTest, ResolverCachesOracleDecisions) {
  TimelineOracle oracle;
  OrderResolver resolver(&oracle);
  const RefinableTimestamp a(VectorClock(0, {1, 0}), 0, 1);
  const RefinableTimestamp b(VectorClock(0, {0, 1}), 1, 1);
  const ClockOrder o1 = resolver.Resolve(a, b, OrderPreference::kPreferFirst);
  const auto requests = resolver.stats().oracle_requests;
  const ClockOrder o2 = resolver.Resolve(a, b, OrderPreference::kPreferFirst);
  const ClockOrder o3 = resolver.Resolve(b, a, OrderPreference::kPreferFirst);
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(o3, FlipOrder(o1));
  EXPECT_EQ(resolver.stats().oracle_requests, requests);  // cache hits
  EXPECT_GE(resolver.stats().cache_hits, 2u);
}

TEST(ShardTest, ResolverVclockFastPathSkipsOracle) {
  TimelineOracle oracle;
  OrderResolver resolver(&oracle);
  const RefinableTimestamp a(VectorClock(0, {1, 0}), 0, 1);
  const RefinableTimestamp b(VectorClock(0, {2, 0}), 0, 2);
  EXPECT_EQ(resolver.Resolve(a, b, OrderPreference::kPreferFirst),
            ClockOrder::kBefore);
  EXPECT_EQ(resolver.stats().oracle_requests, 0u);
  EXPECT_EQ(oracle.stats().order_requests.load(), 0u);
}

TEST(ShardTest, ResolverTrimBeforeDropsDeadPairs) {
  TimelineOracle oracle;
  OrderResolver resolver(&oracle);
  const RefinableTimestamp a(VectorClock(0, {1, 0}), 0, 1);
  const RefinableTimestamp b(VectorClock(0, {0, 1}), 1, 1);
  resolver.Resolve(a, b, OrderPreference::kPreferFirst);
  EXPECT_EQ(resolver.CacheSize(), 2u);
  resolver.TrimBefore(VectorClock(0, {5, 5}));
  EXPECT_EQ(resolver.CacheSize(), 0u);
}

TEST(ShardTest, GcMessageCollapsesVersions) {
  auto db = Weaver::Open(ManualOptions(1, 1));
  auto tx = db->BeginTx();
  const NodeId n = tx.CreateNode();
  ASSERT_TRUE(db->Commit(&tx).ok());
  for (int i = 0; i < 5; ++i) {
    auto t = db->BeginTx();
    ASSERT_TRUE(t.AssignNodeProperty(n, "k", std::to_string(i)).ok());
    ASSERT_TRUE(db->Commit(&t).ok());
  }
  db->PumpAll();
  Shard& shard = db->shard(0);
  const Node* node = shard.graph().FindNode(n);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->props.VersionCount(), 5u);
  db->RunGarbageCollection();
  db->shard(0).ProcessUntilIdle();
  EXPECT_EQ(node->props.VersionCount(), 1u);
  EXPECT_GE(shard.stats().gc_rounds.load(), 1u);
}

// Seeds one get_node hop at a chosen timestamp straight into the owning
// shard's inbox, as the coordinator's seeding does, and captures what the
// shard returns through its accounting messages. Lets a test hold a
// program at the delay rule while it pumps gatekeepers by hand.
class ProgramProbe {
 public:
  explicit ProgramProbe(Weaver& db)
      : db_(db),
        returns_(std::make_shared<std::vector<programs::GetNodeResult>>()) {
    endpoint_ = db.bus().RegisterHandler(
        "probe", [returns = returns_](const BusMessage& msg) {
          if (msg.payload_tag != kMsgWaveAccounting) return;
          auto acct =
              std::static_pointer_cast<WaveAccountingMessage>(msg.payload);
          for (const auto& ret : acct->returns) {
            returns->push_back(programs::GetNodeResult::Decode(ret.second));
          }
        });
  }

  void Seed(const RefinableTimestamp& ts, NodeId node) {
    auto batch = std::make_shared<WaveHopBatchMessage>();
    batch->program_id = 1;
    batch->ts = ts;
    batch->program_name = std::string(programs::kGetNode);
    batch->coordinator = endpoint_;
    batch->hops.push_back(NextHop{node, ""});
    const ShardId s = db_.locator().Lookup(node).value();
    ASSERT_TRUE(db_.bus()
                    .Send(endpoint_, db_.shard(s).endpoint(), kMsgWaveHops,
                          std::move(batch))
                    .ok());
  }

  const std::vector<programs::GetNodeResult>& returns() const {
    return *returns_;
  }

 private:
  Weaver& db_;
  std::shared_ptr<std::vector<programs::GetNodeResult>> returns_;
  EndpointId endpoint_ = 0;
};

std::string PropertyOf(const programs::GetNodeResult& r,
                       const std::string& key) {
  for (const auto& [k, v] : r.properties) {
    if (k == key) return v;
  }
  return "";
}

// Bulk-loads `count` vertices (no queued transactions, so every shard
// queue starts empty) and makes gk1 aware of the load timestamp, so its
// programs see the loaded versions by clock.
std::vector<NodeId> LoadNodes(Weaver& db, std::size_t count) {
  std::vector<NodeId> ids;
  for (NodeId id = 1; id <= count; ++id) {
    EXPECT_TRUE(db.BulkCreateNode(id, {{"v", "old"}}).ok());
    ids.push_back(id);
  }
  EXPECT_TRUE(db.FinishBulkLoad().ok());
  db.gatekeeper(0).PumpAnnounce();
  return ids;
}

TEST(ShardDelayRuleTest, ConcurrentNopHeadWaitsWithoutOracle) {
  auto db = Weaver::Open(ManualOptions(2, 1));
  const NodeId n = LoadNodes(*db, 1)[0];
  Shard& shard = db->shard(0);
  ProgramProbe probe(*db);

  const RefinableTimestamp prog = db->gatekeeper(1).BeginProgram();
  db->gatekeeper(1).PumpNop();  // same issuer: after prog
  // gk0 has not heard of prog, so its NOP is concurrent with it.
  db->gatekeeper(0).PumpNop();
  probe.Seed(prog, n);

  const auto resolver_before = shard.resolver().stats().oracle_requests;
  const auto oracle_before = db->oracle().stats().order_requests.load();
  shard.ProcessUntilIdle();
  EXPECT_TRUE(probe.returns().empty()) << "ran past a concurrent NOP head";
  EXPECT_GE(shard.stats().wave_delays.load(), 1u);
  EXPECT_EQ(shard.resolver().stats().oracle_requests, resolver_before);
  EXPECT_EQ(db->oracle().stats().order_requests.load(), oracle_before);

  // gk1's announce reaches gk0; gk0's next NOP dominates prog by clock.
  db->PumpAll();
  ASSERT_EQ(probe.returns().size(), 1u);
  EXPECT_EQ(PropertyOf(probe.returns()[0], "v"), "old");
  EXPECT_EQ(shard.resolver().stats().oracle_requests, resolver_before);
  EXPECT_EQ(db->oracle().stats().order_requests.load(), oracle_before);
}

TEST(ShardDelayRuleTest, ConcurrentTransactionHeadIsRefinedWriteFirst) {
  auto db = Weaver::Open(ManualOptions(2, 1));
  const NodeId n = LoadNodes(*db, 1)[0];
  Shard& shard = db->shard(0);
  ProgramProbe probe(*db);

  const RefinableTimestamp prog = db->gatekeeper(1).BeginProgram();
  auto tx = db->BeginTx();  // round-robin: commits on gk0
  ASSERT_TRUE(tx.AssignNodeProperty(n, "v", "new").ok());
  ASSERT_TRUE(db->Commit(&tx).ok());
  ASSERT_EQ(tx.timestamp().gatekeeper, 0u);
  ASSERT_EQ(tx.timestamp().Compare(prog), ClockOrder::kConcurrent);
  db->gatekeeper(1).PumpNop();  // after prog
  probe.Seed(prog, n);

  const auto oracle_before = db->oracle().stats().order_requests.load();
  shard.ProcessUntilIdle();
  // The oracle ordered the transaction head first, so the program waits
  // for it.
  EXPECT_GT(db->oracle().stats().order_requests.load(), oracle_before);
  EXPECT_GE(shard.resolver().stats().oracle_requests, 1u);
  EXPECT_EQ(db->oracle().QueryOrder(tx.timestamp(), prog),
            ClockOrder::kBefore);
  EXPECT_TRUE(probe.returns().empty());

  db->PumpAll();
  ASSERT_EQ(probe.returns().size(), 1u);
  EXPECT_EQ(PropertyOf(probe.returns()[0], "v"), "new");
}

TEST(ShardDelayRuleTest, EmptySliceHeadIsDecidedByClock) {
  auto db = Weaver::Open(ManualOptions(2, 2));
  // One vertex on each shard: the program reads `here`, the transaction
  // writes only `there`, so `here`'s shard receives an empty slice.
  const std::vector<NodeId> ids = LoadNodes(*db, 16);
  NodeId here = kInvalidNodeId;
  NodeId there = kInvalidNodeId;
  for (const NodeId id : ids) {
    (db->locator().Lookup(id) == 0u ? here : there) = id;
  }
  ASSERT_NE(here, kInvalidNodeId);
  ASSERT_NE(there, kInvalidNodeId);
  Shard& shard = db->shard(0);
  ProgramProbe probe(*db);

  const RefinableTimestamp prog = db->gatekeeper(1).BeginProgram();
  auto tx = db->BeginTx();  // round-robin: commits on gk0
  ASSERT_TRUE(tx.AssignNodeProperty(there, "v", "new").ok());
  ASSERT_TRUE(db->Commit(&tx).ok());
  ASSERT_EQ(tx.timestamp().gatekeeper, 0u);
  ASSERT_EQ(tx.timestamp().Compare(prog), ClockOrder::kConcurrent);
  db->gatekeeper(1).PumpNop();
  probe.Seed(prog, here);

  const auto resolver_before = shard.resolver().stats().oracle_requests;
  const auto oracle_before = db->oracle().stats().order_requests.load();
  shard.ProcessUntilIdle();
  EXPECT_TRUE(probe.returns().empty()) << "ran past a concurrent slice";
  EXPECT_EQ(shard.resolver().stats().oracle_requests, resolver_before);
  EXPECT_EQ(db->oracle().stats().order_requests.load(), oracle_before);

  db->PumpAll();
  ASSERT_EQ(probe.returns().size(), 1u);
  EXPECT_EQ(PropertyOf(probe.returns()[0], "v"), "old");
  EXPECT_EQ(db->oracle().stats().order_requests.load(), oracle_before);
}

}  // namespace
}  // namespace weaver
