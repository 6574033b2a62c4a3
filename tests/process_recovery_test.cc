// Shard-process crash recovery, end to end (docs/fault_tolerance.md):
// a shard-server process is killed -9 mid-workload, the supervisor
// detects the death, execs a replacement weaver-serverd, replays the
// partition from the backing store, and the deployment answers the same
// queries as an in-process run that never crashed. The invariant under
// test is the paper's durability contract: every ACKNOWLEDGED write
// survives the crash (commits publish to the kv store before their shard
// slices go out, so the replay scan covers them all).
//
// Skipped under ThreadSanitizer (same policy as multiprocess_smoke_test).
#include <gtest/gtest.h>

#include <signal.h>
#include <stdlib.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "client/weaver_client.h"
#include "cluster/bootstrap.h"
#include "coord/serverd.h"
#include "core/weaver.h"
#include "graph/graph_store.h"
#include "net/fault_injector.h"
#include "oracle/oracle_client.h"
#include "programs/standard_programs.h"
#include "vclock/vclock.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WEAVER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define WEAVER_TSAN 1
#endif

namespace weaver {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kGatekeepers = 2;
constexpr int kVertices = 96;
constexpr int kOutageWrites = 40;

WeaverOptions DeploymentOptions() {
  WeaverOptions o;
  o.num_shards = kShards;
  o.num_gatekeepers = kGatekeepers;
  o.tau_micros = 300;
  o.nop_period_micros = 300;
  o.metrics_poll_period_micros = 0;
  return o;
}

/// Deterministic ring + seeded chords, built through the transactional
/// client API (identical ids across deployments).
std::vector<NodeId> BuildGraph(Weaver* db) {
  WeaverClient client(db);
  auto session = client.OpenSession();
  std::vector<NodeId> nodes;
  {
    Transaction tx = session->BeginTx();
    for (int i = 0; i < kVertices; ++i) {
      const NodeId n = tx.CreateNode();
      EXPECT_NE(n, kInvalidNodeId);
      EXPECT_TRUE(tx.AssignNodeProperty(n, "idx", std::to_string(i)).ok());
      nodes.push_back(n);
    }
    EXPECT_TRUE(session->Commit(&tx).ok());
  }
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> pick(0, kVertices - 1);
  for (int base = 0; base < kVertices; base += 32) {
    Transaction tx = session->BeginTx();
    for (int i = base; i < std::min(base + 32, kVertices); ++i) {
      tx.CreateEdge(nodes[i], nodes[(i + 1) % kVertices]);
    }
    EXPECT_TRUE(session->Commit(&tx).ok());
  }
  for (int i = 0; i < 60; ++i) {
    Transaction tx = session->BeginTx();
    tx.CreateEdge(nodes[pick(rng)], nodes[pick(rng)]);
    EXPECT_TRUE(session->Commit(&tx).ok());
  }
  return nodes;
}

/// Writes committed while (or right after) a shard is down: new vertices
/// hung off the ring, one commit each so every acknowledgment is its own
/// durability promise. Returns the new ids.
std::vector<NodeId> ApplyOutageWrites(Weaver* db,
                                      const std::vector<NodeId>& nodes) {
  WeaverClient client(db);
  auto session = client.OpenSession();
  std::vector<NodeId> fresh;
  for (int i = 0; i < kOutageWrites; ++i) {
    Transaction tx = session->BeginTx();
    const NodeId n = tx.CreateNode();
    EXPECT_NE(n, kInvalidNodeId);
    EXPECT_TRUE(tx.AssignNodeProperty(n, "wave", "outage").ok());
    tx.CreateEdge(nodes[i % kVertices], n);
    EXPECT_TRUE(session->Commit(&tx).ok()) << "outage write " << i;
    fresh.push_back(n);
  }
  return fresh;
}

/// Runs `name` with bounded retries: a program raced against an ongoing
/// recovery fails fast with Unavailable and is retried after a backoff
/// (the chaos-mode client contract, docs/fault_tolerance.md#clients).
Result<ProgramResult> RunWithRetry(Session* session,
                                   std::string_view name, NodeId start,
                                   std::string params = "") {
  Result<ProgramResult> r = Status::Internal("never ran");
  for (int attempt = 0; attempt < 100; ++attempt) {
    r = session->RunProgram(name, start, params);
    if (r.ok() || !r.status().IsUnavailable()) return r;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return r;
}

struct WorkloadResults {
  std::vector<std::vector<std::pair<NodeId, std::string>>> queries;
};

/// Pure function of the settled graph: BFS reachability from several
/// sources (covers the outage vertices, which hang off the ring) plus
/// point lookups on both original and outage vertices.
WorkloadResults RunWorkload(Weaver* db, const std::vector<NodeId>& nodes,
                            const std::vector<NodeId>& outage_nodes) {
  WeaverClient client(db);
  auto session = client.OpenSession();
  WorkloadResults results;
  auto record = [&](Result<ProgramResult> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto returns = r->returns;
    std::sort(returns.begin(), returns.end());
    results.queries.push_back(std::move(returns));
  };
  for (const int src : {0, 31, 77}) {
    programs::BfsParams params;  // unbounded: every reachable vertex
    record(RunWithRetry(session.get(), programs::kBfs, nodes[src],
                        params.Encode()));
  }
  for (const int src : {3, 50}) {
    record(RunWithRetry(session.get(), programs::kCountEdges, nodes[src]));
    record(RunWithRetry(session.get(), programs::kGetNode, nodes[src]));
  }
  for (std::size_t i = 0; i < outage_nodes.size(); i += 7) {
    record(RunWithRetry(session.get(), programs::kGetNode, outage_nodes[i]));
  }
  return results;
}

/// Polls cluster metrics until the supervisor reports `want` completed
/// recoveries and no shard down. Returns false on deadline.
bool AwaitRecoveries(Weaver* db, std::uint64_t want,
                     std::chrono::seconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    auto cluster = db->CollectMetrics(/*timeout_micros=*/500'000);
    if (cluster.ok()) {
      const obs::MetricsSnapshot& local = cluster->local;
      if (local.CounterValue("supervisor.recoveries") >= want &&
          local.GaugeValue("supervisor.shards_down") == 0) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

#if !defined(WEAVER_TSAN)
constexpr char kToken[] = "recovery-secret";

/// kill -9 one shard child mid-workload; acknowledged writes survive and
/// the recovered deployment matches an in-process run that never crashed.
TEST(ProcessRecovery, KilledShardIsRespawnedAndReplayed) {
  // 1. Exec the shard servers; the supervisor respawns through the same
  // launcher.
  serverd::ShardServerOptions so;
  so.num_shards = kShards;
  so.num_gatekeepers = kGatekeepers;
  auto servers = cluster::LaunchServers(so, WEAVER_SERVERD_BIN, kToken);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();

  WorkloadResults remote_results;
  std::vector<NodeId> remote_nodes;
  std::vector<NodeId> remote_outage;
  std::uint64_t replayed = 0;
  {
    WeaverOptions o = DeploymentOptions();
    o.supervision.enabled = true;
    o.supervision.poll_period_micros = 5'000;
    servers->Configure(&o);
    auto db = Weaver::Open(o);
    ASSERT_NE(db, nullptr);

    // 2. Build the graph, then hard-kill shard 0's process.
    remote_nodes = BuildGraph(db.get());
    ASSERT_EQ(::kill(servers->shard_pids[0], SIGKILL), 0);

    // 3. Acknowledged writes while the shard is down (or recovering):
    // commits stay available -- durability comes from the kv store, the
    // dead shard's slices are the retries the replay makes whole.
    remote_outage = ApplyOutageWrites(db.get(), remote_nodes);

    // 4. The supervisor heals the cluster.
    ASSERT_TRUE(AwaitRecoveries(db.get(), 1, std::chrono::seconds(30)))
        << "supervisor never reported the recovery";

    // 5. Post-recovery traversals see every acknowledged write.
    remote_results = RunWorkload(db.get(), remote_nodes, remote_outage);
    EXPECT_EQ(db->bus().stats().wire_seq_violations.load(), 0u)
        << "recovery broke the wire FIFO contract";
    auto cluster = db->CollectMetrics();
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    const obs::MetricsSnapshot& local = cluster->local;
    EXPECT_EQ(local.CounterValue("supervisor.recoveries"), 1u);
    EXPECT_EQ(local.CounterValue("supervisor.recoveries_failed"), 0u);
    replayed = local.CounterValue("supervisor.replayed_vertices");
    EXPECT_GT(replayed, 0u) << "recovery replayed nothing";
    const obs::HistogramSnapshot* latency =
        local.FindHistogram("supervisor.recovery_latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, 1u);
    db->Shutdown();
  }
  // The killed child was reaped by the supervisor (ECHILD-skipped); the
  // survivor and the respawn both exit 0.
  EXPECT_TRUE(servers->Wait().ok());

  // 6. The identical workload on an in-process deployment that never
  // crashed must produce identical results.
  auto db = Weaver::Open(DeploymentOptions());
  ASSERT_NE(db, nullptr);
  const std::vector<NodeId> nodes = BuildGraph(db.get());
  ASSERT_EQ(nodes, remote_nodes);
  const std::vector<NodeId> outage = ApplyOutageWrites(db.get(), nodes);
  ASSERT_EQ(outage, remote_outage);
  const WorkloadResults local_results =
      RunWorkload(db.get(), nodes, outage);
  ASSERT_EQ(remote_results.queries.size(), local_results.queries.size());
  for (std::size_t q = 0; q < local_results.queries.size(); ++q) {
    EXPECT_EQ(remote_results.queries[q], local_results.queries[q])
        << "query " << q << " diverged after crash recovery";
  }
  // The BFS really covered the post-crash graph: ring + outage vertices.
  ASSERT_FALSE(local_results.queries.empty());
  EXPECT_EQ(local_results.queries[0].size(),
            static_cast<std::size_t>(kVertices + kOutageWrites));
}

/// The deterministic fault-injection seam: a FaultInjectingTransport
/// drops shard 1's link at a fixed frame count. The process survives,
/// but the parent sees EOF -- the supervisor must SIGKILL the orphan and
/// recover exactly as for a real crash.
TEST(ProcessRecovery, DroppedLinkRecoversThroughInjectorSeam) {
  serverd::ShardServerOptions so;
  so.num_shards = kShards;
  so.num_gatekeepers = 1;
  auto servers = cluster::LaunchServers(so, WEAVER_SERVERD_BIN, kToken);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();

  std::shared_ptr<FaultInjectingTransport> injected;
  {
    WeaverOptions o = DeploymentOptions();
    o.num_gatekeepers = 1;
    o.supervision.enabled = true;
    o.supervision.poll_period_micros = 5'000;
    servers->Configure(&o);
    o.shard_transport_decorator =
        [&injected](std::shared_ptr<Transport> inner,
                    ShardId shard) -> std::shared_ptr<Transport> {
      if (shard != 1 || injected != nullptr) return inner;
      FaultPlan plan;
      plan.kind = FaultPlan::Kind::kDropLink;
      plan.after_frames = 200;  // mid-build: reproducible on every run
      injected = std::make_shared<FaultInjectingTransport>(std::move(inner),
                                                           plan);
      return injected;
    };
    auto db = Weaver::Open(o);
    ASSERT_NE(db, nullptr);
    ASSERT_NE(injected, nullptr) << "decorator never ran";

    const std::vector<NodeId> nodes = BuildGraph(db.get());
    ASSERT_TRUE(AwaitRecoveries(db.get(), 1, std::chrono::seconds(30)))
        << "supervisor never recovered the dropped link (injector fired: "
        << injected->fired() << ", frames: " << injected->frames() << ")";
    EXPECT_TRUE(injected->fired());

    // The healed deployment still answers traversals over the full ring.
    WeaverClient client(db.get());
    auto session = client.OpenSession();
    programs::BfsParams params;
    auto r = RunWithRetry(session.get(), programs::kBfs, nodes[0],
                          params.Encode());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->returns.size(), static_cast<std::size_t>(kVertices));
    auto cluster = db->CollectMetrics();
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    EXPECT_GE(cluster->local.CounterValue("supervisor.recoveries"), 1u);
    db->Shutdown();
  }
  EXPECT_TRUE(servers->Wait().ok());
}

/// True once every blob in `ids` holds no edge tombstone and at most
/// three "hits" versions: GC pruned the history away.
bool BlobsPruned(Weaver* db, const std::vector<NodeId>& ids) {
  for (const NodeId id : ids) {
    auto node = GraphStore::DeserializeNode(
        db->kv().Get(kv_keys::VertexData(id)).value());
    if (!node.ok() || node->props.VersionCount() > 4) return false;
    for (const auto& [eid, e] : node->out_edges) {
      if (e.deleted.valid()) return false;
    }
  }
  return true;
}

/// A shard respawned after GC pruned the backing store rehydrates from
/// blobs that no longer hold superseded versions or deleted edges; it must
/// answer exactly what the shard it replaces answered.
TEST(ProcessRecovery, RespawnFromPrunedBlobsAnswersAsBeforeCrash) {
  constexpr int kChurned = 24;
  serverd::ShardServerOptions so;
  so.num_shards = kShards;
  so.num_gatekeepers = kGatekeepers;
  auto servers = cluster::LaunchServers(so, WEAVER_SERVERD_BIN, kToken);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  {
    WeaverOptions o = DeploymentOptions();
    o.gc_period_micros = 0;  // the test runs the GC rounds itself
    o.supervision.enabled = true;
    o.supervision.poll_period_micros = 5'000;
    servers->Configure(&o);
    auto db = Weaver::Open(o);
    ASSERT_NE(db, nullptr);
    const std::vector<NodeId> nodes = BuildGraph(db.get());
    const std::vector<NodeId> churned(nodes.begin(),
                                      nodes.begin() + kChurned);

    // History for GC to prune: overwritten properties, and edges that
    // are created, re-weighted and deleted again.
    WeaverClient client(db.get());
    auto session = client.OpenSession();
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < kChurned; ++i) {
        Transaction tx = session->BeginTx();
        ASSERT_TRUE(tx.AssignNodeProperty(churned[i], "hits",
                                          std::to_string(round))
                        .ok());
        ASSERT_TRUE(session->Commit(&tx).ok());
      }
    }
    for (int i = 0; i < kChurned; ++i) {
      Transaction create = session->BeginTx();
      const EdgeId e = create.CreateEdge(churned[i], nodes[(i + 5) % kVertices]);
      ASSERT_TRUE(create.AssignEdgeProperty(churned[i], e, "w", "1").ok());
      ASSERT_TRUE(session->Commit(&create).ok());
      Transaction remove = session->BeginTx();
      ASSERT_TRUE(remove.AssignEdgeProperty(churned[i], e, "w", "2").ok());
      ASSERT_TRUE(remove.DeleteEdge(churned[i], e).ok());
      ASSERT_TRUE(session->Commit(&remove).ok());
    }

    // GC rounds, each followed by a rewrite of every churned vertex,
    // until the blobs are pruned (the watermark trails the newest commit
    // until announces carry it to both gatekeepers).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    do {
      db->RunGarbageCollection();
      for (const NodeId id : churned) {
        Transaction tx = session->BeginTx();
        ASSERT_TRUE(tx.AssignNodeProperty(id, "hits", "final").ok());
        ASSERT_TRUE(session->Commit(&tx).ok());
      }
    } while (!BlobsPruned(db.get(), churned) &&
             std::chrono::steady_clock::now() < deadline);
    ASSERT_TRUE(BlobsPruned(db.get(), churned));

    auto reads = [&] {
      WorkloadResults r = RunWorkload(db.get(), nodes, {});
      for (const NodeId id : churned) {
        auto got = RunWithRetry(session.get(), programs::kGetNode, id);
        EXPECT_TRUE(got.ok()) << got.status().ToString();
        if (got.ok()) r.queries.push_back(got->returns);
        auto degree = RunWithRetry(session.get(), programs::kCountEdges, id);
        EXPECT_TRUE(degree.ok()) << degree.status().ToString();
        if (degree.ok()) r.queries.push_back(degree->returns);
      }
      return r;
    };
    const WorkloadResults before = reads();

    ASSERT_EQ(::kill(servers->shard_pids[0], SIGKILL), 0);
    ASSERT_TRUE(AwaitRecoveries(db.get(), 1, std::chrono::seconds(30)))
        << "supervisor never reported the recovery";
    const WorkloadResults after = reads();
    ASSERT_EQ(before.queries.size(), after.queries.size());
    for (std::size_t q = 0; q < before.queries.size(); ++q) {
      EXPECT_EQ(before.queries[q], after.queries[q])
          << "query " << q << " diverged after respawn from pruned blobs";
    }
    auto cluster = db->CollectMetrics();
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    EXPECT_GT(cluster->local.CounterValue("supervisor.replayed_vertices"), 0u);
    EXPECT_GT(cluster->local.CounterValue("backing.versions_pruned"), 0u);
    db->Shutdown();
  }
  EXPECT_TRUE(servers->Wait().ok());
}

/// Synthetic concurrent timestamps in an epoch far above any watermark
/// the deployment can reach, so the oracle never GC-collects them.
RefinableTimestamp HighEpochTs(std::uint64_t counter, GatekeeperId gk) {
  std::vector<std::uint64_t> counters(kGatekeepers, 0);
  counters[gk] = counter;
  VectorClock clock(/*epoch=*/1'000'000, std::move(counters));
  return RefinableTimestamp(clock, gk, counter);
}

/// Polls until shard `shard`'s own metrics report shows at least `want`
/// oracle edges applied via Sync (the rehydration path).
bool AwaitSyncedEdges(Weaver* db, ShardId shard, std::uint64_t want,
                      std::chrono::seconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    auto cluster = db->CollectMetrics(/*timeout_micros=*/500'000);
    if (cluster.ok()) {
      for (const auto& report : cluster->remote) {
        if (report.shard == shard &&
            report.snapshot.CounterValue("oracle.client.sync_edges_applied") >=
                want) {
          return true;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// PR 7 gap, closed: with weaver-oracled running, a respawned shard
/// rehydrates its oracle replica from the service (Sync) before serving,
/// so timeline refinements established before its crash are visible to
/// it after REJOIN without one RPC per pair.
TEST(ProcessRecovery, RespawnedShardRehydratesOracleView) {
  constexpr std::uint64_t kPairs = 8;
  serverd::ShardServerOptions so;
  so.num_shards = kShards;
  so.num_gatekeepers = kGatekeepers;
  so.remote_oracle = true;
  std::string oracle_dir;
  {
    std::string templ =
        (std::filesystem::temp_directory_path() / "weaver_rehydrate_XXXXXX")
            .string();
    char* dir = ::mkdtemp(templ.data());
    ASSERT_NE(dir, nullptr);
    oracle_dir = dir;
  }
  so.oracle_data_dir = oracle_dir;
  auto servers = cluster::LaunchServers(so, WEAVER_SERVERD_BIN, kToken);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  {
    WeaverOptions o = DeploymentOptions();
    o.supervision.enabled = true;
    o.supervision.poll_period_micros = 5'000;
    servers->Configure(&o);
    auto db = Weaver::Open(o);
    ASSERT_NE(db, nullptr);

    // Refinements established BEFORE the crash, through the service (and
    // its changelog).
    std::vector<std::pair<RefinableTimestamp, RefinableTimestamp>> pairs;
    std::vector<ClockOrder> decided;
    for (std::uint64_t i = 1; i <= kPairs; ++i) {
      const auto a = HighEpochTs(i, 0);
      const auto b = HighEpochTs(i, 1);
      auto order =
          db->oracle_client().OrderPair(a, b, OrderPreference::kPreferFirst);
      ASSERT_TRUE(order.ok()) << order.status().ToString();
      pairs.emplace_back(a, b);
      decided.push_back(*order);
    }

    const std::vector<NodeId> nodes = BuildGraph(db.get());
    ASSERT_EQ(::kill(servers->shard_pids[0], SIGKILL), 0);
    const std::vector<NodeId> outage = ApplyOutageWrites(db.get(), nodes);
    ASSERT_TRUE(AwaitRecoveries(db.get(), 1, std::chrono::seconds(30)))
        << "supervisor never reported the recovery";

    // The respawn Sync'd the oracle's edge dump into its local replica:
    // every pre-crash refinement is locally answerable on shard 0.
    EXPECT_TRUE(
        AwaitSyncedEdges(db.get(), 0, kPairs, std::chrono::seconds(20)))
        << "respawned shard never reported rehydrated oracle edges";

    // And the decisions themselves read back un-inverted through the
    // service (parent replica wiped first so the queries cannot be
    // answered from a warm local cache).
    db->oracle_client().CollectBefore(VectorClock(
        1'000'001, std::vector<std::uint64_t>(kGatekeepers, 1)));
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      auto again = db->oracle_client().OrderPair(
          pairs[i].second, pairs[i].first, OrderPreference::kPreferFirst);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(*again, FlipOrder(decided[i])) << "order inverted at " << i;
    }

    // The healed deployment still answers traversals.
    WeaverClient client(db.get());
    auto session = client.OpenSession();
    programs::BfsParams params;
    auto r = RunWithRetry(session.get(), programs::kBfs, nodes[0],
                          params.Encode());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->returns.size(),
              static_cast<std::size_t>(kVertices + kOutageWrites));
    db->Shutdown();
  }
  EXPECT_TRUE(servers->Wait().ok());
  std::error_code ec;
  std::filesystem::remove_all(oracle_dir, ec);
}

#endif  // !WEAVER_TSAN

}  // namespace
}  // namespace weaver
