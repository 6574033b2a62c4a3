// Multi-process deployment smoke test (docs/transport.md): shard servers
// (and, in the exec-gatekeeper cases, the gatekeepers too) run as exec'd
// weaver-serverd CHILD PROCESSES joined over the cluster listener's TCP
// handshake (cluster::LaunchServers), the parent runs the rest of the
// deployment plus the clients, and the whole fig11-style reachability
// workload (transactional graph build + BFS traversals + point lookups)
// must produce results identical to the in-process bus.
//
// Skipped under ThreadSanitizer: the tsan CI job covers the transport
// locking through transport_test's socketpair stress instead, which
// exercises the same code in one process.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "client/weaver_client.h"
#include "cluster/bootstrap.h"
#include "coord/serverd.h"
#include "core/weaver.h"
#include "programs/standard_programs.h"

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
constexpr int kVertices = 120;
constexpr int kExtraEdges = 200;

WeaverOptions DeploymentOptions() {
  WeaverOptions o;
  o.num_shards = kShards;
  o.num_gatekeepers = kGatekeepers;
  o.tau_micros = 300;
  o.nop_period_micros = 300;
  return o;
}

/// Builds the deterministic reachability graph through the transactional
/// client API (identical in both deployments: fresh deployments allocate
/// the same vertex ids, and the edge set comes from a fixed seed).
std::vector<NodeId> BuildGraph(Weaver* db) {
  WeaverClient client(db);
  auto session = client.OpenSession();

  std::vector<NodeId> nodes;
  {
    Transaction tx = session->BeginTx();
    for (int i = 0; i < kVertices; ++i) {
      const NodeId n = tx.CreateNode();
      EXPECT_NE(n, kInvalidNodeId);
      EXPECT_TRUE(
          tx.AssignNodeProperty(n, "idx", std::to_string(i)).ok());
      nodes.push_back(n);
    }
    EXPECT_TRUE(session->Commit(&tx).ok());
  }
  // Ring (guarantees one reachable component) + seeded random chords.
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> pick(0, kVertices - 1);
  for (int base = 0; base < kVertices; base += 40) {
    Transaction tx = session->BeginTx();
    for (int i = base; i < std::min(base + 40, kVertices); ++i) {
      tx.CreateEdge(nodes[i], nodes[(i + 1) % kVertices]);
    }
    EXPECT_TRUE(session->Commit(&tx).ok());
  }
  for (int chunk = 0; chunk < kExtraEdges; chunk += 50) {
    Transaction tx = session->BeginTx();
    for (int i = chunk; i < std::min(chunk + 50, kExtraEdges); ++i) {
      tx.CreateEdge(nodes[pick(rng)], nodes[pick(rng)]);
    }
    EXPECT_TRUE(session->Commit(&tx).ok());
  }
  return nodes;
}

struct WorkloadResults {
  /// Sorted (vertex, return blob) list per query.
  std::vector<std::vector<std::pair<NodeId, std::string>>> queries;
};

/// The fig11-style traversal workload: full-graph BFS reachability from
/// several sources, targeted BFS, and point lookups -- all on the
/// settled graph, so the results are a pure function of it.
WorkloadResults RunWorkload(Weaver* db, const std::vector<NodeId>& nodes) {
  WeaverClient client(db);
  auto session = client.OpenSession();
  WorkloadResults results;

  auto record = [&](Result<ProgramResult> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto returns = r->returns;
    std::sort(returns.begin(), returns.end());
    results.queries.push_back(std::move(returns));
  };

  for (const int src : {0, 17, 63, 101}) {
    programs::BfsParams params;  // unbounded exploration: returns every
                                 // reachable vertex id
    record(session->RunProgram(programs::kBfs, nodes[src], params.Encode()));
  }
  {
    programs::BfsParams params;
    params.target = nodes[77];
    record(session->RunProgram(programs::kBfs, nodes[3], params.Encode()));
  }
  for (const int src : {5, 40, 119}) {
    record(session->RunProgram(programs::kCountEdges, nodes[src]));
    record(session->RunProgram(programs::kGetNode, nodes[src]));
  }
  return results;
}

#if !defined(WEAVER_TSAN)
constexpr char kToken[] = "smoke-secret";

TEST(MultiProcessSmoke, RemoteShardsMatchInProcessBus) {
  // 1. Exec the shard servers.
  serverd::ShardServerOptions so;
  so.num_shards = kShards;
  so.num_gatekeepers = kGatekeepers;
  auto servers = cluster::LaunchServers(so, WEAVER_SERVERD_BIN, kToken);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();

  // 2. Parent deployment over the sockets.
  WorkloadResults remote_results;
  std::vector<NodeId> remote_nodes;
  {
    WeaverOptions o = DeploymentOptions();
    // No background metrics poll: the only MetricsReports in this test
    // are the ones CollectMetrics solicits, so the depth assertions
    // below are deterministic.
    o.metrics_poll_period_micros = 0;
    servers->Configure(&o);
    auto db = Weaver::Open(o);
    ASSERT_NE(db, nullptr);
    remote_nodes = BuildGraph(db.get());
    remote_results = RunWorkload(db.get(), remote_nodes);
    EXPECT_EQ(db->bus().stats().wire_seq_violations.load(), 0u)
        << "wire FIFO contract violated";
    EXPECT_GT(db->bus().stats().wire_frames_sent.load(), 0u)
        << "no traffic actually crossed the transport";

    // Cluster-wide metrics: every remote shard PROCESS ships a registry
    // snapshot plus its live inbox depth over the wire codec.
    auto cluster = db->CollectMetrics();
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    ASSERT_EQ(cluster->remote.size(), kShards);
    const serverd::EndpointLayout layout =
        serverd::EndpointLayout::Compute(kShards, kGatekeepers);
    for (std::size_t s = 0; s < kShards; ++s) {
      const MetricsReportMessage& report = cluster->remote[s];
      EXPECT_EQ(static_cast<std::size_t>(report.shard), s);
      EXPECT_GT(report.snapshot.CounterValue(
                    "shard" + std::to_string(s) + ".txs_applied"),
                0u)
          << "shard " << s << " reported no applied transactions";
      // The same report feeds MessageBus::QueueDepth for the remote
      // endpoint (with the poll disabled, no newer report can race in
      // between the collection and this read).
      EXPECT_EQ(db->bus().QueueDepth(layout.shards[s]), report.inbox_depth);
    }
    const obs::MetricsSnapshot merged = cluster->Merged();
    EXPECT_GT(merged.CounterValue("coord.programs_completed"), 0u);
    EXPECT_GT(merged.CounterValue("shard0.txs_applied") +
                  merged.CounterValue("shard1.txs_applied"),
              0u)
        << "merged cluster view lost the remote shard counters";
    db->Shutdown();
  }
  // 3. Children exit cleanly once the parent tears the links down.
  EXPECT_TRUE(servers->Wait().ok());

  // 4. The identical workload on an in-process deployment.
  auto db = Weaver::Open(DeploymentOptions());
  ASSERT_NE(db, nullptr);
  const std::vector<NodeId> nodes = BuildGraph(db.get());
  ASSERT_EQ(nodes, remote_nodes);  // same ids: the workloads are aligned
  const WorkloadResults local_results = RunWorkload(db.get(), nodes);

  // 5. Same results, query by query.
  ASSERT_EQ(remote_results.queries.size(), local_results.queries.size());
  for (std::size_t q = 0; q < local_results.queries.size(); ++q) {
    EXPECT_EQ(remote_results.queries[q], local_results.queries[q])
        << "query " << q << " diverged between remote and in-process";
  }
  // The reachability queries really traversed the graph (every ring
  // vertex is reachable from every source).
  ASSERT_FALSE(local_results.queries.empty());
  EXPECT_EQ(local_results.queries[0].size(),
            static_cast<std::size_t>(kVertices));
}

// A second, smaller exercise: commits spanning both shard processes are
// visible to subsequent transactional reads through the parent's backing
// store, and a remote deployment refuses bulk load.
TEST(MultiProcessSmoke, RemoteDeploymentGuards) {
  serverd::ShardServerOptions so;
  so.num_shards = kShards;
  so.num_gatekeepers = 1;
  auto servers = cluster::LaunchServers(so, WEAVER_SERVERD_BIN, kToken);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  {
    WeaverOptions o = DeploymentOptions();
    o.num_gatekeepers = 1;
    o.start = false;  // bulk-load guard fires before Start
    servers->Configure(&o);
    auto db = Weaver::Open(o);
    ASSERT_NE(db, nullptr);
    EXPECT_TRUE(db->BulkCreateNode(1).IsFailedPrecondition());
    EXPECT_TRUE(db->KillShard(0).IsFailedPrecondition());
    db->Start();
    WeaverClient client(db.get());
    auto session = client.OpenSession();
    Transaction tx = session->BeginTx();
    const NodeId a = tx.CreateNode();
    const NodeId b = tx.CreateNode();
    tx.CreateEdge(a, b);
    ASSERT_TRUE(session->Commit(&tx).ok());
    Transaction check = session->BeginTx();
    auto exists = check.NodeExists(b);
    ASSERT_TRUE(exists.ok());
    EXPECT_TRUE(*exists);
    db->Shutdown();
  }
  EXPECT_TRUE(servers->Wait().ok());
}

/// The gatekeepers run OUT-OF-PARENT too: the clock, sequencer, and client
/// ingress live in the children; the parent keeps only the backing store
/// and the per-gatekeeper agent endpoints.
serverd::ShardServerOptions ExecGatekeeperOptions() {
  serverd::ShardServerOptions so;
  so.num_shards = kShards;
  so.num_gatekeepers = kGatekeepers;
  so.remote_gatekeepers = true;
  so.tau_micros = 300;        // must mirror DeploymentOptions: the
  so.nop_period_micros = 300;  // assignment is the children's only config
  return so;
}

/// Parent-side options over the launched servers' sockets.
WeaverOptions ExecOptions(const cluster::LaunchedServers& servers) {
  WeaverOptions o = DeploymentOptions();
  o.metrics_poll_period_micros = 0;
  servers.Configure(&o);
  return o;
}

// The traversal workload on a cluster with exec'd gatekeepers must
// produce results identical to the in-process bus.
TEST(MultiProcessSmoke, TcpBootstrapExecMatchesInProcessBus) {
  auto servers = cluster::LaunchServers(ExecGatekeeperOptions(),
                                        WEAVER_SERVERD_BIN, kToken);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  WorkloadResults remote_results;
  std::vector<NodeId> remote_nodes;
  {
    auto db = Weaver::Open(ExecOptions(*servers));
    ASSERT_NE(db, nullptr);
    remote_nodes = BuildGraph(db.get());
    remote_results = RunWorkload(db.get(), remote_nodes);
    EXPECT_EQ(db->bus().stats().wire_seq_violations.load(), 0u)
        << "wire FIFO contract violated";
    EXPECT_GT(db->bus().stats().wire_frames_sent.load(), 0u)
        << "no traffic actually crossed the transport";
    db->Shutdown();
  }
  EXPECT_TRUE(servers->Wait().ok());

  // Identical workload in-process; identical results.
  auto db = Weaver::Open(DeploymentOptions());
  ASSERT_NE(db, nullptr);
  const std::vector<NodeId> nodes = BuildGraph(db.get());
  ASSERT_EQ(nodes, remote_nodes);
  const WorkloadResults local_results = RunWorkload(db.get(), nodes);
  ASSERT_EQ(remote_results.queries.size(), local_results.queries.size());
  for (std::size_t q = 0; q < local_results.queries.size(); ++q) {
    EXPECT_EQ(remote_results.queries[q], local_results.queries[q])
        << "query " << q << " diverged between TCP-bootstrap and in-process";
  }
  ASSERT_FALSE(local_results.queries.empty());
  EXPECT_EQ(local_results.queries[0].size(),
            static_cast<std::size_t>(kVertices));
}

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

std::size_t BlobSize(Weaver* db, NodeId id) {
  return db->kv().Get(kv_keys::VertexData(id)).value().size();
}

// Out-of-parent gatekeepers report their oldest in-flight program over
// the wire (GkWatermark); the parent's store apply prunes with the
// watermark GC folds from those reports, exactly as in-process
// (docs/storage.md, "What the backing store keeps").
TEST(MultiProcessSmoke, ExecGatekeepersBoundRewrittenBlobs) {
  auto servers = cluster::LaunchServers(ExecGatekeeperOptions(),
                                        WEAVER_SERVERD_BIN, kToken);
  ASSERT_TRUE(servers.ok()) << servers.status().ToString();
  {
    WeaverOptions o = ExecOptions(*servers);
    o.gc_period_micros = 0;  // the test runs the GC rounds itself
    auto db = Weaver::Open(o);
    ASSERT_NE(db, nullptr);
    NodeId id = kInvalidNodeId;
    {
      Transaction tx = db->BeginTx();
      id = tx.CreateNode();
      ASSERT_TRUE(tx.AssignNodeProperty(id, "counter", "0").ok());
      ASSERT_TRUE(db->Commit(&tx).ok());
    }
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(Increment(db.get(), id).ok());
    const std::size_t after_ten = BlobSize(db.get(), id);
    for (int i = 10; i < 500; ++i) ASSERT_TRUE(Increment(db.get(), id).ok());
    ASSERT_GT(BlobSize(db.get(), id), after_ten);

    // Pruning happens when a blob is rewritten, and the reports trail the
    // gatekeepers' clocks by a few milliseconds: GC round plus one more
    // increment until the blob is back under its 10-increment size.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int extra = 0;
    do {
      db->RunGarbageCollection();
      ASSERT_TRUE(Increment(db.get(), id).ok());
      ++extra;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } while (BlobSize(db.get(), id) > after_ten &&
             std::chrono::steady_clock::now() < deadline);
    EXPECT_LE(BlobSize(db.get(), id), after_ten);
    EXPECT_GE(db->metrics().Snapshot().CounterValue("backing.versions_pruned"),
              490u);
    Transaction tx = db->BeginTx();
    EXPECT_EQ(tx.GetNode(id)->GetProperty("counter"),
              std::to_string(500 + extra));
    db->Shutdown();
  }
  EXPECT_TRUE(servers->Wait().ok());
}
#endif  // !WEAVER_TSAN

}  // namespace
}  // namespace weaver
