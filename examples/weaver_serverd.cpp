// weaver-serverd: the multi-process deployment example
// (docs/transport.md#multi-process).
//
// Boots a Weaver deployment whose SHARD SERVERS RUN AS SEPARATE OS
// PROCESSES: each is an exec'd weaver-serverd binary that joined this
// process's cluster listener over loopback TCP (cluster::LaunchServers)
// and now speaks wire frames (net/wire.h) over that socket. This parent
// runs the gatekeeper bank, the backing store, the program coordinator,
// and the client sessions; each child runs one shard server
// (coord/serverd.h). Shard-to-shard node-program hop forwarding transits
// the parent as a hub, without being decoded.
//
//   ./example_weaver_serverd [num_shards] [--metrics | --metrics=json]
//
// (default 2 shards). --metrics dumps, after the workload, the parent
// process's registry plus a per-shard-process report collected over the
// wire codec (Weaver::CollectMetrics, docs/observability.md); =json
// emits the merged cluster view as JSON instead of text.
//
// The workload: build a small social graph through pipelined sessions,
// then run BFS reachability and point lookups -- every byte of
// shard-bound traffic crosses a real process boundary.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "client/weaver_client.h"
#include "cluster/bootstrap.h"
#include "coord/serverd.h"
#include "core/weaver.h"
#include "programs/standard_programs.h"

using namespace weaver;

int main(int argc, char** argv) {
  std::size_t num_shards = 2;
  bool dump_metrics = false;
  bool metrics_json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--metrics") {
      dump_metrics = true;
    } else if (arg == "--metrics=json") {
      dump_metrics = true;
      metrics_json = true;
    } else {
      num_shards = std::strtoul(argv[i], nullptr, 10);
    }
  }

  // 1. Exec the shard servers and accept their joins.
  serverd::ShardServerOptions so;
  so.num_shards = num_shards;
  so.num_gatekeepers = 2;
  auto servers = cluster::LaunchServers(so, WEAVER_SERVERD_BIN, "example");
  if (!servers.ok()) {
    std::fprintf(stderr, "launch failed: %s\n",
                 servers.status().ToString().c_str());
    return 1;
  }
  std::printf("weaver-serverd: %zu shard server processes:", num_shards);
  for (const pid_t pid : servers->shard_pids) std::printf(" pid=%d", pid);
  std::printf("\n");

  // 2. The parent deployment speaks to them over the sockets.
  WeaverOptions options;
  options.num_shards = num_shards;
  options.num_gatekeepers = 2;
  servers->Configure(&options);
  auto db = Weaver::Open(options);
  if (db == nullptr) {
    std::fprintf(stderr, "deployment failed to open\n");
    return 1;
  }

  // 3. Build a follow graph through pipelined session commits. The
  // session lives in a scope: it must be closed before the deployment
  // is torn down.
  bool ok = false;
  constexpr int kUsers = 64;
  {
  WeaverClient client(db.get());
  auto session = client.OpenSession();
  std::vector<NodeId> users;
  {
    Transaction tx = session->BeginTx();
    for (int i = 0; i < kUsers; ++i) {
      const NodeId u = tx.CreateNode();
      tx.AssignNodeProperty(u, "handle", "user" + std::to_string(i));
      users.push_back(u);
    }
    const Status st = session->Commit(&tx);
    if (!st.ok()) {
      std::fprintf(stderr, "graph build failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::vector<Pending<CommitResult>> pendings;
  for (int i = 0; i < kUsers; ++i) {
    Transaction tx = session->BeginTx();
    tx.CreateEdge(users[i], users[(i + 1) % kUsers]);       // ring
    tx.CreateEdge(users[i], users[(i * 7 + 3) % kUsers]);   // chords
    pendings.push_back(session->CommitAsync(std::move(tx)));
  }
  for (auto& p : pendings) {
    if (!p.Wait().ok()) {
      std::fprintf(stderr, "edge commit failed: %s\n",
                   p.Wait().status.ToString().c_str());
      return 1;
    }
  }
  std::printf("weaver-serverd: committed %d users + %d follow edges over "
              "the wire\n",
              kUsers, 2 * kUsers);

  // 4. Traversals: BFS reachability from user0 must reach everyone.
  programs::BfsParams params;
  auto bfs = session->RunProgram(programs::kBfs, users[0], params.Encode());
  if (!bfs.ok()) {
    std::fprintf(stderr, "bfs failed: %s\n", bfs.status().ToString().c_str());
    return 1;
  }
  std::printf("weaver-serverd: BFS from user0 reached %zu vertices "
              "(%llu hops, %llu forwarded batches)\n",
              bfs->returns.size(),
              static_cast<unsigned long long>(bfs->hops),
              static_cast<unsigned long long>(bfs->forwarded_batches));

  const auto& stats = db->bus().stats();
  std::printf("weaver-serverd: %llu frames sent / %llu received, %llu "
              "sequence violations\n",
              static_cast<unsigned long long>(stats.wire_frames_sent.load()),
              static_cast<unsigned long long>(
                  stats.wire_frames_received.load()),
              static_cast<unsigned long long>(
                  stats.wire_seq_violations.load()));

  ok = bfs->returns.size() == static_cast<std::size_t>(kUsers) &&
       stats.wire_seq_violations.load() == 0;

  // 4b. Telemetry dump: one registry per PROCESS -- the parent's own,
  // plus a snapshot each shard server ships back as a MetricsReport over
  // its socket. The merged view is what an operator would scrape.
  if (dump_metrics) {
    auto cluster = db->CollectMetrics();
    if (!cluster.ok()) {
      std::fprintf(stderr, "metrics collection failed: %s\n",
                   cluster.status().ToString().c_str());
      ok = false;
    } else if (metrics_json) {
      std::printf("%s\n", cluster->Merged().ToJson().c_str());
    } else {
      std::printf("\n==== parent process ====\n%s",
                  cluster->local.ToText().c_str());
      for (const MetricsReportMessage& report : cluster->remote) {
        std::printf("==== shard process %u (inbox_depth=%llu) ====\n%s",
                    report.shard,
                    static_cast<unsigned long long>(report.inbox_depth),
                    report.snapshot.ToText().c_str());
      }
      ok = ok && cluster->remote.size() == num_shards;
    }
  }
  }

  // 5. Clean teardown: the deployment stops the links, the children see
  //    EOF and exit, and the parent reaps them.
  db->Shutdown();
  db.reset();
  const Status reaped = servers->Wait();
  if (!reaped.ok()) {
    std::fprintf(stderr, "child exit: %s\n", reaped.ToString().c_str());
    return 1;
  }
  std::printf("weaver-serverd: all shard processes exited cleanly; %s\n",
              ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
