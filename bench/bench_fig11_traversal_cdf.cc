// Figure 11: CDF of reachability-query latency on a small Twitter-like
// graph, Weaver vs GraphLab (sync and async engines).
//
// Paper result: Weaver achieves 4.3x lower average traversal latency than
// async GraphLab and 9.4x lower than sync GraphLab, despite supporting
// concurrent transactional updates; latency variance is high for all
// systems because the work per query varies wildly. The structural causes
// reproduced here: GraphLab pays a per-query engine run over the whole
// vertex set plus per-superstep barriers (sync) or per-edge neighbor
// locking (async), while Weaver's node program touches only the vertices
// the query actually reaches.
//
// As in the paper, queries are reachability checks between vertices chosen
// uniformly at random, executed sequentially by a single client.
#include <cstdio>

#include "baselines/graphlab_like.h"
#include "common/clock.h"
#include "common/random.h"
#include "harness.h"
#include "programs/standard_programs.h"

using namespace weaver;
using namespace weaver::bench;

int main(int argc, char** argv) {
  ParseJsonOutput(argc, argv);
  BenchJson json("fig11_traversal_cdf");
  PrintHeader("bench_fig11_traversal_cdf", "Fig 11 (traversal latency CDF)");

  // Paper: 1.76M edges between uniformly random vertices. Scaled down.
  const std::uint64_t num_nodes = FullScale() ? 80000 : 20000;
  const std::uint64_t num_edges = FullScale() ? 700000 : 120000;
  const auto graph = workload::MakeUniformGraph(num_nodes, num_edges, 21);
  const int kQueries = FullScale() ? 60 : 25;
  std::printf("graph: %llu vertices, %zu edges; %d sequential queries\n\n",
              static_cast<unsigned long long>(num_nodes), graph.edges.size(),
              kQueries);

  // Query set: identical for all three systems.
  Rng rng(5);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.emplace_back(1 + rng.Uniform(num_nodes),
                         1 + rng.Uniform(num_nodes));
  }

  // ---- Weaver --------------------------------------------------------------
  Histogram weaver_lat;
  std::uint64_t weaver_reachable = 0;
  {
    WeaverOptions options;
    options.num_gatekeepers = 2;
    options.num_shards = 2;
    options.start = false;
    options.bulk_load_durable = false;
    auto db = Weaver::Open(options);
    LoadGraph(db.get(), graph);
    db->Start();
    for (const auto& [src, dst] : queries) {
      programs::BfsParams params;
      params.target = dst;
      const std::uint64_t t0 = NowNanos();
      auto result = db->RunProgram(programs::kBfs, src, params.Encode());
      weaver_lat.Record(NowNanos() - t0);
      if (result.ok()) {
        for (const auto& [_, ret] : result->returns) {
          if (ret == "found") {
            ++weaver_reachable;
            break;
          }
        }
      }
    }
    // Decentralized-execution accounting (docs/node_programs.md), read
    // from the metrics registry: the old barrier design paid 2 blocking
    // coordinator round trips per wave per touched shard; now the
    // coordinator only receives one-way accounting deltas
    // (coord.accounting_msgs).
    PrintProgramAccounting(db.get(), "weaver accounting");
    PrintBackpressure(db.get());
    json.Metrics(db->metrics().Snapshot());
    std::printf("\n");
  }

  // ---- GraphLab-like (sync + async) ------------------------------------------
  baselines::GraphLabLikeEngine::Options glopts;
  glopts.num_workers = 4;
  // Distributed-cost calibration (see EXPERIMENTS.md): 2 ms job launch,
  // 3 ms cluster barrier per gather/apply/scatter phase, 3 us per
  // cross-partition edge message.
  glopts.engine_start_micros = 2000;
  glopts.barrier_micros = 3000;
  glopts.remote_edge_micros = 3;
  baselines::GraphLabLikeEngine engine(num_nodes, graph.edges, glopts);
  Histogram sync_lat, async_lat;
  std::uint64_t sync_reachable = 0, async_reachable = 0;
  for (const auto& [src, dst] : queries) {
    const std::uint64_t t0 = NowNanos();
    sync_reachable += engine.ReachableSync(src, dst) ? 1 : 0;
    sync_lat.Record(NowNanos() - t0);
  }
  for (const auto& [src, dst] : queries) {
    const std::uint64_t t0 = NowNanos();
    async_reachable += engine.ReachableAsync(src, dst) ? 1 : 0;
    async_lat.Record(NowNanos() - t0);
  }

  // Same answers everywhere (sanity).
  if (sync_reachable != async_reachable ||
      sync_reachable != weaver_reachable) {
    std::printf("WARNING: systems disagree on reachability counts "
                "(weaver=%llu sync=%llu async=%llu)\n",
                static_cast<unsigned long long>(weaver_reachable),
                static_cast<unsigned long long>(sync_reachable),
                static_cast<unsigned long long>(async_reachable));
  }

  auto print_cdf = [](const char* label, const Histogram& h) {
    std::printf("%-18s %s\n", label, h.Summary().c_str());
    std::printf("  CDF(s):");
    for (double p : {25.0, 50.0, 75.0, 90.0, 99.0}) {
      std::printf(" p%.0f=%.4f", p, h.Percentile(p) / 1e9);
    }
    std::printf("\n");
  };
  print_cdf("weaver", weaver_lat);
  print_cdf("graphlab(async)", async_lat);
  print_cdf("graphlab(sync)", sync_lat);

  json.Latency("weaver_traversal", weaver_lat);
  json.Latency("graphlab_async", async_lat);
  json.Latency("graphlab_sync", sync_lat);
  json.Number("async_over_weaver_mean", async_lat.Mean() / weaver_lat.Mean());
  json.Number("sync_over_weaver_mean", sync_lat.Mean() / weaver_lat.Mean());
  std::printf("\nmean latency ratios: async/weaver=%.1fx sync/weaver=%.1fx "
              "(paper: 4.3x / 9.4x)\n",
              async_lat.Mean() / weaver_lat.Mean(),
              sync_lat.Mean() / weaver_lat.Mean());
  std::printf("expected shape: weaver lowest; async between; sync highest; "
              "high variance everywhere.\n");
  return 0;
}
