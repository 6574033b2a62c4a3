// Timeline-oracle microbenchmark (paper §3.4): the paper's oracle is
// chain replicated; updates execute at the head while read-only order
// queries are served by any replica, scaling reads to ~6M queries/sec on
// a 12-server chain.
//
// This bench measures (a) query throughput over a pre-populated
// dependency DAG, (b) multi-threaded read scaling over the shared query
// lock, and (c) order-establishment (write) throughput. Uses
// google-benchmark.
// Also home to the backing-store group-commit benchmark: persistence
// overhead (off vs buffered WAL vs group-commit fsync) tracked across PRs
// via the shared --durability knob machinery (bench/harness.h).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "kvstore/kvstore.h"
#include "oracle/timeline_oracle.h"

namespace weaver {
namespace {

std::vector<RefinableTimestamp> MakeEvents(std::size_t n,
                                           std::size_t num_gks) {
  std::vector<RefinableTimestamp> events;
  std::vector<VectorClock> clocks(num_gks, VectorClock(num_gks));
  Rng rng(4);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t gk = rng.Uniform(num_gks);
    if (rng.Chance(0.3)) clocks[gk].Merge(clocks[rng.Uniform(num_gks)]);
    const std::uint64_t seq = clocks[gk].Tick(gk);
    events.emplace_back(clocks[gk], static_cast<GatekeeperId>(gk), seq);
  }
  return events;
}

void BM_OracleQueryClockComparable(benchmark::State& state) {
  auto events = MakeEvents(1024, 2);
  TimelineOracle oracle;
  Rng rng(1);
  for (auto _ : state) {
    const auto& a = events[rng.Uniform(events.size())];
    const auto& b = events[rng.Uniform(events.size())];
    benchmark::DoNotOptimize(oracle.QueryOrder(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OracleQueryClockComparable);

void BM_OracleQueryDagResolved(benchmark::State& state) {
  // All events pairwise concurrent (one per gatekeeper), pre-ordered into
  // a chain: queries hit the DAG search path.
  constexpr std::size_t kEvents = 64;
  std::vector<RefinableTimestamp> events;
  for (std::size_t i = 0; i < kEvents; ++i) {
    std::vector<std::uint64_t> c(kEvents, 0);
    c[i] = 1;
    events.emplace_back(VectorClock(0, std::move(c)),
                        static_cast<GatekeeperId>(i), 1);
  }
  TimelineOracle oracle;
  for (std::size_t i = 0; i + 1 < kEvents; ++i) {
    oracle.OrderPair(events[i], events[i + 1],
                     OrderPreference::kPreferFirst);
  }
  Rng rng(2);
  for (auto _ : state) {
    const std::size_t i = rng.Uniform(kEvents);
    const std::size_t j = rng.Uniform(kEvents);
    if (i == j) continue;
    benchmark::DoNotOptimize(oracle.QueryOrder(events[i], events[j]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OracleQueryDagResolved);

void BM_OracleReadScaling(benchmark::State& state) {
  static TimelineOracle* oracle = nullptr;
  static std::vector<RefinableTimestamp>* events = nullptr;
  if (state.thread_index() == 0) {
    oracle = new TimelineOracle();
    events = new std::vector<RefinableTimestamp>(MakeEvents(1024, 3));
    for (std::size_t i = 0; i + 1 < 64; ++i) {
      oracle->OrderPair((*events)[i], (*events)[i + 1],
                        OrderPreference::kPreferFirst);
    }
  }
  Rng rng(100 + static_cast<std::uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const auto& a = (*events)[rng.Uniform(events->size())];
    const auto& b = (*events)[rng.Uniform(events->size())];
    benchmark::DoNotOptimize(oracle->QueryOrder(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    delete oracle;
    delete events;
  }
}
BENCHMARK(BM_OracleReadScaling)->Threads(1)->Threads(2)->Threads(4);

void BM_OracleOrderEstablishment(benchmark::State& state) {
  // Fresh concurrent pairs each iteration: the expensive head-of-chain
  // write path.
  std::uint64_t seq = 1;
  TimelineOracle oracle;
  for (auto _ : state) {
    RefinableTimestamp a(VectorClock(0, {seq, 0}), 0, seq);
    RefinableTimestamp b(VectorClock(0, {0, seq}), 1, seq);
    benchmark::DoNotOptimize(
        oracle.OrderPair(a, b, OrderPreference::kPreferFirst));
    ++seq;
    if (seq % 4096 == 0) {
      // GC in the background keeps the DAG bounded, as in deployment.
      oracle.CollectBefore(VectorClock(0, {seq - 1024, seq - 1024}));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OracleOrderEstablishment);

// --- Backing-store group commit ---------------------------------------------
//
// Each iteration runs `threads` client threads, each committing
// `kCommitsPerThread` small read-modify-write transactions against one
// KvStore configured per the durability arg. With --durability-style
// fsync, concurrent committers share fdatasync rounds; the reported
// wal_group_size counter (appends per sync) shows how well group commit
// amortizes the sync cost as client parallelism grows.
void BM_BackingStoreGroupCommit(benchmark::State& state) {
  using bench::Durability;
  const auto mode = static_cast<Durability>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr int kCommitsPerThread = 64;

  std::string dir;
  std::unique_ptr<KvStore> kv;
  if (mode == Durability::kOff) {
    kv = std::make_unique<KvStore>(64);
  } else {
    std::string templ =
        (std::filesystem::temp_directory_path() / "weaver_gc_XXXXXX")
            .string();
    const char* made = ::mkdtemp(templ.data());
    if (made == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    dir = made;
    StorageOptions opts;
    opts.data_dir = dir;
    opts.fsync = mode == Durability::kFsync ? FsyncPolicy::kAlways
                                            : FsyncPolicy::kNever;
    auto opened = KvStore::Open(64, opts);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    kv = std::move(opened).value();
  }

  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kCommitsPerThread; ++i) {
          auto tx = kv->Begin();
          tx.Put("w" + std::to_string(t) + ":" + std::to_string(i & 7),
                 std::to_string(i));
          benchmark::DoNotOptimize(tx.Commit());
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * kCommitsPerThread);
  state.SetLabel(std::string("durability=") +
                 bench::DurabilityName(mode));
  if (kv->durable()) {
    const auto& wal = kv->storage_engine()->wal_stats();
    const auto syncs = wal.syncs.load();
    state.counters["wal_appends"] =
        static_cast<double>(wal.appends.load());
    state.counters["wal_syncs"] = static_cast<double>(syncs);
    state.counters["wal_group_size"] =
        syncs > 0 ? static_cast<double>(wal.appends.load()) /
                        static_cast<double>(syncs)
                  : 0.0;
  }
  kv.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}
BENCHMARK(BM_BackingStoreGroupCommit)
    ->ArgNames({"durability", "clients"})
    ->ArgsProduct({{0, 1, 2}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace weaver

BENCHMARK_MAIN();
