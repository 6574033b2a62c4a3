// Chaos recovery bench (docs/fault_tolerance.md#chaos): a multi-process
// deployment under sustained transactional + traversal load while every
// shard-server process is hard-killed once, at a deterministic point in
// its frame stream (net/fault_injector.h), and -- with --chaos -- the
// timeline-oracle service (weaver-oracled) is SIGKILLed once mid-load.
// Measures what the paper's fault-tolerance story promises an operator:
//
//   * availability -- commits and programs keep completing through the
//     outages (bounded retries on Unavailable, bounded waits via
//     Pending<T>::WaitFor -> DeadlineExceeded);
//   * durability   -- every ACKNOWLEDGED write is read back after the
//     cluster heals (kv-first commit + partition replay), and every
//     timeline-order decision acknowledged before the oracle died reads
//     back identically from the respawn's replayed changelog (no order
//     inversions);
//   * recovery     -- supervisor.* metrics show one recovery per shard
//     plus one oracle recovery, none failed, and the recovery latency
//     distribution.
//
// Run with --chaos to inject the kills (CI's recovery smoke); without it
// the binary is the same workload on an undisturbed multi-process
// deployment (the baseline for the availability numbers). Not a paper
// figure: Weaver's evaluation (§6) measures steady state; this bench
// guards the robustness layer the deployment needs around it.
//
// Every server process is an exec'd weaver-serverd that joined through
// the cluster listener's handshake (cluster::LaunchServers,
// docs/transport.md#cluster-bootstrap), and the supervisor respawns a
// crashed one by exec (release slot -> re-open at the bumped epoch ->
// spawn -> accept join). By default the shards and the oracle service run
// out of the parent and the gatekeepers in it. --exec moves the
// gatekeepers out of the parent too, and --exec --chaos additionally
// SIGKILLs one gatekeeper process mid-load: the supervisor must fence it,
// advance the epoch, exec a replacement, and re-route -- with zero
// acknowledged writes lost and zero order inversions, same as ever.
#include <signal.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/weaver_client.h"
#include "cluster/bootstrap.h"
#include "coord/serverd.h"
#include "core/weaver.h"
#include "harness.h"
#include "net/fault_injector.h"
#include "oracle/oracle_client.h"
#include "programs/standard_programs.h"
#include "vclock/vclock.h"

namespace weaver {
namespace bench {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kGatekeepers = 2;
constexpr int kRingVertices = 64;

/// One fault per shard, staggered so the recoveries do not overlap: the
/// trigger is a cumulative frame count on that shard's own link, which
/// lands at the same point in the message stream on every run.
std::uint64_t TriggerFrames(ShardId shard) {
  return 1'000 + static_cast<std::uint64_t>(shard) * 4'000;
}

struct ChaosStats {
  std::atomic<std::uint64_t> commits_acked{0};
  std::atomic<std::uint64_t> programs_ok{0};
  std::atomic<std::uint64_t> unavailable_retries{0};
  std::atomic<std::uint64_t> deadline_waits{0};
};

/// Commits `tx`, riding out recoveries: DeadlineExceeded from WaitFor
/// means "still in flight" (keep waiting -- the request is not lost);
/// Unavailable means "failed fast against a down shard" (rebuild and
/// resubmit). Returns false only when the budget is exhausted.
bool CommitAcknowledged(Session* session, NodeId ring_anchor,
                        const std::string& tag, ChaosStats* stats,
                        NodeId* created) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    Transaction tx = session->BeginTx();
    const NodeId n = tx.CreateNode();
    tx.AssignNodeProperty(n, "tag", tag);
    tx.CreateEdge(ring_anchor, n);
    auto pending = session->CommitAsync(std::move(tx));
    while (pending.WaitFor(std::chrono::milliseconds(250)).IsDeadlineExceeded()) {
      stats->deadline_waits.fetch_add(1, std::memory_order_relaxed);
    }
    const CommitResult& result = pending.Wait();
    if (result.ok()) {
      *created = n;
      stats->commits_acked.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (!result.status.IsUnavailable() && !result.status.IsAborted()) {
      std::fprintf(stderr, "chaos: commit failed hard: %s\n",
                   result.status.ToString().c_str());
      return false;
    }
    stats->unavailable_retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

Result<ProgramResult> RunProgramAcknowledged(Session* session,
                                             std::string_view name,
                                             NodeId start, std::string params,
                                             ChaosStats* stats) {
  Result<ProgramResult> r = Status::Internal("never ran");
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto pending = session->RunProgramAsync(name, start, params);
    while (pending.WaitFor(std::chrono::milliseconds(250)).IsDeadlineExceeded()) {
      stats->deadline_waits.fetch_add(1, std::memory_order_relaxed);
    }
    r = pending.Take();
    if (r.ok()) {
      stats->programs_ok.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
    if (!r.status().IsUnavailable()) return r;
    stats->unavailable_retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return r;
}

bool AwaitRecoveries(Weaver* db, std::uint64_t want_shards,
                     std::uint64_t want_oracle, std::uint64_t want_gks,
                     std::chrono::seconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    auto cluster = db->CollectMetrics(/*timeout_micros=*/500'000);
    if (cluster.ok() &&
        cluster->local.CounterValue("supervisor.recoveries") >= want_shards &&
        cluster->local.CounterValue("supervisor.oracle_recoveries") >=
            want_oracle &&
        cluster->local.CounterValue("supervisor.gk_recoveries") >= want_gks &&
        cluster->local.GaugeValue("supervisor.shards_down") == 0 &&
        cluster->local.GaugeValue("supervisor.oracle_down") == 0 &&
        cluster->local.GaugeValue("supervisor.gks_down") == 0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// Synthetic timestamps for the timeline-order ledger: pairwise
/// concurrent (distinct gatekeepers, incomparable counters) in an epoch
/// far above anything the deployment's GC watermark can reach, so the
/// service never collects them mid-run.
constexpr std::uint32_t kLedgerEpoch = 1'000'000;

RefinableTimestamp LedgerTs(std::uint64_t counter, GatekeeperId gk) {
  std::vector<std::uint64_t> counters(kGatekeepers, 0);
  counters[gk] = counter;
  VectorClock clock(kLedgerEpoch, std::move(counters));
  return RefinableTimestamp(clock, gk, counter);
}

int Run(bool chaos, bool exec_mode) {
  PrintHeader("bench_chaos_recovery",
              exec_mode ? (chaos ? "exec chaos (--exec --chaos)"
                                 : "exec baseline (--exec)")
                        : (chaos ? "chaos (--chaos)"
                                 : "baseline (no faults)"));

  serverd::ShardServerOptions so;
  so.num_shards = kShards;
  so.num_gatekeepers = kGatekeepers;
  so.remote_oracle = true;
  std::string oracle_dir;
  {
    std::string templ =
        (std::filesystem::temp_directory_path() / "weaver_oracled_XXXXXX")
            .string();
    char* dir = ::mkdtemp(templ.data());
    if (dir == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    oracle_dir = dir;
  }
  so.oracle_data_dir = oracle_dir;
  // --exec: the gatekeepers run out of the parent as well.
  so.remote_gatekeepers = exec_mode;
  so.tau_micros = 300;        // must mirror the parent WeaverOptions:
  so.nop_period_micros = 300;  // the assignment is the children's config
  auto servers =
      cluster::LaunchServers(so, WEAVER_SERVERD_BIN, "chaos-secret");
  if (!servers.ok()) {
    std::fprintf(stderr, "launch failed: %s\n",
                 servers.status().ToString().c_str());
    return 1;
  }

  ChaosStats stats;
  std::uint64_t healed_ms = 0;
  bool all_reads_ok = true;
  obs::MetricsSnapshot final_metrics;
  {
    WeaverOptions o;
    o.num_shards = kShards;
    o.num_gatekeepers = kGatekeepers;
    o.tau_micros = 300;
    o.nop_period_micros = 300;
    o.metrics_poll_period_micros = 0;
    o.supervision.enabled = true;
    o.supervision.poll_period_micros = 5'000;
    servers->Configure(&o);
    // Each shard's ORIGINAL transport gets a one-shot kill plan; the
    // respawned process's transport is left bare (each shard dies once).
    auto armed = std::make_shared<std::mutex>();
    auto armed_shards = std::make_shared<std::vector<bool>>(kShards, false);
    if (chaos) {
      const std::vector<pid_t> pids = o.supervision.shard_pids;
      o.shard_transport_decorator =
          [armed, armed_shards, pids](
              std::shared_ptr<Transport> inner,
              ShardId shard) -> std::shared_ptr<Transport> {
        std::lock_guard<std::mutex> lk(*armed);
        if ((*armed_shards)[shard]) return inner;
        (*armed_shards)[shard] = true;
        FaultPlan plan;
        plan.kind = FaultPlan::Kind::kKillPid;
        plan.after_frames = TriggerFrames(shard);
        plan.pid = pids[shard];
        return std::make_shared<FaultInjectingTransport>(std::move(inner),
                                                         plan);
      };
    }
    auto db = Weaver::Open(o);
    if (db == nullptr) {
      std::fprintf(stderr, "Weaver::Open failed\n");
      return 1;
    }

    WeaverClient client(db.get());
    auto session = client.OpenSession();

    // Seed ring (remote deployments commit; no bulk load).
    std::vector<NodeId> ring;
    {
      Transaction tx = session->BeginTx();
      for (int i = 0; i < kRingVertices; ++i) ring.push_back(tx.CreateNode());
      if (!session->Commit(&tx).ok()) return 1;
      Transaction etx = session->BeginTx();
      for (int i = 0; i < kRingVertices; ++i) {
        etx.CreateEdge(ring[i], ring[(i + 1) % kRingVertices]);
      }
      if (!session->Commit(&etx).ok()) return 1;
    }

    // Timeline-order ledger: every decision acknowledged here is logged
    // in the oracle's changelog; after the oracle is killed and
    // respawned, each must read back identically (no inversions).
    constexpr int kLedgerPairs = 16;
    std::vector<std::pair<RefinableTimestamp, RefinableTimestamp>> ledger;
    std::vector<ClockOrder> decided;
    for (int i = 1; i <= kLedgerPairs; ++i) {
      const auto a = LedgerTs(static_cast<std::uint64_t>(i), 0);
      const auto b = LedgerTs(static_cast<std::uint64_t>(i), 1);
      auto order = db->oracle_client().OrderPair(
          a, b,
          (i % 2) != 0 ? OrderPreference::kPreferFirst
                       : OrderPreference::kPreferSecond);
      if (!order.ok()) {
        std::fprintf(stderr, "chaos: ledger order failed: %s\n",
                     order.status().ToString().c_str());
        return 1;
      }
      ledger.emplace_back(a, b);
      decided.push_back(*order);
    }

    // Sustained load: every acknowledged vertex is a durability promise
    // we verify after the cluster heals. The frame triggers fire during
    // this loop; the loop keeps making progress through both outages.
    const int kRounds = FullScale() ? 4'000 : 1'200;
    std::vector<NodeId> acknowledged;
    acknowledged.reserve(kRounds);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRounds; ++i) {
      if (chaos && exec_mode && i == kRounds / 3) {
        // Hard-kill a gatekeeper process mid-load: the supervisor must
        // fence it (failing its in-flight client waiters), advance the
        // epoch, exec a replacement, and re-route -- while clients retry
        // through Unavailable with no acknowledged write lost.
        ::kill(servers->gatekeeper_pids[0], SIGKILL);
      }
      if (chaos && i == kRounds / 2) {
        // Hard-kill the oracle service mid-load: the supervisor must
        // fence it, exec a replacement, and replay the changelog while
        // shard-side callers retry through Unavailable.
        ::kill(servers->oracle_pid, SIGKILL);
      }
      NodeId created = kInvalidNodeId;
      if (!CommitAcknowledged(session.get(), ring[i % kRingVertices],
                              "w" + std::to_string(i), &stats, &created)) {
        std::fprintf(stderr, "chaos: commit budget exhausted at round %d\n", i);
        return 1;
      }
      acknowledged.push_back(created);
      if (i % 50 == 0) {
        programs::BfsParams params;
        auto r = RunProgramAcknowledged(session.get(), programs::kBfs,
                                        ring[0], params.Encode(), &stats);
        if (!r.ok()) {
          std::fprintf(stderr, "chaos: traversal failed hard: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
      }
    }

    // The cluster must heal: one recovery per shard plus one oracle
    // recovery under --chaos, plus one gatekeeper recovery under
    // --exec --chaos.
    const std::uint64_t want = chaos ? kShards : 0;
    if (!AwaitRecoveries(db.get(), want, chaos ? 1 : 0,
                         (chaos && exec_mode) ? 1 : 0,
                         std::chrono::seconds(60))) {
      std::fprintf(stderr, "chaos: cluster never healed\n");
      return 1;
    }
    healed_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());

    // Read-back: every acknowledged write must be visible post-recovery.
    std::uint64_t missing = 0;
    for (std::size_t i = 0; i < acknowledged.size(); ++i) {
      auto r = RunProgramAcknowledged(session.get(), programs::kGetNode,
                                      acknowledged[i], "", &stats);
      if (!r.ok() || r->returns.empty()) {
        ++missing;
        all_reads_ok = false;
      }
    }

    // Order read-back: wipe the parent's replica first, so every
    // re-query below must consult the (respawned) service's DAG rather
    // than a warm local cache. Each re-query flips the operands and
    // prefers the opposite answer -- a service that lost the changelog
    // edge would happily establish the inverted order.
    std::uint64_t order_inversions = 0;
    db->oracle_client().CollectBefore(
        VectorClock(kLedgerEpoch + 1,
                    std::vector<std::uint64_t>(kGatekeepers, 1)));
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      auto again = db->oracle_client().OrderPair(
          ledger[i].second, ledger[i].first, OrderPreference::kPreferFirst);
      if (!again.ok() || *again != FlipOrder(decided[i])) {
        ++order_inversions;
        all_reads_ok = false;
      }
    }

    auto cluster = db->CollectMetrics();
    if (!cluster.ok()) {
      std::fprintf(stderr, "metrics collection failed: %s\n",
                   cluster.status().ToString().c_str());
      return 1;
    }
    final_metrics = cluster->Merged();
    const obs::MetricsSnapshot& local = cluster->local;

    // The respawned oracle's own report (shard == kOracleMetricsSource):
    // under --chaos it must show a changelog replay.
    std::uint64_t oracle_replayed = 0;
    for (const auto& report : cluster->remote) {
      if (report.shard == kOracleMetricsSource) {
        oracle_replayed =
            report.snapshot.CounterValue("oracle.service.replayed_records");
      }
    }
    if (chaos && oracle_replayed == 0) {
      std::fprintf(stderr,
                   "chaos: respawned oracle reports no replayed changelog "
                   "records\n");
      all_reads_ok = false;
    }
    // Every recovery (shards + oracle, + a gatekeeper under --exec) must
    // have gone through the exec hook.
    const std::size_t want_respawns = kShards + 1 + (exec_mode ? 1 : 0);
    if (chaos &&
        local.CounterValue("supervisor.exec_respawns") < want_respawns) {
      std::fprintf(stderr,
                   "chaos: expected %zu exec respawns, saw %llu\n",
                   want_respawns,
                   static_cast<unsigned long long>(
                       local.CounterValue("supervisor.exec_respawns")));
      all_reads_ok = false;
    }

    std::printf("\n%-34s %12s\n", "metric", "value");
    auto row = [](const char* name, std::uint64_t v) {
      std::printf("%-34s %12llu\n", name,
                  static_cast<unsigned long long>(v));
    };
    row("commits_acknowledged", stats.commits_acked.load());
    row("programs_completed", stats.programs_ok.load());
    row("unavailable_retries", stats.unavailable_retries.load());
    row("deadline_waits_250ms", stats.deadline_waits.load());
    row("acknowledged_missing_after_heal", missing);
    row("order_inversions_after_heal", order_inversions);
    row("oracle.service.replayed_records", oracle_replayed);
    row("supervisor.oracle_recoveries",
        local.CounterValue("supervisor.oracle_recoveries"));
    row("oracle.client.unavailable",
        final_metrics.CounterValue("oracle.client.unavailable"));
    row("supervisor.recoveries", local.CounterValue("supervisor.recoveries"));
    row("supervisor.gk_recoveries",
        local.CounterValue("supervisor.gk_recoveries"));
    row("supervisor.exec_respawns",
        local.CounterValue("supervisor.exec_respawns"));
    row("supervisor.recoveries_failed",
        local.CounterValue("supervisor.recoveries_failed"));
    row("supervisor.replayed_vertices",
        local.CounterValue("supervisor.replayed_vertices"));
    row("supervisor.sigkills", local.CounterValue("supervisor.sigkills"));
    row("supervisor.reset_ack_timeouts",
        local.CounterValue("supervisor.reset_ack_timeouts"));
    row("gk.slice_send_failures",
        local.CounterValue("gk0.slice_send_failures") +
            local.CounterValue("gk1.slice_send_failures"));
    if (const obs::HistogramSnapshot* h =
            local.FindHistogram("supervisor.recovery_latency")) {
      std::printf("%-34s %s\n", "supervisor.recovery_latency",
                  h->Summary().c_str());
    }

    {
      BenchJson json("chaos_recovery");
      json.Text("mode", chaos ? "chaos" : "baseline");
      json.Integer("commits_acknowledged", stats.commits_acked.load());
      json.Integer("unavailable_retries", stats.unavailable_retries.load());
      json.Integer("deadline_waits", stats.deadline_waits.load());
      json.Integer("acknowledged_missing_after_heal", missing);
      json.Integer("order_inversions_after_heal", order_inversions);
      json.Integer("oracle_recoveries",
                   local.CounterValue("supervisor.oracle_recoveries"));
      json.Integer("oracle_replayed_records", oracle_replayed);
      json.Integer("recoveries", local.CounterValue("supervisor.recoveries"));
      json.Integer("gk_recoveries",
                   local.CounterValue("supervisor.gk_recoveries"));
      json.Integer("exec_respawns",
                   local.CounterValue("supervisor.exec_respawns"));
      json.Integer("recoveries_failed",
                   local.CounterValue("supervisor.recoveries_failed"));
      json.Integer("replayed_vertices",
                   local.CounterValue("supervisor.replayed_vertices"));
      json.Integer("workload_ms", healed_ms);
      json.Metrics(final_metrics);
    }
    db->Shutdown();
  }
  // Processes the supervisor fenced were reaped by it; everything still
  // alive exits 0 once the parent tears down.
  const Status reaped = servers->Wait();
  if (!reaped.ok()) {
    std::fprintf(stderr, "chaos: %s\n", reaped.ToString().c_str());
    return 1;
  }
  std::error_code fs_ec;
  std::filesystem::remove_all(oracle_dir, fs_ec);
  if (!all_reads_ok) {
    std::fprintf(stderr,
                 "chaos: ACKNOWLEDGED WRITES OR ORDER DECISIONS WERE LOST\n");
    return 1;
  }
  std::printf("\nresult: %s -- all acknowledged writes survived\n",
              chaos ? "PASS (chaos)" : "PASS (baseline)");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace weaver

int main(int argc, char** argv) {
  bool chaos = false;
  bool exec_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
    if (std::strcmp(argv[i], "--exec") == 0) exec_mode = true;
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--chaos] [--exec] [--json=DIR]\n"
          "  Shards and the oracle service always run as exec'd\n"
          "  weaver-serverd processes; the supervisor respawns by exec.\n"
          "  --chaos  SIGKILL every shard process and the oracle mid-load\n"
          "  --exec   run the gatekeepers out of the parent too; with\n"
          "           --chaos, also SIGKILL one gatekeeper process\n",
          argv[0]);
      return 0;
    }
  }
  weaver::bench::ParseJsonOutput(argc, argv);
  return weaver::bench::Run(chaos, exec_mode);
}
