#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "client/weaver_client.h"
#include "common/random.h"
#include "deploy.h"
#include "layers.h"
#include "loadgen.h"
#include "programs/standard_programs.h"
#include "workload/social_graph.h"
#include "workload/tao_workload.h"

namespace perfbench {

using namespace weaver;

namespace {

// --- Fixed workload parameters (documented in perfbench/README.md) ----------

/// Deployments are set up this many times per run; setup_s is the median.
constexpr int kSetups = 5;
/// Commits retry on Aborted inside the request, up to this many attempts.
constexpr int kMaxAttempts = 32;
/// A request still in flight after this long fails with DeadlineExceeded
/// (the request is not cancelled; a commit's outcome is then unknown).
constexpr auto kRequestDeadline = std::chrono::seconds(10);
/// Trace stride for the system's own stage spans in the traced run.
constexpr std::uint64_t kTraceSampleEvery = 4;
/// Share of a run spent in the open-loop (latency) phase; the rest is the
/// bounded-in-flight (throughput) phase.
constexpr double kOpenLoopShare = 0.6;
constexpr int kOpenLoopWindows = 5;
/// Throughput is the median rate over this many slices of its phase.
constexpr int kThroughputWindows = 5;

// tao_online: fig9 graph (quick scale), TAO mix.
constexpr std::uint64_t kTaoVertices = 20000;
constexpr std::uint32_t kTaoOutDegree = 10;
constexpr double kTaoRate = 2000;         // offered ops/s in the open loop
constexpr double kTaoReadSloMs = 5;       // latency limits for slo_miss_frac
constexpr double kTaoCommitSloMs = 20;
constexpr int kTaoSessions = 4;
constexpr int kTaoInflight = 16;

// rw_contended_exec: graph built through transactions; each session is
// a caller waiting for its reply (closed loop, one request in flight).
// Pipelining deeper on exec'd servers queues point reads for seconds
// behind the per-hop socket stall, and a deeper window would also time
// a commit behind the read ahead of it.
constexpr std::uint64_t kRwHot = 16;
constexpr std::uint64_t kRwCold = 2000;
constexpr std::uint64_t kRwColdOutDegree = 2;
constexpr double kRwHotZipfTheta = 0.99;
constexpr double kRwReadSloMs = 20;
constexpr double kRwCommitSloMs = 50;
constexpr int kRwSessions = 4;

// bfs_traversal: fig11 graph (quick scale).
constexpr std::uint64_t kBfsVertices = 20000;
constexpr std::uint64_t kBfsEdges = 120000;
constexpr double kBfsSloMs = 150;
constexpr int kBfsRecordedTraversals = 8;

// --- Requests --------------------------------------------------------------

/// One attempt of a write transaction, plus what the output checks and
/// the replay probes need to know about it.
struct CommitAttempt {
  Pending<CommitResult> pending;
  std::vector<GraphOp> ops;
  std::vector<NodeId> reads;
  std::vector<std::pair<NodeId, EdgeId>> created;
  std::vector<std::pair<NodeId, EdgeId>> deleted;
  std::vector<NodeId> increments;
};

/// Acknowledged writes, checked against the store at the end of the run,
/// and the writes of commits whose outcome is unknown (deadline passed),
/// which the checks must allow either way.
struct Ledger {
  std::mutex mu;
  std::vector<std::pair<NodeId, EdgeId>> created;
  std::vector<std::pair<NodeId, EdgeId>> deleted;
  std::map<NodeId, std::uint64_t> increments;
  std::set<EdgeId> maybe_deleted;
  std::map<NodeId, std::uint64_t> maybe_increments;
  std::atomic<std::uint64_t> acked{0};

  void Ack(const CommitAttempt& a) {
    acked.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu);
    created.insert(created.end(), a.created.begin(), a.created.end());
    deleted.insert(deleted.end(), a.deleted.begin(), a.deleted.end());
    for (NodeId n : a.increments) ++increments[n];
  }
  void Unknown(const CommitAttempt& a) {
    std::lock_guard<std::mutex> lk(mu);
    for (const auto& [n, e] : a.deleted) maybe_deleted.insert(e);
    for (NodeId n : a.increments) ++maybe_increments[n];
  }
};

struct Env {
  Ledger ledger;
  Recorder recorder;
  std::atomic<std::uint64_t> check_failures{0};
};

/// Fills one transaction attempt (its reads run here, on the caller).
using TxBody =
    std::function<void(Transaction& tx, CommitAttempt* a, std::uint64_t rid)>;

Request SubmitCommit(Session& session, std::uint64_t rid, TxBody body,
                     Env* env, OpKind kind = OpKind::kCommit) {
  struct Flow {
    Session* session;
    std::uint64_t rid;
    TxBody body;
    Env* env;
    CommitAttempt attempt;
    int attempts = 0;

    void Submit() {
      attempt = CommitAttempt{};
      Transaction tx = session->BeginTx();
      body(tx, &attempt, rid);
      if (env->recorder.enabled()) attempt.ops = tx.ops();
      ++attempts;
      ScopedSpan span(rid, "client.submit");
      attempt.pending = session->CommitAsync(std::move(tx));
    }
  };
  auto flow = std::make_shared<Flow>(
      Flow{&session, rid, std::move(body), env, CommitAttempt{}, 0});
  flow->Submit();
  return Request{kind, [flow]() {
                   while (true) {
                     CommitResult r;
                     {
                       ScopedSpan span(flow->rid, "client.wait");
                       if (!flow->attempt.pending.WaitFor(kRequestDeadline).ok()) {
                         flow->env->ledger.Unknown(flow->attempt);
                         return false;
                       }
                       r = flow->attempt.pending.Wait();
                     }
                     if (r.ok()) {
                       flow->env->ledger.Ack(flow->attempt);
                       if (flow->env->recorder.enabled()) {
                         flow->env->recorder.AddCommit(RecordedCommit{
                             flow->attempt.ops, flow->attempt.reads,
                             r.timestamp, flow->attempts});
                       }
                       return true;
                     }
                     if (!r.status.IsAborted() ||
                         flow->attempts >= kMaxAttempts) {
                       return false;
                     }
                     flow->Submit();
                   }
                 }};
}

Request SubmitProgram(Session& session, std::uint64_t rid, OpKind kind,
                      std::string_view name, NodeId start, std::string params,
                      Env* env) {
  Pending<Result<ProgramResult>> pending;
  {
    ScopedSpan span(rid, "client.submit");
    pending = session.RunProgramAsync(name, start, params);
  }
  return Request{kind, [pending, rid, name = std::string(name), start,
                        params = std::move(params), env]() mutable {
                   bool ok = false;
                   {
                     ScopedSpan span(rid, "client.wait");
                     ok = pending.WaitFor(kRequestDeadline).ok() &&
                          pending.Wait().ok();
                   }
                   if (ok && env->recorder.enabled()) {
                     env->recorder.AddProgram(RecordedProgram{
                         name, start, params, pending.Wait()->timestamp, {}});
                   }
                   return ok;
                 }};
}

/// Sessions plus per-session generator state, found by session id.
template <typename State>
struct SessionSet {
  std::vector<std::unique_ptr<Session>> owned;
  std::vector<Session*> sessions;
  std::unordered_map<std::uint64_t, std::unique_ptr<State>> state;

  void Add(std::unique_ptr<Session> s, std::unique_ptr<State> st) {
    sessions.push_back(s.get());
    state[s->id()] = std::move(st);
    owned.push_back(std::move(s));
  }
  State& For(Session& s) { return *state.at(s.id()); }
};

// --- Measurement -------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Measurement {
  double throughput_ops_s = 0;
  double p50_ms = 0;  // the workload's primary operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;  // successful operations
  /// Successful operations inside the layer window (traced runs).
  std::uint64_t window_ops = 0;
  bool valid = true;
  std::string invalid_why;
  MetricTable named;
};

/// `<prefix>_p50_ms` and each tail percentile the samples support
/// (at least ten samples beyond it), with the sample count.
void AddLatency(MetricTable* t, const std::string& prefix, const Samples& s) {
  t->Set(prefix + "_samples", static_cast<double>(s.size()), "count");
  if (s.size() == 0) return;
  t->Set(prefix + "_p50_ms", s.Percentile(50), "ms");
  for (double p : {90.0, 95.0, 99.0, 99.9}) {
    if (!s.Supports(p)) break;
    char name[32];
    std::snprintf(name, sizeof(name), "_p%g_ms", p);
    t->Set(prefix + name, s.Percentile(p), "ms");
  }
}

/// tao_online's two phases: the open loop gives the read latencies, the
/// bounded phase the throughput. A traced run's layer window covers the
/// open-loop phase.
Measurement MeasureTwoPhase(const std::vector<Session*>& sessions,
                            const IssueFn& issue, double seconds, double rate,
                            double read_slo_ms, double commit_slo_ms,
                            int inflight, RegistryWindow* window) {
  OpenLoopOptions o;
  o.rate = rate;
  o.seconds = seconds * kOpenLoopShare;
  o.windows = kOpenLoopWindows;
  o.slo_ms[static_cast<int>(OpKind::kRead)] = read_slo_ms;
  o.slo_ms[static_cast<int>(OpKind::kCommit)] = commit_slo_ms;
  if (window != nullptr) window->Begin();
  const OpenLoopResult open = RunOpenLoop(sessions, o, issue);
  if (window != nullptr) window->End();
  const BoundedResult bounded =
      RunBounded(sessions, inflight, seconds * (1 - kOpenLoopShare), issue);
  Measurement m;
  const int k = static_cast<int>(OpKind::kRead);
  m.throughput_ops_s = bounded.MedianWindowRate(kThroughputWindows);
  m.p50_ms = open.latency[k].Percentile(50);
  m.attempted = open.attempted + bounded.attempted;
  m.failed = open.failed + bounded.failed;
  m.completed = open.attempted - open.failed + bounded.ok;
  m.window_ops = open.attempted - open.failed;
  m.valid = open.Valid(&m.invalid_why);
  m.named.Set("open_loop_valid", m.valid ? 1 : 0, "bool");

  MetricTable& t = m.named;
  AddLatency(&t, "read", open.latency[static_cast<int>(OpKind::kRead)]);
  AddLatency(&t, "commit", open.latency[static_cast<int>(OpKind::kCommit)]);
  t.Set("throughput_ops_s", m.throughput_ops_s, "1/s");
  t.Set("offered_rate_ops_s", rate, "1/s");
  t.Set("slo_miss_frac",
        open.attempted == 0 ? 0
                            : static_cast<double>(open.slo_misses) /
                                  static_cast<double>(open.attempted),
        "ratio");
  t.Set("failed_frac",
        m.attempted == 0 ? 0
                         : static_cast<double>(m.failed) /
                               static_cast<double>(m.attempted),
        "ratio");
  t.Set("generator_lateness_p99_ms", open.lateness_ms.Percentile(99), "ms");
  t.Set("generator_lateness_max_ms", open.lateness_ms.Max(), "ms");
  t.Set("backlog_last_window", static_cast<double>(open.backlog.back()),
        "count");
  return m;
}

/// Closed loop: every session keeps one request in flight, so each
/// latency is submit to completion with nothing queued ahead of it.
Measurement MeasureClosedLoop(const std::vector<Session*>& sessions,
                              const IssueFn& issue, double seconds,
                              double read_slo_ms, double commit_slo_ms,
                              RegistryWindow* window) {
  if (window != nullptr) window->Begin();
  const BoundedResult r = RunBounded(sessions, 1, seconds, issue);
  if (window != nullptr) window->End();
  const Samples& reads = r.latency[static_cast<int>(OpKind::kRead)];
  const Samples& commits = r.latency[static_cast<int>(OpKind::kCommit)];
  Measurement m;
  m.throughput_ops_s = r.MedianWindowRate(kThroughputWindows);
  m.p50_ms = commits.Percentile(50);
  m.attempted = r.attempted;
  m.failed = r.failed;
  m.completed = r.ok;
  m.window_ops = r.ok;
  const std::uint64_t misses = r.failed + reads.CountAbove(read_slo_ms) +
                               commits.CountAbove(commit_slo_ms);
  MetricTable& t = m.named;
  AddLatency(&t, "read", reads);
  AddLatency(&t, "commit", commits);
  t.Set("throughput_ops_s", m.throughput_ops_s, "1/s");
  t.Set("slo_miss_frac", Ratio(static_cast<double>(misses),
                               static_cast<double>(m.attempted)),
        "ratio");
  t.Set("failed_frac", Ratio(static_cast<double>(m.failed),
                             static_cast<double>(m.attempted)),
        "ratio");
  return m;
}

// --- Process accounting ------------------------------------------------------

double SelfCpuMs() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double ClusterCpuMs(const Deployment& d) {
  double ms = SelfCpuMs();
  for (pid_t pid : d.children()) ms += CpuMs(pid);
  return ms;
}

double ClusterPeakRssMb(const Deployment& d) {
  double mb = PeakRssMb(::getpid());
  for (pid_t pid : d.children()) mb += PeakRssMb(pid);
  return mb;
}

// --- Per-layer metrics ---------------------------------------------------------

struct LayerInputs {
  RegistryWindow* window;
  Weaver* db;
  Env* env;
  const Measurement* m;
  std::vector<SetupTimes> setups;
  double cpu_ms = 0;
  double overhead_frac = 0;
  StorageOptions storage;  // durability of the workload's store
};

double SpanP50Us(const std::vector<SpanLog::Span>& spans, const char* name,
                 const RegistryWindow& w) {
  Samples s;
  for (const auto& sp : spans) {
    if (std::string_view(sp.name) == name && sp.start_ns >= w.start_ns() &&
        sp.end_ns <= w.end_ns()) {
      s.Add(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
    }
  }
  return s.Percentile(50);
}

void EmitLayers(const LayerInputs& in, MetricTable* out) {
  const RegistryWindow& w = *in.window;
  const double ops = static_cast<double>(in.m->window_ops);
  const double window_ns = w.seconds() * 1e9;
  // Commits acknowledged inside the window, as the recorder saw them.
  const auto commits = in.env->recorder.commits();
  const auto programs_run = in.env->recorder.programs();
  const double acked = static_cast<double>(commits.size());
  double attempts = 0;
  for (const RecordedCommit& c : commits) attempts += c.attempts;

  // client
  const auto spans = SpanLog::Get().Collect();
  out->Set("client.submit_us", SpanP50Us(spans, "client.submit", w), "us");
  out->Set("client.tx_read_us", SpanP50Us(spans, "client.tx_read", w), "us");
  out->Set("client.attempts_per_commit",
           Ratio(attempts, acked), "ratio");

  // order (gatekeepers' registries; out-of-parent gatekeepers do not
  // report theirs, so these read 0 on the exec'd workload)
  const double gk_attempts = w.Counter("gk*.txs_committed") +
                             w.Counter("gk*.txs_aborted_kv") +
                             w.Counter("gk*.txs_aborted_last_update");
  const auto gk_commit = w.Histogram("gk*.commit_latency");
  out->Set("order.busy_frac",
           Ratio(w.Counter("gk*.busy_ns"),
                 window_ns * static_cast<double>(in.db->num_gatekeepers())),
           "ratio");
  out->Set("order.nops_per_op", Ratio(w.Counter("gk*.nops_sent"), ops), "ratio");
  out->Set("order.announces_per_op", Ratio(w.Counter("gk*.announces_sent"), ops),
           "ratio");
  out->Set("order.inflight_programs_max", w.GaugeMax("gk*.inflight_programs"),
           "count");
  out->Set("order.commit_p50_ms", HistogramPercentileMs(gk_commit, 50), "ms");
  out->Set("order.commit_p99_ms", HistogramPercentileMs(gk_commit, 99), "ms");
  out->Set("order.batch_size",
           Ratio(w.Counter("gk*.client_commits"), w.Counter("gk*.client_batches")),
           "ratio");
  out->Set("order.kv_abort_frac", Ratio(w.Counter("gk*.txs_aborted_kv"), gk_attempts),
           "ratio");
  out->Set("order.last_update_abort_frac",
           Ratio(w.Counter("gk*.txs_aborted_last_update"), gk_attempts), "ratio");
  out->Set("order.lane_depth_max", w.GaugeMax("gk*.lane_depth"), "count");

  // vclock / oracle (replays over the recorded commit timestamps)
  ProbeVclock(commits, out);
  const double order_requests = w.Counter("oracle.order_requests");
  const double live_max = w.GaugeMax("oracle.live_events");
  out->Set("oracle.order_requests_per_commit", Ratio(order_requests, acked),
           "ratio");
  const double dag = w.Counter("oracle.dag_resolved");
  out->Set("oracle.dag_resolved_frac",
           Ratio(dag, dag + w.Counter("oracle.vclock_resolved")), "ratio");
  out->Set("oracle.live_events_max", live_max, "count");
  ProbeOracle(commits, programs_run, live_max, out);
  const double client_hits = w.Counter("oracle.client.local_hits");
  const double client_rpcs = w.Counter("oracle.client.rpcs");
  out->Set("oracle.client.local_hit_frac",
           Ratio(client_hits, client_hits + client_rpcs), "ratio");
  out->Set("oracle.client.rpcs_per_commit", Ratio(client_rpcs, acked), "ratio");

  // kvstore / storage / codec
  ProbeKvStore(commits, in.db, in.storage, out);
  const double user_bytes = ProbeCodec(commits, programs_run, out);
  out->Set("storage.wal_bytes_per_user_byte",
           Ratio(w.Counter("storage.wal_bytes_appended"), user_bytes), "ratio");

  // shard
  const double programs = w.Counter("coord.programs_completed") +
                          w.Counter("coord.programs_aborted");
  const double txs_applied = w.Counter("shard*.txs_applied");
  out->Set("shard.busy_frac",
           Ratio(w.Counter("shard*.busy_ns"),
                 window_ns * static_cast<double>(in.db->num_shards())),
           "ratio");
  out->Set("shard.wave_delays_per_program",
           Ratio(w.Counter("shard*.wave_delays"), programs), "ratio");
  out->Set("shard.nops_per_program",
           Ratio(w.Counter("shard*.nops_processed"), programs), "ratio");
  out->Set("shard.inbox_depth_max", w.GaugeMax("shard*.inbox_depth"), "count");
  out->Set("shard.hop_budget_throttles_per_program",
           Ratio(w.Counter("shard*.hop_budget_throttles"), programs), "ratio");
  out->Set("shard.op_work_us_per_tx",
           Ratio(w.Counter("shard*.op_work_ns") / 1e3, txs_applied), "us");
  out->Set("shard.oracle_stalls_per_tx",
           Ratio(w.Counter("shard*.oracle_stalls"), txs_applied), "ratio");

  // coordinator
  const auto coord = w.Histogram("coord.program_latency");
  const double hops = w.Counter("coord.program_hops");
  out->Set("coord.program_p50_ms", HistogramPercentileMs(coord, 50), "ms");
  out->Set("coord.program_p99_ms", HistogramPercentileMs(coord, 99), "ms");
  out->Set("coord.accounting_msgs_per_program",
           Ratio(w.Counter("coord.accounting_msgs"), programs), "ratio");
  out->Set("coord.hops_per_program", Ratio(hops, programs), "ratio");
  out->Set("coord.hops_pruned_per_program",
           Ratio(w.Counter("shard*.hops_pruned"), programs), "ratio");
  out->Set("coord.vertices_per_hop",
           Ratio(w.Counter("shard*.vertices_executed"), hops), "ratio");

  // net
  out->Set("net.msgs_per_op", Ratio(w.Counter("bus.messages_sent"), ops), "ratio");
  out->Set("net.wire_frames_per_op", Ratio(w.Counter("bus.wire_frames_sent"), ops),
           "ratio");
  out->Set("net.wire_bytes_per_op", Ratio(w.Counter("bus.wire_bytes_sent"), ops),
           "bytes");
  out->Set("net.handler_drops", w.Counter("bus.handler_capacity_drops"), "count");
  out->Set("net.seq_violations", w.Counter("bus.wire_seq_violations"), "count");

  // trace: the system's own sampled stage spans from the window
  Samples prog_applied, prog_replied, commit_ordered, commit_applied;
  for (const obs::TraceSpan& s : in.db->trace().Dump()) {
    if (s.begin_ns < w.start_ns() || s.replied_ns > w.end_ns()) continue;
    if (s.kind == obs::TraceSpan::Kind::kProgram) {
      if (s.applied_ns >= s.begin_ns && s.applied_ns != 0) {
        prog_applied.Add(static_cast<double>(s.applied_ns - s.begin_ns) / 1e3);
      }
      if (s.replied_ns >= s.applied_ns && s.applied_ns != 0) {
        prog_replied.Add(static_cast<double>(s.replied_ns - s.applied_ns) / 1e3);
      }
    } else {
      if (s.ordered_ns >= s.begin_ns && s.ordered_ns != 0) {
        commit_ordered.Add(static_cast<double>(s.ordered_ns - s.begin_ns) / 1e3);
      }
      if (s.applied_ns >= s.ordered_ns && s.ordered_ns != 0) {
        commit_applied.Add(static_cast<double>(s.applied_ns - s.ordered_ns) / 1e3);
      }
    }
  }
  out->Set("trace.program.begin_to_applied_us", prog_applied.Percentile(50), "us");
  out->Set("trace.program.applied_to_replied_us", prog_replied.Percentile(50), "us");
  out->Set("trace.commit.begin_to_ordered_us", commit_ordered.Percentile(50), "us");
  out->Set("trace.commit.ordered_to_applied_us", commit_applied.Percentile(50), "us");

  // setup / proc
  std::vector<double> gen, load, start;
  for (const SetupTimes& t : in.setups) {
    gen.push_back(t.generate_s);
    load.push_back(t.load_s);
    start.push_back(t.start_s);
  }
  out->Set("setup.generate_s", Median(gen), "s");
  out->Set("setup.load_s", Median(load), "s");
  out->Set("setup.start_s", Median(start), "s");
  out->Set("proc.cpu_ms_per_kop", Ratio(in.cpu_ms, ops / 1e3), "ms");
  out->Set("trace.overhead_frac", in.overhead_frac, "ratio");

  // load generator
  out->Set("load.failed_frac", in.m->named.Get("failed_frac"), "ratio");
  out->Set("load.slo_miss_frac", in.m->named.Get("slo_miss_frac"), "ratio");
  out->Set("load.lateness_p99_ms", in.m->named.Get("generator_lateness_p99_ms"),
           "ms");
}

// --- The shared run skeleton ---------------------------------------------------

struct Hooks {
  /// Builds one deployment (graph generation timed into times->generate_s).
  std::function<std::unique_ptr<Deployment>(SetupTimes* times)> setup;
  /// Bench-side state for the kept deployment, then a short warm-up.
  std::function<void(Deployment&)> prepare;
  /// Runs the load for `seconds`; a traced run passes the layer window,
  /// which the measurement opens and closes around its measured phase.
  std::function<Measurement(Deployment&, double seconds,
                            RegistryWindow* window)>
      measure;
  /// Output checks after the measured window(s).
  std::function<void(Deployment&, RunResult*)> check;
  StorageOptions storage;
};

void RunSkeleton(const RunConfig& cfg, const Hooks& hooks, Env* env,
                 RunResult* result) {
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    SetupTimes t;
    d = hooks.setup(&t);
    if (d == nullptr) {
      result->Fail("deployment setup failed");
      return;
    }
    t.start_s += d->times.start_s;
    t.load_s += d->times.load_s;
    setups.push_back(t);
  }
  hooks.prepare(*d);

  Measurement m;
  if (!cfg.trace) {
    m = hooks.measure(*d, cfg.seconds, nullptr);
  } else {
    const Measurement base = hooks.measure(*d, cfg.seconds, nullptr);
    LayerInputs in;
    double cpu0 = 0;
    RegistryWindow window(&d->db(), [&](bool open) {
      d->db().trace().SetSampleEvery(open ? kTraceSampleEvery : 0);
      SpanLog::Get().Enable(open);
      env->recorder.Enable(open);
      if (open) {
        cpu0 = ClusterCpuMs(*d);
      } else {
        in.cpu_ms = ClusterCpuMs(*d) - cpu0;
      }
    });
    in.window = &window;
    in.db = &d->db();
    in.env = env;
    in.setups = setups;
    in.storage = hooks.storage;
    m = hooks.measure(*d, cfg.seconds, &window);
    in.m = &m;
    in.overhead_frac = Ratio(m.p50_ms - base.p50_ms, base.p50_ms);
    EmitLayers(in, &result->per_layer);
    const std::string spans = cfg.work_dir + "/spans-" + cfg.workload + ".jsonl";
    if (!SpanLog::Get().WriteJsonLines(spans)) {
      result->Fail("cannot write " + spans);
    }
  }
  const double peak_rss = ClusterPeakRssMb(*d);
  // An open loop that did not hold its schedule is reported, not failed:
  // the outputs are still checked, and when the deployment stops keeping
  // up at a rate it normally sustains, that is a finding about the
  // system, recorded with the run's figures.
  if (!m.valid) {
    std::fprintf(stderr, "perfbench: %s: open loop invalid: %s\n",
                 cfg.workload.c_str(), m.invalid_why.c_str());
  }
  hooks.check(*d, result);
  if (env->check_failures.load() > 0) {
    result->Fail(std::to_string(env->check_failures.load()) +
                 " program results disagreed with the reference");
  }
  d.reset();

  std::vector<double> totals;
  for (const SetupTimes& t : setups) totals.push_back(t.total());
  result->attempted = m.attempted;
  result->failed = m.failed;
  result->end_to_end.Set("setup_s", Median(totals), "s");
  result->end_to_end.Set("throughput_ops_s", m.throughput_ops_s, "1/s");
  result->end_to_end.Set("latency_p50_ms", m.p50_ms, "ms");
  result->end_to_end.Set("peak_rss_mb", peak_rss, "MB");
  result->detail = m.named;
  result->detail.Set("setup_s", Median(totals), "s");
  result->detail.Set("peak_rss_mb", peak_rss, "MB");
}

/// Reads a vertex's live out-edge ids.
using EdgeReader = std::function<Result<std::vector<EdgeId>>(NodeId vertex)>;

/// Through the get_edges node program (the shards' view).
EdgeReader ProgramEdgeReader(Session* s) {
  return [s](NodeId vertex) -> Result<std::vector<EdgeId>> {
    auto r = s->RunProgram(programs::kGetEdges, vertex);
    if (!r.ok()) return r.status();
    if (r->returns.empty()) return Status::NotFound("no return");
    std::vector<EdgeId> ids;
    for (const auto& [id, to] :
         programs::GetEdgesResult::Decode(r->returns[0].second).edges) {
      ids.push_back(id);
    }
    return ids;
  };
}

/// Every acknowledged edge create reads back and every acknowledged
/// delete is gone.
void CheckEdges(Ledger& ledger, const EdgeReader& read_edges,
                RunResult* result) {
  std::map<NodeId, std::vector<std::pair<EdgeId, bool>>> expect;
  std::lock_guard<std::mutex> lk(ledger.mu);
  std::map<EdgeId, bool> present;
  for (const auto& [n, e] : ledger.created) present[e] = true;
  for (const auto& [n, e] : ledger.deleted) present[e] = false;
  for (const auto& [n, e] : ledger.created) {
    if (ledger.maybe_deleted.count(e) == 0) expect[n].emplace_back(e, present[e]);
  }
  for (const auto& [n, e] : ledger.deleted) expect[n].emplace_back(e, false);
  std::uint64_t wrong = 0;
  for (const auto& [n, edges] : expect) {
    auto read = read_edges(n);
    if (!read.ok()) {
      result->Fail("reading the edges of " + std::to_string(n) + " failed: " +
                   read.status().ToString());
      return;
    }
    for (const auto& [e, want] : edges) {
      const bool have = std::find(read->begin(), read->end(), e) != read->end();
      if (have != want) ++wrong;
    }
  }
  if (wrong > 0) {
    result->Fail(std::to_string(wrong) +
                 " acknowledged edge writes do not read back");
  }
}

// --- tao_online ------------------------------------------------------------------

void RunTao(const RunConfig& cfg, RunResult* result) {
  Env env;
  WeaverOptions options;
  options.num_gatekeepers = 2;
  options.num_shards = 2;
  options.kv_commit_delay_micros = 0;  // no simulated delays
  options.storage.fsync = FsyncPolicy::kNever;
  const std::string data_dir = cfg.work_dir + "/tao_wal";

  struct State {
    workload::TaoWorkload mix;
  };
  SessionSet<State> sessions;
  std::unique_ptr<WeaverClient> client;

  IssueFn issue = [&](Session& s, std::uint64_t rid) -> Request {
    workload::TaoWorkload& mix = sessions.For(s).mix;
    const workload::TaoOp op = mix.NextOp();
    const NodeId n = mix.PickNode();
    switch (op) {
      case workload::TaoOp::kGetEdges:
        return SubmitProgram(s, rid, OpKind::kRead, programs::kGetEdges, n, "",
                             &env);
      case workload::TaoOp::kCountEdges:
        return SubmitProgram(s, rid, OpKind::kRead, programs::kCountEdges, n,
                             "", &env);
      case workload::TaoOp::kGetNode:
        return SubmitProgram(s, rid, OpKind::kRead, programs::kGetNode, n, "",
                             &env);
      case workload::TaoOp::kCreateEdge: {
        const NodeId to = mix.PickUniformNode();
        return SubmitCommit(
            s, rid,
            [n, to](Transaction& tx, CommitAttempt* a, std::uint64_t) {
              a->created.emplace_back(n, tx.CreateEdge(n, to));
            },
            &env);
      }
      case workload::TaoOp::kDeleteEdge: {
        const std::uint64_t pick = mix.PickUniformNode();
        const NodeId fallback_to = mix.PickUniformNode();
        return SubmitCommit(
            s, rid,
            [n, pick, fallback_to](Transaction& tx, CommitAttempt* a,
                                   std::uint64_t rid) {
              Result<NodeSnapshot> snap = Status::Internal("unread");
              {
                ScopedSpan span(rid, "client.tx_read");
                snap = tx.GetNode(n);
              }
              a->reads.push_back(n);
              if (!snap.ok() || snap->edges.empty()) {
                // Nothing to delete: the write becomes an edge create.
                a->created.emplace_back(n, tx.CreateEdge(n, fallback_to));
                return;
              }
              const EdgeId e = snap->edges[pick % snap->edges.size()].id;
              (void)tx.DeleteEdge(n, e);
              a->deleted.emplace_back(n, e);
            },
            &env);
      }
    }
    return Request{OpKind::kRead, [] { return false; }};
  };

  Hooks hooks;
  hooks.storage.data_dir = cfg.work_dir + "/tao_kv_replay";
  hooks.storage.fsync = FsyncPolicy::kNever;
  hooks.setup = [&](SetupTimes* t) {
    const std::uint64_t t0 = NowNs();
    const auto graph =
        workload::MakePowerLawGraph(kTaoVertices, kTaoOutDegree, cfg.seed);
    t->generate_s = SecondsSince(t0);
    std::filesystem::remove_all(data_dir);
    WeaverOptions o = options;
    o.storage.data_dir = data_dir;
    return Deployment::InProcess(o, graph);
  };
  hooks.prepare = [&](Deployment& d) {
    client = std::make_unique<WeaverClient>(&d.db());
    for (int i = 0; i < kTaoSessions; ++i) {
      sessions.Add(client->OpenSession(),
                   std::make_unique<State>(State{workload::TaoWorkload(
                       kTaoVertices, 0.998, 0.8, cfg.seed * 1000 + i)}));
    }
    (void)RunBounded(sessions.sessions, kTaoInflight, 1.0, issue);
  };
  hooks.measure = [&](Deployment&, double seconds, RegistryWindow* window) {
    return MeasureTwoPhase(sessions.sessions, issue, seconds, kTaoRate,
                           kTaoReadSloMs, kTaoCommitSloMs, kTaoInflight,
                           window);
  };
  hooks.check = [&](Deployment&, RunResult* r) {
    // Let gatekeeper clocks announce past the last commits, so a fresh
    // program's snapshot orders after all of them.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto session = client->OpenSession();
    CheckEdges(env.ledger, ProgramEdgeReader(session.get()), r);
    session.reset();
    r->detail.Set("commits_acked", static_cast<double>(env.ledger.acked.load()),
                  "count");
    sessions = SessionSet<State>{};
    client.reset();
  };
  RunSkeleton(cfg, hooks, &env, result);
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(hooks.storage.data_dir);
}

// --- rw_contended_exec -------------------------------------------------------------

void RunRw(const RunConfig& cfg, RunResult* result) {
  Env env;
  WeaverOptions options;
  options.num_gatekeepers = 2;
  options.num_shards = 2;
  options.kv_commit_delay_micros = 0;  // no simulated delays
  options.storage.fsync = FsyncPolicy::kNever;
  const std::string data_dir = cfg.work_dir + "/rw_wal";
const std::string oracle_dir = cfg.work_dir + "/rw_oracle";

  std::vector<NodeId> hot;
  std::vector<NodeId> all;
  struct State {
    Rng rng;
    ZipfSampler zipf;
  };
  SessionSet<State> sessions;
  std::unique_ptr<WeaverClient> client;

  IssueFn issue = [&](Session& s, std::uint64_t rid) -> Request {
    State& st = sessions.For(s);
    if (st.rng.Uniform(2) == 0) {
      // A point read as a read-only transaction: its OCC validation
      // crosses to the gatekeeper process like any commit.
      const NodeId v = all[st.rng.Uniform(all.size())];
      return SubmitCommit(
          s, rid,
          [v](Transaction& tx, CommitAttempt* a, std::uint64_t rid) {
            ScopedSpan span(rid, "client.tx_read");
            (void)tx.GetNode(v);
            a->reads.push_back(v);
          },
          &env, OpKind::kRead);
    }
    const NodeId h = hot[st.zipf.Sample(st.rng)];
    const NodeId to = all[st.rng.Uniform(all.size())];
    return SubmitCommit(
        s, rid,
        [h, to](Transaction& tx, CommitAttempt* a, std::uint64_t rid) {
          Result<NodeSnapshot> snap = Status::Internal("unread");
          {
            ScopedSpan span(rid, "client.tx_read");
            snap = tx.GetNode(h);
          }
          a->reads.push_back(h);
          std::uint64_t counter = 0;
          if (snap.ok()) {
            counter = std::stoull(snap->GetProperty("counter").value_or("0"));
          }
          (void)tx.AssignNodeProperty(h, "counter", std::to_string(counter + 1));
          a->increments.push_back(h);
          a->created.emplace_back(h, tx.CreateEdge(h, to));
        },
        &env);
  };

  Hooks hooks;
  hooks.storage.data_dir = cfg.work_dir + "/rw_kv_replay";
  hooks.storage.fsync = FsyncPolicy::kNever;
  hooks.setup = [&](SetupTimes* t) -> std::unique_ptr<Deployment> {
    std::uint64_t t0 = NowNs();
    Rng rng(cfg.seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;  // indexes
    for (std::uint64_t v = kRwHot; v < kRwHot + kRwCold; ++v) {
      for (std::uint64_t e = 0; e < kRwColdOutDegree; ++e) {
        edges.emplace_back(v, rng.Uniform(kRwHot + kRwCold));
      }
    }
    t->generate_s = SecondsSince(t0);
    std::filesystem::remove_all(data_dir);
    std::filesystem::remove_all(oracle_dir);
    std::filesystem::create_directories(oracle_dir);
    WeaverOptions o = options;
    o.storage.data_dir = data_dir;
    auto d = Deployment::Exec(cfg.serverd_bin, oracle_dir, o);
    if (d == nullptr) return nullptr;

    // Remote deployments do not bulk load: the graph goes in through
    // transactions, a few large ones.
    t0 = NowNs();
    WeaverClient loader(&d->db());
    auto session = loader.OpenSession();
    std::vector<NodeId> ids;
    constexpr std::uint64_t kPerTx = 512;
    for (std::uint64_t at = 0; at < kRwHot + kRwCold; at += kPerTx) {
      Transaction tx = session->BeginTx();
      for (std::uint64_t i = at; i < std::min(at + kPerTx, kRwHot + kRwCold); ++i) {
        const NodeId n = tx.CreateNode();
        if (i < kRwHot) (void)tx.AssignNodeProperty(n, "counter", "0");
        ids.push_back(n);
      }
      if (!session->Commit(&tx).ok()) return nullptr;
    }
    for (std::size_t at = 0; at < edges.size(); at += kPerTx * 2) {
      Transaction tx = session->BeginTx();
      for (std::size_t i = at; i < std::min(at + kPerTx * 2, edges.size()); ++i) {
        tx.CreateEdge(ids[edges[i].first], ids[edges[i].second]);
      }
      if (!session->Commit(&tx).ok()) return nullptr;
    }
    d->times.load_s = SecondsSince(t0);
    hot.assign(ids.begin(), ids.begin() + kRwHot);
    all = ids;
    return d;
  };
  hooks.prepare = [&](Deployment& d) {
    client = std::make_unique<WeaverClient>(&d.db());
    // Sessions alternate gatekeepers, so conflicting writes carry
    // clock-incomparable timestamps from different gatekeepers.
    for (int i = 0; i < kRwSessions; ++i) {
      sessions.Add(client->OpenSessionOn(static_cast<GatekeeperId>(i % 2)),
                   std::make_unique<State>(
                       State{Rng(cfg.seed * 1000 + i),
                             ZipfSampler(kRwHot, kRwHotZipfTheta)}));
    }
    (void)RunBounded(sessions.sessions, 1, 1.0, issue);
  };
  hooks.measure = [&](Deployment&, double seconds, RegistryWindow* window) {
    return MeasureClosedLoop(sessions.sessions, issue, seconds, kRwReadSloMs,
                             kRwCommitSloMs, window);
  };
  hooks.check = [&](Deployment&, RunResult* r) {
    // The store of record, read through transactions: node-program reads
    // on exec'd servers stall behind the socket defect the workload keeps.
    auto session = client->OpenSession();
    auto read_node = [&](NodeId n) { return session->BeginTx().GetNode(n); };
    CheckEdges(
        env.ledger,
        [&](NodeId n) -> Result<std::vector<EdgeId>> {
          auto snap = read_node(n);
          if (!snap.ok()) return snap.status();
          std::vector<EdgeId> ids;
          for (const EdgeSnapshot& e : snap->edges) ids.push_back(e.id);
          return ids;
        },
        r);
    // Lost-update check: every hot counter equals its acknowledged
    // increments (plus any whose commit outcome is unknown).
    std::uint64_t counted = 0, acked = 0, wrong = 0;
    for (NodeId h : hot) {
      auto snap = read_node(h);
      if (!snap.ok()) {
        r->Fail("reading hot vertex " + std::to_string(h) + " failed");
        break;
      }
      const std::uint64_t value =
          std::stoull(snap->GetProperty("counter").value_or("0"));
      const std::uint64_t want = env.ledger.increments[h];
      counted += value;
      acked += want;
      if (value < want || value > want + env.ledger.maybe_increments[h]) ++wrong;
    }
    if (wrong > 0) {
      r->Fail("lost update: hot counters sum to " + std::to_string(counted) +
              ", acknowledged increments " + std::to_string(acked));
    }
    r->detail.Set("increments_acked", static_cast<double>(acked), "count");
    session.reset();
    sessions = SessionSet<State>{};
    client.reset();
  };
  RunSkeleton(cfg, hooks, &env, result);
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(oracle_dir);
  std::filesystem::remove_all(hooks.storage.data_dir);
}

// --- bfs_traversal -------------------------------------------------------------------

/// Reachability reference: BFS over the generated edge list that, like
/// the bfs node program, does not expand past the target.
class ReferenceBfs {
 public:
  explicit ReferenceBfs(const workload::GeneratedGraph& g)
      : offsets_(g.num_nodes + 2, 0), seen_(g.num_nodes + 1, 0) {
    for (const auto& [src, dst] : g.edges) ++offsets_[src + 1];
    for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    targets_.resize(g.edges.size());
    std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (const auto& [src, dst] : g.edges) targets_[fill[src]++] = dst;
  }

  /// True when the program's returns are exactly the reachable set.
  bool Matches(NodeId src, NodeId dst, const ProgramResult& r) {
    ++stamp_;
    std::vector<NodeId> frontier{src};
    seen_[src] = stamp_;
    std::size_t reached = 0;
    bool found = false;
    while (!frontier.empty()) {
      const NodeId v = frontier.back();
      frontier.pop_back();
      ++reached;
      if (v == dst) {
        found = true;
        continue;
      }
      for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const NodeId t = targets_[i];
        if (seen_[t] != stamp_) {
          seen_[t] = stamp_;
          frontier.push_back(t);
        }
      }
    }
    if (r.returns.size() != reached) return false;
    bool saw_found = false;
    for (const auto& [vertex, ret] : r.returns) {
      if (ret == "found") {
        saw_found = true;
      } else if (vertex >= seen_.size() || seen_[vertex] != stamp_) {
        return false;
      }
    }
    return saw_found == found;
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t stamp_ = 0;
};

void RunBfs(const RunConfig& cfg, RunResult* result) {
  Env env;
  WeaverOptions options;
  options.num_gatekeepers = 2;
  options.num_shards = 2;
  options.bulk_load_durable = false;  // read-only workload
  options.kv_commit_delay_micros = 0;

  workload::GeneratedGraph graph;
  std::unique_ptr<ReferenceBfs> reference;
  std::unique_ptr<WeaverClient> client;
  std::unique_ptr<Session> session;
  Rng rng(cfg.seed * 7919 + 1);
  int recorded_traversals = 0;

  auto query = [&](Samples* latency) -> bool {
    const NodeId src = 1 + rng.Uniform(kBfsVertices);
    const NodeId dst = 1 + rng.Uniform(kBfsVertices);
    programs::BfsParams params;
    params.target = dst;
    const std::uint64_t rid = NextRequestId();
    const std::uint64_t t0 = NowNs();
    Pending<Result<ProgramResult>> pending;
    {
      ScopedSpan span(rid, "client.submit");
      pending = session->RunProgramAsync(programs::kBfs, src, params.Encode());
    }
    {
      ScopedSpan span(rid, "client.wait");
      if (!pending.WaitFor(kRequestDeadline).ok()) return false;
    }
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    const Result<ProgramResult>& r = pending.Wait();
    if (!r.ok()) return false;
    if (latency != nullptr) latency->Add(ms);
    if (!reference->Matches(src, dst, *r)) env.check_failures.fetch_add(1);
    if (env.recorder.enabled()) {
      RecordedProgram p{std::string(programs::kBfs), src, params.Encode(),
                        r->timestamp, {}};
      // A few traversals' vertex sets are codec input enough; keeping
      // every one would dominate the run's memory.
      if (++recorded_traversals <= kBfsRecordedTraversals) {
        for (const auto& [vertex, ret] : r->returns) p.visited.push_back(vertex);
      }
      env.recorder.AddProgram(std::move(p));
    }
    return true;
  };

  Hooks hooks;
  hooks.setup = [&](SetupTimes* t) {
    const std::uint64_t t0 = NowNs();
    graph = workload::MakeUniformGraph(kBfsVertices, kBfsEdges, cfg.seed);
    t->generate_s = SecondsSince(t0);
    return Deployment::InProcess(options, graph);
  };
  hooks.prepare = [&](Deployment& d) {
    reference = std::make_unique<ReferenceBfs>(graph);
    client = std::make_unique<WeaverClient>(&d.db());
    session = client->OpenSession();
    for (int i = 0; i < 3; ++i) (void)query(nullptr);
  };
  hooks.measure = [&](Deployment&, double seconds, RegistryWindow* window) {
    Measurement m;
    Samples latency;
    if (window != nullptr) window->Begin();
    const std::uint64_t t0 = NowNs();
    while (SecondsSince(t0) < seconds) {
      ++m.attempted;
      if (!query(&latency)) ++m.failed;
    }
    if (window != nullptr) window->End();
    // Queries per second of query time: the reference check between
    // queries is the bench's work, not the system's.
    const double busy_s =
        latency.Mean() * static_cast<double>(latency.size()) / 1e3;
    m.completed = latency.size();
    m.window_ops = latency.size();
    m.throughput_ops_s = Ratio(static_cast<double>(latency.size()), busy_s);
    m.p50_ms = latency.Percentile(50);
    const std::uint64_t misses = m.failed + latency.CountAbove(kBfsSloMs);
    AddLatency(&m.named, "bfs", latency);
    m.named.Set("throughput_ops_s", m.throughput_ops_s, "1/s");
    m.named.Set("slo_miss_frac", Ratio(static_cast<double>(misses),
                                       static_cast<double>(m.attempted)),
                "ratio");
    m.named.Set("failed_frac", Ratio(static_cast<double>(m.failed),
                                     static_cast<double>(m.attempted)),
                "ratio");
    return m;
  };
  hooks.check = [&](Deployment&, RunResult*) {
    session.reset();
    client.reset();
  };
  RunSkeleton(cfg, hooks, &env, result);
}

}  // namespace

void RunWorkload(const RunConfig& cfg, RunResult* result) {
  std::filesystem::create_directories(cfg.work_dir);
  if (cfg.workload == "tao_online") {
    RunTao(cfg, result);
  } else if (cfg.workload == "rw_contended_exec") {
    RunRw(cfg, result);
  } else if (cfg.workload == "bfs_traversal") {
    RunBfs(cfg, result);
  } else {
    result->Fail("unknown workload '" + cfg.workload + "'");
  }
}

}  // namespace perfbench
