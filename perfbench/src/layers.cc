#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <map>
#include <unordered_map>

#include "common/histogram.h"
#include "core/message_codec.h"
#include "core/messages.h"
#include "kvstore/kvstore.h"
#include "net/wire.h"
#include "oracle/timeline_oracle.h"
#include "programs/standard_programs.h"

namespace perfbench {

using namespace weaver;
using obs::HistogramSnapshot;

namespace {

/// "gk0.busy_ns" matches ("gk", "busy_ns"); ("", "bus.messages_sent")
/// matches only that exact name.
bool NameMatches(const std::string& full, const std::string& family,
                 const std::string& metric) {
  if (family.empty()) return full == metric;
  if (full.compare(0, family.size(), family) != 0) return false;
  std::size_t i = family.size();
  const std::size_t digits = i;
  while (i < full.size() && std::isdigit(static_cast<unsigned char>(full[i]))) ++i;
  if (i == digits || i >= full.size() || full[i] != '.') return false;
  return full.compare(i + 1, std::string::npos, metric) == 0;
}

std::pair<std::string, std::string> SplitFamily(const std::string& name) {
  // "gk*.busy_ns" -> ("gk", "busy_ns"); anything else is an exact name.
  const std::size_t star = name.find("*.");
  if (star == std::string::npos) return {"", name};
  return {name.substr(0, star), name.substr(star + 2)};
}

HistogramSnapshot Subtract(const HistogramSnapshot& after,
                           const HistogramSnapshot* before) {
  if (before == nullptr) return after;
  std::map<std::uint32_t, std::int64_t> counts;
  for (const auto& [idx, n] : after.buckets) counts[idx] += static_cast<std::int64_t>(n);
  for (const auto& [idx, n] : before->buckets) counts[idx] -= static_cast<std::int64_t>(n);
  HistogramSnapshot out;
  for (const auto& [idx, n] : counts) {
    if (n > 0) {
      out.buckets.emplace_back(idx, static_cast<std::uint64_t>(n));
      out.count += static_cast<std::uint64_t>(n);
    }
  }
  out.sum = after.sum - before->sum;
  return out;
}

}  // namespace

RegistryWindow::RegistryWindow(Weaver* db, std::function<void(bool)> on_open)
    : db_(db), on_open_(std::move(on_open)) {}

RegistryWindow::~RegistryWindow() {
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
}

std::vector<obs::MetricsSnapshot> RegistryWindow::Collect() {
  std::vector<obs::MetricsSnapshot> out;
  auto cluster = db_->CollectMetrics(/*timeout_micros=*/2'000'000);
  if (!cluster.ok()) {
    out.push_back(db_->metrics().Snapshot());
    return out;
  }
  out.push_back(std::move(cluster->local));
  for (auto& report : cluster->remote) out.push_back(std::move(report.snapshot));
  return out;
}

void RegistryWindow::SampleGauges(
    const std::vector<obs::MetricsSnapshot>& snaps) {
  std::lock_guard<std::mutex> lk(gauges_mu_);
  for (const auto& snap : snaps) {
    for (const auto& [name, value] : snap.gauges) {
      auto it = std::find_if(gauge_max_.begin(), gauge_max_.end(),
                             [&](const auto& e) { return e.first == name; });
      if (it == gauge_max_.end()) {
        gauge_max_.emplace_back(name, static_cast<double>(value));
      } else {
        it->second = std::max(it->second, static_cast<double>(value));
      }
    }
  }
}

void RegistryWindow::Begin() {
  auto snaps = Collect();
  SampleGauges(snaps);
  before_ = snaps[0];
  for (std::size_t i = 1; i < snaps.size(); ++i) before_.Merge(snaps[i]);
  stop_.store(false);
  const auto period = db_->remote_gatekeepers() ? std::chrono::milliseconds(500)
                                                : std::chrono::milliseconds(10);
  sampler_ = std::thread([this, period] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(period);
      SampleGauges(Collect());
    }
  });
  start_ns_ = NowNs();
  on_open_(true);
}

void RegistryWindow::End() {
  on_open_(false);
  end_ns_ = NowNs();
  seconds_ = static_cast<double>(end_ns_ - start_ns_) / 1e9;
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
  auto snaps = Collect();
  SampleGauges(snaps);
  after_ = snaps[0];
  for (std::size_t i = 1; i < snaps.size(); ++i) after_.Merge(snaps[i]);
}

double RegistryWindow::Counter(const std::string& name) const {
  const auto [family, metric] = SplitFamily(name);
  double total = 0;
  for (const auto& [n, v] : after_.counters) {
    if (NameMatches(n, family, metric)) total += static_cast<double>(v);
  }
  for (const auto& [n, v] : before_.counters) {
    if (NameMatches(n, family, metric)) total -= static_cast<double>(v);
  }
  return total;
}

HistogramSnapshot RegistryWindow::Histogram(const std::string& name) const {
  const auto [family, metric] = SplitFamily(name);
  HistogramSnapshot out;
  for (const auto& [n, h] : after_.histograms) {
    if (NameMatches(n, family, metric)) out.Merge(Subtract(h, before_.FindHistogram(n)));
  }
  return out;
}

double RegistryWindow::GaugeMax(const std::string& name) const {
  const auto [family, metric] = SplitFamily(name);
  std::lock_guard<std::mutex> lk(gauges_mu_);
  double best = 0;
  for (const auto& [n, v] : gauge_max_) {
    if (NameMatches(n, family, metric)) best = std::max(best, v);
  }
  return best;
}

double HistogramPercentileMs(const HistogramSnapshot& h, double p) {
  if (h.count == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(h.count);
  double seen = 0;
  for (const auto& [idx, n] : h.buckets) {
    if (seen + static_cast<double>(n) >= rank) {
      const double hi = static_cast<double>(
          weaver::Histogram::BucketUpperBound(static_cast<int>(idx)));
      const double lo =
          idx == 0 ? 0.0
                   : static_cast<double>(weaver::Histogram::BucketUpperBound(
                         static_cast<int>(idx) - 1));
      const double frac = (rank - seen) / static_cast<double>(n);
      return (lo + frac * (hi - lo)) / 1e6;
    }
    seen += static_cast<double>(n);
  }
  return static_cast<double>(h.max) / 1e6;
}

void Recorder::AddCommit(RecordedCommit c) {
  std::lock_guard<std::mutex> lk(mu_);
  commits_.push_back(std::move(c));
}

void Recorder::AddProgram(RecordedProgram p) {
  std::lock_guard<std::mutex> lk(mu_);
  programs_.push_back(std::move(p));
}

std::vector<RecordedCommit> Recorder::commits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return commits_;
}

std::vector<RecordedProgram> Recorder::programs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return programs_;
}

namespace {

/// Successive commits writing the same vertex, in recorded order.
std::vector<std::pair<std::size_t, std::size_t>> ConflictingPairs(
    const std::vector<RecordedCommit>& commits) {
  std::unordered_map<NodeId, std::size_t> last_writer;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < commits.size(); ++i) {
    std::vector<NodeId> touched;
    for (const GraphOp& op : commits[i].ops) touched.push_back(op.node);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (NodeId n : touched) {
      auto it = last_writer.find(n);
      if (it != last_writer.end()) pairs.emplace_back(it->second, i);
      last_writer[n] = i;
    }
  }
  return pairs;
}

/// Repeats `body` over `n` inputs until at least `min_seconds` elapsed;
/// returns nanoseconds per call.
template <typename Body>
double TimePerCall(std::size_t n, double min_seconds, Body body) {
  if (n == 0) return 0;
  std::uint64_t calls = 0;
  const std::uint64_t t0 = NowNs();
  do {
    for (std::size_t i = 0; i < n; ++i) body(i);
    calls += n;
  } while (SecondsSince(t0) < min_seconds);
  return static_cast<double>(NowNs() - t0) / static_cast<double>(calls);
}

}  // namespace

void ProbeVclock(const std::vector<RecordedCommit>& commits,
                 MetricTable* out) {
  const auto pairs = ConflictingPairs(commits);
  std::size_t incomparable = 0;
  for (const auto& [a, b] : pairs) {
    if (commits[a].ts.Compare(commits[b].ts) == ClockOrder::kConcurrent) {
      ++incomparable;
    }
  }
  // Compare cost over every successive pair of recorded clocks.
  volatile int sink = 0;
  const double ns = commits.size() < 2
                        ? 0
                        : TimePerCall(commits.size() - 1, 0.05, [&](std::size_t i) {
                            sink = sink + static_cast<int>(commits[i].ts.clock.Compare(
                                              commits[i + 1].ts.clock));
                          });
  out->Set("vclock.compare_ns", ns, "ns");
  out->Set("vclock.incomparable_frac",
           pairs.empty() ? 0
                         : static_cast<double>(incomparable) /
                               static_cast<double>(pairs.size()),
           "ratio");
}

void ProbeOracle(const std::vector<RecordedCommit>& commits,
                 const std::vector<RecordedProgram>& programs,
                 double live_events, MetricTable* out) {
  std::vector<RefinableTimestamp> stamps;
  for (const RecordedCommit& c : commits) stamps.push_back(c.ts);
  for (const RecordedProgram& p : programs) stamps.push_back(p.ts);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i + 1 < stamps.size(); ++i) {
    if (stamps[i].gatekeeper != stamps[i + 1].gatekeeper) pairs.emplace_back(i, i + 1);
  }
  double us = 0;
  if (!pairs.empty()) {
    TimelineOracle oracle;
    const std::size_t live = std::min<std::size_t>(
        stamps.size(), static_cast<std::size_t>(std::max(1.0, live_events)));
    for (std::size_t i = 0; i < live; ++i) oracle.CreateEvent(stamps[i]);
    // One pass, bounded in time: a pair's first OrderPair may establish
    // an edge, after which repeats only measure the decided lookup.
    const std::uint64_t t0 = NowNs();
    std::size_t calls = 0;
    for (const auto& [a, b] : pairs) {
      oracle.OrderPair(stamps[a], stamps[b], OrderPreference::kPreferFirst);
      ++calls;
      if (SecondsSince(t0) > 1.0) break;
    }
    us = static_cast<double>(NowNs() - t0) / 1e3 / static_cast<double>(calls);
  }
  out->Set("oracle.order_pair_us", us, "us");
}

namespace {

template <typename Msg>
void ProbeKind(const std::string& kind, const std::vector<Msg>& msgs,
               MetricTable* out) {
  std::vector<std::string> encoded(msgs.size());
  const double enc = TimePerCall(msgs.size(), 0.05, [&](std::size_t i) {
    wire::Writer w;
    Encode(msgs[i], &w);
    encoded[i] = w.Take();
  });
  Msg scratch;
  const double dec = TimePerCall(msgs.size(), 0.05, [&](std::size_t i) {
    wire::Reader r(encoded[i]);
    scratch = Msg{};
    (void)Decode(&r, &scratch);
  });
  double bytes = 0;
  for (const std::string& e : encoded) bytes += static_cast<double>(e.size());
  out->Set("codec." + kind + ".encode_ns", enc, "ns");
  out->Set("codec." + kind + ".decode_ns", dec, "ns");
  out->Set("codec." + kind + ".bytes",
           msgs.empty() ? 0 : bytes / static_cast<double>(msgs.size()),
           "bytes");
}

ClientCommitMessage ToClientCommit(const RecordedCommit& c, std::uint64_t id) {
  ClientCommitMessage m;
  m.session_id = 1;
  m.request_id = id;
  m.reply_to = 1;
  m.ops = c.ops;
  for (NodeId n : c.read_vertices) {
    m.read_set.emplace_back(kv_keys::VertexData(n), 1);
  }
  return m;
}

}  // namespace

double ProbeCodec(const std::vector<RecordedCommit>& commits,
                  const std::vector<RecordedProgram>& programs,
                  MetricTable* out) {
  std::vector<ClientCommitMessage> client_commits;
  std::vector<TxMessage> txs;
  std::vector<NopMessage> nops;
  std::vector<WaveHopBatchMessage> batches;
  double user_bytes = 0;
  for (std::size_t i = 0; i < commits.size(); ++i) {
    client_commits.push_back(ToClientCommit(commits[i], i + 1));
    wire::Writer w;
    Encode(client_commits.back(), &w);
    user_bytes += static_cast<double>(w.str().size());
    txs.push_back(TxMessage{commits[i].ts, commits[i].ops});
    nops.push_back(NopMessage{commits[i].ts});
  }
  // Hop batches as the coordinator seeds them (one start hop) and, for
  // traversals, as shards forward them: the returned vertices carrying
  // the program's params, at most one shard drain cycle's worth each.
  constexpr std::size_t kHopsPerBatch = 2048;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const RecordedProgram& p = programs[i];
    nops.push_back(NopMessage{p.ts});
    WaveHopBatchMessage seed;
    seed.program_id = i + 1;
    seed.ts = p.ts;
    seed.program_name = p.name;
    seed.coordinator = 1;
    seed.visit_once = p.name == programs::kBfs;
    seed.hops.push_back(NextHop{p.start, p.params});
    batches.push_back(seed);
    for (std::size_t at = 0; at < p.visited.size(); at += kHopsPerBatch) {
      WaveHopBatchMessage fwd = seed;
      fwd.hops.clear();
      const std::size_t end = std::min(p.visited.size(), at + kHopsPerBatch);
      for (std::size_t v = at; v < end; ++v) {
        fwd.hops.push_back(NextHop{p.visited[v], p.params});
      }
      batches.push_back(std::move(fwd));
    }
  }
  ProbeKind("ClientCommit", client_commits, out);
  ProbeKind("Tx", txs, out);
  ProbeKind("Nop", nops, out);
  ProbeKind("WaveHopBatch", batches, out);
  return user_bytes;
}

void ProbeKvStore(const std::vector<RecordedCommit>& commits, Weaver* db,
                  const StorageOptions& storage, MetricTable* out) {
  double us = 0;
  auto store = commits.empty() ? Result<std::unique_ptr<KvStore>>(
                                     Status::NotFound("no commits"))
                               : KvStore::Open(64, storage);
  if (store.ok()) {
    KvStore& kv = **store;
    // Each commit's write set is the blob and last-update stamp of every
    // vertex it wrote. Blobs are taken once per vertex, with the bytes the
    // deployment's store holds now (a hot vertex's blob can be large, so
    // they are shared, not copied per commit).
    std::unordered_map<NodeId, std::string> blobs;
    for (const RecordedCommit& c : commits) {
      for (const GraphOp& op : c.ops) {
        if (blobs.count(op.node) != 0) continue;
        auto blob = db->kv().Get(kv_keys::VertexData(op.node));
        blobs[op.node] = blob.ok() ? *blob : std::string();
        (void)kv.Put(kv_keys::VertexData(op.node), blobs[op.node]);
      }
    }
    Samples commit_us;
    for (const RecordedCommit& c : commits) {
      const std::string stamp = c.ts.ToString();
      const std::uint64_t t0 = NowNs();
      KvTransaction tx = kv.Begin();
      for (const GraphOp& op : c.ops) {
        const std::string key = kv_keys::VertexData(op.node);
        (void)tx.Get(key);
        tx.Put(key, blobs[op.node]);
        tx.Put(kv_keys::VertexLastUpdate(op.node), stamp);
      }
      (void)tx.Commit();
      commit_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    }
    us = commit_us.Percentile(50);
  }
  out->Set("kvstore.commit_us", us, "us");
}

}  // namespace perfbench
