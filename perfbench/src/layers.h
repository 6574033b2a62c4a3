// Per-layer measurement for the traced run: registry snapshots around the
// measured window (plus a sampler for gauge maxima), the inputs the run
// recorded, and replay probes that feed those inputs through the vclock,
// oracle, codec and kvstore public functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/graph_op.h"
#include "core/weaver.h"
#include "obs/metrics.h"
#include "order/timestamp.h"

namespace perfbench {

/// Cluster-wide registry view over a window: counter and histogram
/// deltas between two snapshots, and gauge maxima from periodic samples.
class RegistryWindow {
 public:
  /// `on_open` runs at Begin() (true) and End() (false), so the caller
  /// can switch its own recording on for exactly the window.
  RegistryWindow(weaver::Weaver* db, std::function<void(bool)> on_open);
  ~RegistryWindow();
  RegistryWindow(const RegistryWindow&) = delete;
  RegistryWindow& operator=(const RegistryWindow&) = delete;

  void Begin();
  void End();
  double seconds() const { return seconds_; }
  std::uint64_t start_ns() const { return start_ns_; }
  std::uint64_t end_ns() const { return end_ns_; }

  /// Delta of the sum of every counter named `name` or "<instance>.name"
  /// (all gatekeepers, all shards, every process).
  double Counter(const std::string& name) const;
  /// Delta histogram of every instance's `name`, merged.
  weaver::obs::HistogramSnapshot Histogram(const std::string& name) const;
  /// Largest value any one instance's gauge `name` showed while sampled.
  double GaugeMax(const std::string& name) const;

 private:
  /// Local + remote snapshots (remote only for exec'd deployments).
  std::vector<weaver::obs::MetricsSnapshot> Collect();
  void SampleGauges(const std::vector<weaver::obs::MetricsSnapshot>& snaps);

  weaver::Weaver* db_;
  std::function<void(bool)> on_open_;
  weaver::obs::MetricsSnapshot before_;
  weaver::obs::MetricsSnapshot after_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  double seconds_ = 0;
  mutable std::mutex gauges_mu_;
  std::vector<std::pair<std::string, double>> gauge_max_;
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

/// Interpolated percentile (ms) of a nanosecond registry histogram.
double HistogramPercentileMs(const weaver::obs::HistogramSnapshot& h,
                             double p);

/// Inputs the traced run records for the replay probes.
struct RecordedCommit {
  std::vector<weaver::GraphOp> ops;
  std::vector<weaver::NodeId> read_vertices;
  weaver::RefinableTimestamp ts;
  int attempts = 1;
};

struct RecordedProgram {
  std::string name;
  weaver::NodeId start = 0;
  std::string params;
  weaver::RefinableTimestamp ts;
  /// Vertices the program returned (BFS frontier material for hop
  /// batches); empty for point reads.
  std::vector<weaver::NodeId> visited;
};

class Recorder {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void AddCommit(RecordedCommit c);
  void AddProgram(RecordedProgram p);
  std::vector<RecordedCommit> commits() const;
  std::vector<RecordedProgram> programs() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<RecordedCommit> commits_;
  std::vector<RecordedProgram> programs_;
};

/// vclock.compare_ns and vclock.incomparable_frac over the commits'
/// timestamps; conflicting pairs are successive commits writing the same
/// vertex.
void ProbeVclock(const std::vector<RecordedCommit>& commits,
                 MetricTable* out);

/// oracle.order_pair_us: a fresh TimelineOracle holding `live_events`
/// of the recorded commit and program timestamps answers OrderPair for
/// each successive recorded pair issued by different gatekeepers.
void ProbeOracle(const std::vector<RecordedCommit>& commits,
                 const std::vector<RecordedProgram>& programs,
                 double live_events, MetricTable* out);

/// codec.<kind>.{encode_ns,decode_ns,bytes} for ClientCommit, Tx, Nop
/// and WaveHopBatch messages built from the recorded inputs. Returns the
/// summed ClientCommit bytes of `commits` (the user bytes).
double ProbeCodec(const std::vector<RecordedCommit>& commits,
                  const std::vector<RecordedProgram>& programs,
                  MetricTable* out);

/// kvstore.commit_us: the commits' write sets (the vertex blobs as the
/// deployment's store now holds them) replayed through a fresh KvStore
/// under `storage`.
void ProbeKvStore(const std::vector<RecordedCommit>& commits,
                  weaver::Weaver* db, const weaver::StorageOptions& storage,
                  MetricTable* out);

}  // namespace perfbench
