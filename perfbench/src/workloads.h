// The benchmark's workloads (see BENCHMARK.json for why each exists):
//
//   tao_online         in-process deployment, fig9a TAO mix, open loop
//                      for latency then bounded in-flight for throughput
//   rw_contended_exec  exec'd servers over loopback TCP, half point reads
//                      and half read-modify-write increments of
//                      Zipf-hot counters
//   bfs_traversal      in-process deployment on a uniform graph, one
//                      client running reachability BFS back to back
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serverd_bin;  // weaver-serverd, for the exec'd workload
  std::string work_dir;     // WAL, oracle changelog, span files
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;  // why `correct` is false
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricTable end_to_end;
  MetricTable per_layer;
  /// Every named measurement with its sample count, for the log line
  /// printed before the result.
  MetricTable detail;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Runs cfg.workload; unknown names fail the result.
void RunWorkload(const RunConfig& cfg, RunResult* result);

}  // namespace perfbench
