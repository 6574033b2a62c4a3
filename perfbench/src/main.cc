// weaver_perfbench: runs one benchmark workload and prints its metrics.
//
//   weaver_perfbench --workload <tao_online|rw_contended_exec|bfs_traversal>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --serverd <path to weaver-serverd> --work-dir <dir>
//
// The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. The line before it holds
// every named measurement with its sample count. Exit status is 0 when
// the run completed (correct or not), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench_util.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--serverd") {
      cfg.serverd_bin = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!have_workload || cfg.work_dir.empty() || cfg.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --serverd <path> --work-dir <dir>\n",
                 argv[0]);
    return 2;
  }

  perfbench::RunResult result;
  perfbench::RunWorkload(cfg, &result);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.c_str());
  }
  std::printf("{\"workload\": %s, \"detail\": %s}\n",
              perfbench::JsonString(cfg.workload).c_str(),
              result.detail.ToJson().c_str());
  const perfbench::MetricTable& metrics =
      cfg.trace ? result.per_layer : result.end_to_end;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
