// Load generation over WeaverClient sessions.
//
// Open loop: one generator thread sends requests on a fixed schedule
// (rate r: request i is due at t0 + i/r) round-robin over the sessions,
// whatever the system's state -- independent users, so a stall queues
// work instead of slowing the offered load. Every request is timed from
// its due time, which charges a stall to every request it delays. A pool
// of completion waiters blocks on the Pending handles (each waiter on one
// request at a time, so a completion is stamped when it happens); waiters
// issue nothing new except a request's own retries.
//
// Bounded in flight: each load thread owns one session and keeps a
// fixed number of requests outstanding -- the throughput phase.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "client/session.h"

namespace perfbench {

enum class OpKind : std::uint8_t { kRead = 0, kCommit = 1 };
inline constexpr int kNumOpKinds = 2;

/// One submitted request. `finish` blocks until it completes -- retrying
/// inside the request where the workload says so -- and returns true on
/// success.
struct Request {
  OpKind kind = OpKind::kRead;
  std::function<bool()> finish;
};

/// Submits the next request on `session` and returns without waiting
/// for it. `request_id` tags the bench's spans for this request.
using IssueFn =
    std::function<Request(weaver::Session& session, std::uint64_t request_id)>;

struct OpenLoopOptions {
  double rate = 1000;  // requests per second, all sessions together
  double seconds = 5;
  int windows = 5;     // slices of the schedule for the backlog check
  int waiters = 64;
  /// Per-kind latency limit (ms) for the SLO-miss count.
  double slo_ms[kNumOpKinds] = {0, 0};
};

struct OpenLoopResult {
  Samples latency[kNumOpKinds];  // ms from due time, successful requests
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t slo_misses = 0;  // over the limit, or failed
  Samples lateness_ms;           // generator send time minus due time
  /// Requests outstanding at the end of each window.
  std::vector<std::uint64_t> backlog;
  double seconds = 0;

  /// The generator fell behind its schedule, or the backlog grew from
  /// window to window: the offered rate was not sustained and the
  /// latencies do not describe that rate.
  bool Valid(std::string* why) const;
};

OpenLoopResult RunOpenLoop(const std::vector<weaver::Session*>& sessions,
                           const OpenLoopOptions& options,
                           const IssueFn& issue);

struct BoundedResult {
  Samples latency[kNumOpKinds];  // ms from submit
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;          // completed successfully inside the window
  std::uint64_t failed = 0;
  double seconds = 0;
  std::uint64_t start_ns = 0;
  std::vector<std::uint64_t> done_ns;  // completion time of each ok

  /// Median over `windows` equal slices of the run of each slice's
  /// completion rate (ops/s): steadier than the whole-run rate against
  /// a burst of outside load on a shared machine.
  double MedianWindowRate(int windows) const;
};

/// One load thread per session, each keeping `inflight` requests
/// outstanding for `seconds`. Requests still outstanding at the end are
/// drained (and checked) but not counted as completed in the window.
BoundedResult RunBounded(const std::vector<weaver::Session*>& sessions,
                         int inflight, double seconds, const IssueFn& issue);

/// Request ids for span tagging, unique across the run.
std::uint64_t NextRequestId();

}  // namespace perfbench
