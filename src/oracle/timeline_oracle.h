// TimelineOracle: the reactive half of refinable timestamps (paper §3.4).
//
// This is an event-ordering service in the style of Kronos [Escriva et al.,
// EuroSys 2014], the system the paper deploys. It maintains a dependency
// graph whose vertices are outstanding transactions (identified by their
// refinable timestamps) and whose edges are happens-before commitments.
// The oracle guarantees:
//
//   * Acyclicity  — an order, once established, can never be contradicted.
//   * Monotonicity — answers are irrevocable; repeated queries agree.
//   * Transitivity — if a < b and b < c are known, a < c is answered.
//   * Vector-clock awareness — because events are identified by vector
//     timestamps, implied orderings are honored: if <0,1> < <1,0> was
//     established and <1,0> < <2,0> holds by clock comparison, then
//     <0,1> < <2,0> is answered (paper §4.1).
//
// The paper's deployment chain-replicates the oracle for fault tolerance
// and read scaling (~6M queries/sec on a 12-server chain). Here one
// process serves it: writes (order establishment) take an exclusive lock
// while read-only queries take a shared lock and may execute
// concurrently. Fault tolerance comes from weaver-oracled's durable
// changelog and supervised respawn (docs/oracle_service.md), not from
// replication.
//
// Lock discipline: std::shared_mutex promises no FIFO among waiters, so
// a steady stream of order requests could keep the garbage collector off
// the lock for good. A waiting CollectBefore is therefore served before
// every later order request: it announces itself in collectors_waiting_
// before it locks, and CreateEvent, OrderPair, QueryOrder and
// AssignHappensBefore block at that gate while the count is non-zero.
// The collector waits only for the requests already past the gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/ids.h"
#include "common/status.h"
#include "common/sync.h"
#include "order/timestamp.h"
#include "vclock/vclock.h"

namespace weaver {

/// Which event the caller would prefer first when no order exists yet.
/// Shards pass kPreferFirst with the already-executed/arrived event first
/// ("arrival order"); for transaction-vs-node-program pairs the transaction
/// is preferred first so programs never miss committed writes (paper §4.1).
enum class OrderPreference : std::uint8_t {
  kPreferFirst,
  kPreferSecond,
};

class TimelineOracle {
 public:
  struct Stats {
    std::atomic<std::uint64_t> order_requests{0};   // OrderPair calls
    std::atomic<std::uint64_t> queries{0};          // QueryOrder calls
    std::atomic<std::uint64_t> edges_established{0};
    std::atomic<std::uint64_t> vclock_resolved{0};  // answered by clocks only
    std::atomic<std::uint64_t> dag_resolved{0};     // answered by DAG search
    std::atomic<std::uint64_t> events_collected{0};
  };

  TimelineOracle() = default;
  TimelineOracle(const TimelineOracle&) = delete;
  TimelineOracle& operator=(const TimelineOracle&) = delete;

  /// Registers an event (idempotent). Events are also auto-registered by
  /// OrderPair, so explicit creation is optional.
  void CreateEvent(const RefinableTimestamp& ts);

  /// Returns the order between a and b, establishing one (per `prefer`) if
  /// none exists. Never returns kConcurrent. This is the shard servers'
  /// entry point when committing concurrent transactions (paper §3.4).
  ClockOrder OrderPair(const RefinableTimestamp& a,
                       const RefinableTimestamp& b, OrderPreference prefer);

  /// Read-only: returns the order if determined (by clocks, established
  /// edges, transitivity, or their combination), else kConcurrent.
  ClockOrder QueryOrder(const RefinableTimestamp& a,
                        const RefinableTimestamp& b);

  /// Establishes a happens-before edge, failing with kFailedPrecondition if
  /// it would contradict existing knowledge (i.e. create a cycle).
  Status AssignHappensBefore(const RefinableTimestamp& before,
                             const RefinableTimestamp& after);

  /// Garbage-collects events whose clocks precede `watermark` (the oldest
  /// in-flight operation, paper §4.5). Transitive shortcuts are added so no
  /// ordering commitment between surviving events is lost.
  void CollectBefore(const VectorClock& watermark);

  /// Every explicit happens-before edge as (before, after) timestamp
  /// pairs. This is the oracle's replayable state: re-establishing each
  /// pair via AssignHappensBefore on an empty oracle rebuilds an
  /// equivalent DAG (clock-implied orderings need no edges). Snapshots
  /// and replica rehydration (docs/oracle_service.md) are built on it.
  std::vector<std::pair<RefinableTimestamp, RefinableTimestamp>> DumpEdges()
      const;

  std::size_t LiveEvents() const;
  const Stats& stats() const { return stats_; }
  void ResetStats();

 private:
  struct EventNode {
    RefinableTimestamp ts;
    std::unordered_set<EventId> succ;  // explicit happens-before edges
    std::unordered_set<EventId> pred;
  };

  // All helpers below require the caller to hold mu_ (shared is enough for
  // the const ones).
  const EventNode* Find(EventId id) const REQUIRES_SHARED(mu_);
  EventNode* FindOrCreate(const RefinableTimestamp& ts) REQUIRES(mu_);
  /// True iff a path from `from` to `to` exists using explicit edges and
  /// vector-clock-implied hops. Neither endpoint needs to be registered.
  bool Reaches(const RefinableTimestamp& from,
               const RefinableTimestamp& to) const REQUIRES_SHARED(mu_);
  ClockOrder ResolveLocked(const RefinableTimestamp& a,
                           const RefinableTimestamp& b) const
      REQUIRES_SHARED(mu_);
  void CollectLocked(const VectorClock& watermark) REQUIRES(mu_);
  /// Blocks while a CollectBefore waits for or holds mu_. Every order
  /// request passes it before locking (see the lock discipline above).
  void WaitForCollectors() const;

  mutable SharedMutex mu_;
  /// CollectBefore calls waiting for or holding mu_.
  std::atomic<std::uint32_t> collectors_waiting_{0};
  std::unordered_map<EventId, EventNode> events_ GUARDED_BY(mu_);
  Stats stats_;
};

}  // namespace weaver
