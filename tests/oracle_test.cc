// Tests for the timeline oracle: acyclicity, irrevocability, transitivity,
// vector-clock-implied ordering, GC contraction (paper §3.4, §4.1, §4.5).
#include "oracle/timeline_oracle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"

namespace weaver {
namespace {

RefinableTimestamp Ts(std::initializer_list<std::uint64_t> counters,
                      GatekeeperId gk, std::uint32_t epoch = 0) {
  VectorClock c(epoch, std::vector<std::uint64_t>(counters));
  return RefinableTimestamp(c, gk, c.Component(gk));
}

TEST(OracleTest, ComparableClocksNeedNoDag) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0}, 0);
  const auto b = Ts({1, 1}, 1);
  EXPECT_EQ(oracle.QueryOrder(a, b), ClockOrder::kBefore);
  EXPECT_EQ(oracle.QueryOrder(b, a), ClockOrder::kAfter);
  EXPECT_EQ(oracle.LiveEvents(), 0u);  // nothing registered
}

TEST(OracleTest, ConcurrentUnknownUntilEstablished) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0}, 0);
  const auto b = Ts({0, 1}, 1);
  EXPECT_EQ(oracle.QueryOrder(a, b), ClockOrder::kConcurrent);
  EXPECT_EQ(oracle.OrderPair(a, b, OrderPreference::kPreferFirst),
            ClockOrder::kBefore);
  // Irrevocable: both directions agree from now on.
  EXPECT_EQ(oracle.QueryOrder(a, b), ClockOrder::kBefore);
  EXPECT_EQ(oracle.QueryOrder(b, a), ClockOrder::kAfter);
}

TEST(OracleTest, PreferenceSecond) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0}, 0);
  const auto b = Ts({0, 1}, 1);
  EXPECT_EQ(oracle.OrderPair(a, b, OrderPreference::kPreferSecond),
            ClockOrder::kAfter);
  EXPECT_EQ(oracle.QueryOrder(b, a), ClockOrder::kBefore);
}

TEST(OracleTest, PreferenceIgnoredWhenOrderExists) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0}, 0);
  const auto b = Ts({0, 1}, 1);
  oracle.OrderPair(a, b, OrderPreference::kPreferFirst);  // a < b
  // A later request preferring b first must return the existing order.
  EXPECT_EQ(oracle.OrderPair(b, a, OrderPreference::kPreferFirst),
            ClockOrder::kAfter);
}

TEST(OracleTest, ExplicitTransitivity) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0, 0}, 0);
  const auto b = Ts({0, 1, 0}, 1);
  const auto c = Ts({0, 0, 1}, 2);
  oracle.OrderPair(a, b, OrderPreference::kPreferFirst);  // a < b
  oracle.OrderPair(b, c, OrderPreference::kPreferFirst);  // b < c
  EXPECT_EQ(oracle.QueryOrder(a, c), ClockOrder::kBefore);
  // And the establishment path must respect it too.
  EXPECT_EQ(oracle.OrderPair(c, a, OrderPreference::kPreferFirst),
            ClockOrder::kAfter);
}

TEST(OracleTest, PaperSection41VclockImpliedTransitivity) {
  // Paper §4.1: oracle orders <0,1> < <1,0>; a later query for
  // (<0,1>, <2,0>) must answer <0,1> < <2,0> because <1,0> < <2,0> by
  // vector clocks.
  TimelineOracle oracle;
  const auto e01 = Ts({0, 1}, 1);
  const auto e10 = Ts({1, 0}, 0);
  const auto e20 = Ts({2, 0}, 0);
  EXPECT_EQ(oracle.OrderPair(e01, e10, OrderPreference::kPreferFirst),
            ClockOrder::kBefore);
  EXPECT_EQ(oracle.QueryOrder(e01, e20), ClockOrder::kBefore);
  EXPECT_EQ(oracle.QueryOrder(e20, e01), ClockOrder::kAfter);
}

TEST(OracleTest, MixedChainExplicitVclockExplicit) {
  // a <(dag) b <(clock) c <(dag) d  ==>  a < d.
  TimelineOracle oracle;
  const auto a = Ts({1, 0, 0}, 0);
  const auto b = Ts({0, 1, 0}, 1);
  const auto c = Ts({0, 2, 0}, 1);  // b < c by clock
  const auto d = Ts({0, 0, 1}, 2);
  oracle.OrderPair(a, b, OrderPreference::kPreferFirst);
  oracle.OrderPair(c, d, OrderPreference::kPreferFirst);
  EXPECT_EQ(oracle.QueryOrder(a, d), ClockOrder::kBefore);
}

TEST(OracleTest, AssignHappensBeforeRejectsCycle) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0}, 0);
  const auto b = Ts({0, 1}, 1);
  ASSERT_TRUE(oracle.AssignHappensBefore(a, b).ok());
  EXPECT_TRUE(oracle.AssignHappensBefore(b, a).IsFailedPrecondition());
}

TEST(OracleTest, AssignHappensBeforeIdempotent) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0}, 0);
  const auto b = Ts({0, 1}, 1);
  ASSERT_TRUE(oracle.AssignHappensBefore(a, b).ok());
  EXPECT_TRUE(oracle.AssignHappensBefore(a, b).ok());
}

TEST(OracleTest, AssignRejectsClockContradiction) {
  TimelineOracle oracle;
  const auto a = Ts({1, 1}, 0);
  const auto b = Ts({2, 1}, 0);  // a < b by clock
  EXPECT_TRUE(oracle.AssignHappensBefore(b, a).IsFailedPrecondition());
}

TEST(OracleTest, TransitiveCycleRejected) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0, 0}, 0);
  const auto b = Ts({0, 1, 0}, 1);
  const auto c = Ts({0, 0, 1}, 2);
  ASSERT_TRUE(oracle.AssignHappensBefore(a, b).ok());
  ASSERT_TRUE(oracle.AssignHappensBefore(b, c).ok());
  EXPECT_TRUE(oracle.AssignHappensBefore(c, a).IsFailedPrecondition());
}

TEST(OracleTest, GcCollectsOldEvents) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0}, 0);
  const auto b = Ts({0, 1}, 1);
  oracle.OrderPair(a, b, OrderPreference::kPreferFirst);
  EXPECT_EQ(oracle.LiveEvents(), 2u);
  VectorClock watermark(0, {5, 5});
  oracle.CollectBefore(watermark);
  EXPECT_EQ(oracle.LiveEvents(), 0u);
  EXPECT_EQ(oracle.stats().events_collected.load(), 2u);
}

TEST(OracleTest, GcPreservesTransitiveCommitments) {
  // a < b < c, then GC collects only b (a and c kept via watermark choice):
  // the a < c commitment must survive through the contraction shortcut.
  TimelineOracle oracle;
  const auto a = Ts({3, 0, 0}, 0);   // survives: component 0 high
  const auto b = Ts({0, 1, 0}, 1);   // collected
  const auto c = Ts({0, 0, 3}, 2);   // survives
  oracle.OrderPair(a, b, OrderPreference::kPreferFirst);
  oracle.OrderPair(b, c, OrderPreference::kPreferFirst);
  VectorClock watermark(0, {2, 2, 2});  // only b is fully before this
  oracle.CollectBefore(watermark);
  EXPECT_EQ(oracle.LiveEvents(), 2u);
  EXPECT_EQ(oracle.QueryOrder(a, c), ClockOrder::kBefore);
}

TEST(OracleTest, StatsCountResolutionPaths) {
  TimelineOracle oracle;
  const auto a = Ts({1, 0}, 0);
  const auto b = Ts({2, 0}, 0);
  const auto c = Ts({0, 1}, 1);
  oracle.QueryOrder(a, b);  // vclock resolved
  oracle.OrderPair(a, c, OrderPreference::kPreferFirst);  // established
  oracle.QueryOrder(a, c);  // dag resolved
  EXPECT_EQ(oracle.stats().vclock_resolved.load(), 1u);
  EXPECT_EQ(oracle.stats().edges_established.load(), 1u);
  EXPECT_GE(oracle.stats().dag_resolved.load(), 1u);
}

// Randomized: any sequence of OrderPair calls yields a coherent total
// order -- no pair may ever flip, and transitivity holds on sampled
// triples.
class OraclePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OraclePropertyTest, DecisionsNeverFlip) {
  Rng rng(GetParam());
  TimelineOracle oracle;
  // Events on 3 gatekeepers whose clocks evolve causally: each gatekeeper
  // ticks its own component and occasionally merges a peer announce, so
  // knowledge is monotone (as real vector clocks are). Many events remain
  // pairwise concurrent.
  std::vector<RefinableTimestamp> events;
  std::vector<VectorClock> gk_clock(3, VectorClock(3));
  for (int i = 0; i < 60; ++i) {
    const std::size_t gk = rng.Uniform(3);
    if (rng.Chance(0.3)) {
      // Announce from a random peer.
      const std::size_t peer = rng.Uniform(3);
      gk_clock[gk].Merge(gk_clock[peer]);
    }
    const std::uint64_t seq = gk_clock[gk].Tick(gk);
    events.push_back(RefinableTimestamp(gk_clock[gk],
                                        static_cast<GatekeeperId>(gk), seq));
  }
  std::map<std::pair<EventId, EventId>, ClockOrder> decided;
  for (int i = 0; i < 2000; ++i) {
    const auto& a = events[rng.Uniform(events.size())];
    const auto& b = events[rng.Uniform(events.size())];
    if (a.event_id() == b.event_id()) continue;
    const ClockOrder o =
        oracle.OrderPair(a, b,
                         rng.Chance(0.5) ? OrderPreference::kPreferFirst
                                         : OrderPreference::kPreferSecond);
    ASSERT_NE(o, ClockOrder::kConcurrent);
    const auto key = std::make_pair(a.event_id(), b.event_id());
    auto it = decided.find(key);
    if (it != decided.end()) {
      ASSERT_EQ(it->second, o) << "decision flipped";
    }
    decided[key] = o;
    decided[{key.second, key.first}] = FlipOrder(o);
  }
  // Transitivity on sampled triples.
  for (int i = 0; i < 3000; ++i) {
    const auto& a = events[rng.Uniform(events.size())];
    const auto& b = events[rng.Uniform(events.size())];
    const auto& c = events[rng.Uniform(events.size())];
    if (oracle.QueryOrder(a, b) == ClockOrder::kBefore &&
        oracle.QueryOrder(b, c) == ClockOrder::kBefore) {
      EXPECT_EQ(oracle.QueryOrder(a, c), ClockOrder::kBefore);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OraclePropertyTest,
                         ::testing::Values(11, 22, 33));

TEST(OracleConcurrencyTest, ParallelOrderPairsStayCoherent) {
  TimelineOracle oracle;
  std::vector<RefinableTimestamp> events;
  for (int i = 1; i <= 8; ++i) {
    // All pairwise concurrent: distinct gatekeepers.
    std::vector<std::uint64_t> c(8, 0);
    c[static_cast<std::size_t>(i - 1)] = 1;
    events.push_back(RefinableTimestamp(VectorClock(0, c),
                                        static_cast<GatekeeperId>(i - 1), 1));
  }
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < 500; ++i) {
        const auto& a = events[rng.Uniform(events.size())];
        const auto& b = events[rng.Uniform(events.size())];
        if (a.event_id() == b.event_id()) continue;
        const ClockOrder o1 =
            oracle.OrderPair(a, b, OrderPreference::kPreferFirst);
        const ClockOrder o2 = oracle.QueryOrder(a, b);
        if (o1 != o2) failed.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  // Full pairwise coherence check after the dust settles.
  for (const auto& a : events) {
    for (const auto& b : events) {
      if (a.event_id() == b.event_id()) continue;
      EXPECT_EQ(oracle.QueryOrder(a, b),
                FlipOrder(oracle.QueryOrder(b, a)));
    }
  }
}

TEST(OracleConcurrencyTest, CollectBeforeRacesConcurrentAcquires) {
  // Watermark GC racing OrderPair/QueryOrder acquires: decisions among
  // events ABOVE every watermark must never flip or vanish, no matter
  // how the collector interleaves with the acquirers (the GC cadence the
  // deployment runs against weaver-oracled).
  TimelineOracle oracle;
  // High band: survives every watermark used below.
  std::vector<RefinableTimestamp> high;
  for (int i = 0; i < 6; ++i) {
    std::vector<std::uint64_t> c(6, 0);
    c[static_cast<std::size_t>(i)] = 1'000'000;
    high.push_back(RefinableTimestamp(VectorClock(0, c),
                                      static_cast<GatekeeperId>(i),
                                      1'000'000));
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> flipped{false};
  std::vector<std::thread> threads;
  // Acquirers: a churn band of short-lived concurrent events (collected
  // continuously) plus orders among the high band (never collected).
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      std::map<std::pair<EventId, EventId>, ClockOrder> seen;
      for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
        std::vector<std::uint64_t> ca(6, 0), cb(6, 0);
        ca[0] = i * 3 + static_cast<std::uint64_t>(t);
        cb[1] = i * 3 + static_cast<std::uint64_t>(t);
        const RefinableTimestamp a(VectorClock(0, ca), 0, ca[0]);
        const RefinableTimestamp b(VectorClock(0, cb), 1, cb[1]);
        oracle.OrderPair(a, b, OrderPreference::kPreferFirst);
        const auto& ha = high[rng.Uniform(high.size())];
        const auto& hb = high[rng.Uniform(high.size())];
        if (ha.event_id() == hb.event_id()) continue;
        const ClockOrder o =
            oracle.OrderPair(ha, hb, OrderPreference::kPreferFirst);
        const auto key = std::make_pair(ha.event_id(), hb.event_id());
        auto it = seen.find(key);
        if (it != seen.end() && it->second != o) flipped.store(true);
        seen[key] = o;
        seen[{key.second, key.first}] = FlipOrder(o);
      }
    });
  }
  // Collector: advancing watermark sweeps the churn band, never the
  // high band.
  threads.emplace_back([&] {
    for (int round = 0; round < 200; ++round) {
      const std::uint64_t w = static_cast<std::uint64_t>(round + 1) * 50;
      oracle.CollectBefore(VectorClock(0, {w, w, w, w, w, w}));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(flipped.load()) << "GC flipped a decision above the watermark";
  EXPECT_GT(oracle.stats().events_collected.load(), 0u);
  // Survivor coherence after the dust settles.
  for (const auto& a : high) {
    for (const auto& b : high) {
      if (a.event_id() == b.event_id()) continue;
      EXPECT_EQ(oracle.QueryOrder(a, b), FlipOrder(oracle.QueryOrder(b, a)));
    }
  }
}

}  // namespace
}  // namespace weaver
