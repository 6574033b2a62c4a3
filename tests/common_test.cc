// Tests for histogram, serde, blocking queue, thread pool, sync
// primitives, and partitioners.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/histogram.h"
#include "common/id_set.h"
#include "common/queue.h"
#include "common/serde.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "partition/partitioner.h"

namespace weaver {
namespace {

// ---- Histogram -------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.Mean(), 1000.0, 0.01);
  // Bucketed percentile is within 5% of the true value.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 1000.0, 50.0);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 10000; ++i) h.Record(i * 100);
  EXPECT_LE(h.Percentile(50), h.Percentile(90));
  EXPECT_LE(h.Percentile(90), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.max());
  // p50 of uniform 100..1000000 is ~500000 (within bucket error).
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 500000.0, 25000.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(100);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_NEAR(a.Mean(), 200.0, 0.01);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(~0ULL);
  h.Record(1ULL << 62);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.Percentile(99), 0u);
}

TEST(HistogramTest, NonZeroBucketsCoverCount) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000 + i);
  std::uint64_t total = 0;
  for (const auto& [bound, count] : h.NonZeroBuckets()) total += count;
  EXPECT_EQ(total, 100u);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Record(1'000'000);
  EXPECT_NE(h.Summary().find("n=1"), std::string::npos);
}

// ---- Serde -----------------------------------------------------------------

TEST(SerdeTest, RoundTripScalars) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(123456);
  w.PutU64(~0ULL);
  w.PutDouble(3.5);
  w.PutString("hello");
  ByteReader r(w.str());
  std::uint8_t u8;
  std::uint32_t u32;
  std::uint64_t u64;
  double d;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, ~0ULL);
  EXPECT_EQ(d, 3.5);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, EmptyString) {
  ByteWriter w;
  w.PutString("");
  ByteReader r(w.str());
  std::string s = "junk";
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, "");
}

TEST(SerdeTest, BinaryStringPreserved) {
  std::string bin("\x00\x01\xff\x7f", 4);
  ByteWriter w;
  w.PutString(bin);
  ByteReader r(w.str());
  std::string s;
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, bin);
}

TEST(SerdeTest, TruncatedReadsFail) {
  ByteWriter w;
  w.PutU64(42);
  std::string bytes = w.Take();
  bytes.resize(4);
  ByteReader r(bytes);
  std::uint64_t v;
  EXPECT_TRUE(r.GetU64(&v).IsInternal());
}

TEST(SerdeTest, TruncatedStringLengthFails) {
  ByteWriter w;
  w.PutString("abcdef");
  std::string bytes = w.Take();
  bytes.resize(6);  // length says 6 but only 2 payload bytes remain
  ByteReader r(bytes);
  std::string s;
  EXPECT_TRUE(r.GetString(&s).IsInternal());
}

TEST(SerdeTest, VarintRoundTripAndTruncation) {
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1ULL << 35, ~0ULL};
  ByteWriter w;
  for (std::uint64_t v : values) w.PutVarint(v);
  const std::string bytes = w.Take();
  EXPECT_EQ(bytes[0], '\0');  // small values take one byte
  ByteReader r(bytes);
  for (std::uint64_t v : values) {
    std::uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.AtEnd());
  ByteWriter big;
  big.PutVarint(1ULL << 40);
  std::string cut = big.Take();
  cut.pop_back();  // drop the terminating byte
  ByteReader rc(cut);
  std::uint64_t v = 0;
  EXPECT_TRUE(rc.GetVarint(&v).IsInternal());
}

// ---- IdSet -------------------------------------------------------------------

TEST(IdSetTest, InsertReportsFirstArrivalOnly) {
  IdSet set;
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));
  // The all-ones id doubles as the table's free-slot marker.
  EXPECT_TRUE(set.insert(~0ULL));
  EXPECT_FALSE(set.insert(~0ULL));
  EXPECT_TRUE(set.insert(0));
  EXPECT_EQ(set.size(), 3u);
}

TEST(IdSetTest, GrowthKeepsEveryId) {
  IdSet set;
  constexpr std::uint64_t kCount = 10000;
  // Strided ids: clustered low bits must still spread over the table.
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_TRUE(set.insert(i * 64));
  EXPECT_EQ(set.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_FALSE(set.insert(i * 64));
  }
  EXPECT_EQ(set.size(), kCount);
}

// ---- BlockingQueue -----------------------------------------------------------

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.Push(i);
  for (int i = 0; i < 10; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BlockingQueueTest, TryPopEmptyReturnsNothing) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, CloseWakesBlockedPop) {
  BlockingQueue<int> q;
  std::thread t([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.Close();
  t.join();
}

TEST(BlockingQueueTest, PushAfterCloseRejected) {
  BlockingQueue<int> q;
  q.Close();
  EXPECT_FALSE(q.Push(1));
}

TEST(BlockingQueueTest, DrainsAfterClose) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BoundedBlocksProducer) {
  BlockingQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  std::atomic<bool> third_pushed{false};
  std::thread t([&] {
    q.Push(3);
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(third_pushed.load());
  (void)q.Pop();
  t.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(BlockingQueueTest, MpmcStress) {
  BlockingQueue<int> q;
  constexpr int kProducers = 4, kItems = 1000;
  std::atomic<long long> sum{0};
  std::vector<std::thread> producers, consumers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 1; i <= kItems; ++i) q.Push(i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) sum.fetch_add(*v);
    });
  }
  for (auto& p : producers) p.join();
  q.Close();
  for (auto& c : consumers) c.join();
  EXPECT_EQ(sum.load(),
            static_cast<long long>(kProducers) * kItems * (kItems + 1) / 2);
}

// ---- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesSubmittedWork) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, AsyncReturnsFutures) {
  ThreadPool pool(2);
  auto f1 = pool.Async([] { return 6 * 7; });
  auto f2 = pool.Async([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.Async([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

// ---- SpinLock / ResettableLatch -----------------------------------------------

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        std::lock_guard<SpinLock> lk(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(ResettableLatchTest, WaitsForCount) {
  ResettableLatch latch(3);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.Wait();
    released.store(true);
  });
  latch.CountDown();
  latch.CountDown();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(released.load());
  latch.CountDown();
  waiter.join();
  EXPECT_TRUE(released.load());
}

// ---- Partitioners ---------------------------------------------------------------

TEST(PartitionerTest, HashCoversAllShards) {
  HashPartitioner p(4);
  std::vector<int> counts(4, 0);
  for (NodeId n = 1; n <= 4000; ++n) {
    const ShardId s = p.Place(n, {}, {});
    ASSERT_LT(s, 4u);
    counts[s]++;
  }
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(PartitionerTest, HashIsDeterministic) {
  HashPartitioner p(8);
  for (NodeId n = 1; n <= 100; ++n) {
    EXPECT_EQ(p.Place(n, {}, {}), p.Place(n, {}, {}));
  }
}

TEST(PartitionerTest, LdgPrefersNeighborShard) {
  LdgPartitioner p(4, 1000);
  std::vector<std::size_t> loads(4, 10);
  // All placed neighbors on shard 2 and plenty of capacity there.
  const ShardId s = p.Place(42, {2, 2, 2}, loads);
  EXPECT_EQ(s, 2u);
}

TEST(PartitionerTest, LdgCapacityPenaltyRedirects) {
  LdgPartitioner p(2, 100);  // capacity ~51 per shard
  std::vector<std::size_t> loads = {51, 0};  // shard 0 full
  // Neighbors on shard 0, but it is at capacity: score 0 there; shard 1
  // has no neighbors (score 0) -- tie broken to least loaded = shard 1.
  const ShardId s = p.Place(7, {0, 0}, loads);
  EXPECT_EQ(s, 1u);
}

TEST(PartitionerTest, LdgBalancesWithoutNeighbors) {
  LdgPartitioner p(4, 10000);
  std::vector<std::size_t> loads(4, 0);
  for (NodeId n = 1; n <= 2000; ++n) {
    const ShardId s = p.Place(n, {}, loads);
    ASSERT_LT(s, 4u);
    loads[s]++;
  }
  for (std::size_t l : loads) {
    EXPECT_GT(l, 300u);
    EXPECT_LT(l, 700u);
  }
}

}  // namespace
}  // namespace weaver
