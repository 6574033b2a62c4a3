#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace perfbench {

std::uint64_t NextRequestId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// The generator fell behind when it was late on a typical request, or
/// stalled outright: late sends are still timed from their due time, so
/// brief scheduling jitter only costs latency, not validity.
constexpr double kMaxLatenessP50Ms = 1.0;
constexpr double kMaxLatenessMs = 100.0;

void SleepUntilNs(std::uint64_t due_ns) {
  const std::uint64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

}  // namespace

bool OpenLoopResult::Valid(std::string* why) const {
  if (lateness_ms.Percentile(50) > kMaxLatenessP50Ms ||
      lateness_ms.Max() > kMaxLatenessMs) {
    *why = "generator fell behind its schedule (lateness p50 " +
           JsonNumber(lateness_ms.Percentile(50)) + " ms, max " +
           JsonNumber(lateness_ms.Max()) + " ms)";
    return false;
  }
  if (backlog.size() >= 2) {
    // A backlog worth more than a tenth of a second of offered load that
    // is larger at the end than after the first window is growing.
    const double limit =
        std::max(64.0, static_cast<double>(attempted) / seconds * 0.1);
    if (static_cast<double>(backlog.back()) > limit &&
        backlog.back() > backlog.front()) {
      *why = "backlog grew across windows (" +
             std::to_string(backlog.front()) + " -> " +
             std::to_string(backlog.back()) + " outstanding)";
      return false;
    }
  }
  return true;
}

OpenLoopResult RunOpenLoop(const std::vector<weaver::Session*>& sessions,
                           const OpenLoopOptions& options,
                           const IssueFn& issue) {
  struct Item {
    std::uint64_t due_ns;
    Request request;
  };
  struct Record {
    OpKind kind;
    bool ok;
    double latency_ms;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;
  bool closed = false;
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::vector<Record>> records(options.waiters);

  std::vector<std::thread> waiters;
  for (int w = 0; w < options.waiters; ++w) {
    waiters.emplace_back([&, w] {
      while (true) {
        Item item;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          item = std::move(queue.front());
          queue.pop_front();
        }
        const bool ok = item.request.finish();
        const double ms = static_cast<double>(NowNs() - item.due_ns) / 1e6;
        records[w].push_back(Record{item.request.kind, ok, ms});
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  OpenLoopResult out;
  const std::uint64_t interval_ns =
      static_cast<std::uint64_t>(1e9 / options.rate);
  const std::uint64_t total =
      static_cast<std::uint64_t>(options.rate * options.seconds);
  const std::uint64_t per_window =
      std::max<std::uint64_t>(1, total / options.windows);
  const std::uint64_t t0 = NowNs() + 1'000'000;
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t due = t0 + i * interval_ns;
    SleepUntilNs(due);
    out.lateness_ms.Add(static_cast<double>(NowNs() - due) / 1e6);
    if (i > 0 && i % per_window == 0) {
      out.backlog.push_back(i - completed.load(std::memory_order_relaxed));
    }
    Request request =
        issue(*sessions[i % sessions.size()], NextRequestId());
    {
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back(Item{due, std::move(request)});
    }
    cv.notify_one();
  }
  out.backlog.push_back(total - completed.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lk(mu);
    closed = true;
  }
  cv.notify_all();
  for (auto& t : waiters) t.join();
  out.seconds = static_cast<double>(NowNs() - t0) / 1e9;

  for (const auto& per_waiter : records) {
    for (const Record& r : per_waiter) {
      const int k = static_cast<int>(r.kind);
      ++out.attempted;
      if (!r.ok) {
        ++out.failed;
        ++out.slo_misses;
        continue;
      }
      out.latency[k].Add(r.latency_ms);
      if (r.latency_ms > options.slo_ms[k]) ++out.slo_misses;
    }
  }
  return out;
}

double BoundedResult::MedianWindowRate(int windows) const {
  const double slice_ns = seconds * 1e9 / windows;
  std::vector<double> counts(windows, 0);
  for (std::uint64_t t : done_ns) {
    const auto w = static_cast<int>(static_cast<double>(t - start_ns) / slice_ns);
    if (w >= 0 && w < windows) counts[w] += 1;
  }
  for (double& c : counts) c /= slice_ns / 1e9;
  return Median(std::move(counts));
}

BoundedResult RunBounded(const std::vector<weaver::Session*>& sessions,
                         int inflight, double seconds, const IssueFn& issue) {
  std::atomic<bool> stop{false};
  std::vector<BoundedResult> per_thread(sessions.size());
  std::vector<std::thread> threads;
  const std::uint64_t t0 = NowNs();
  for (std::size_t d = 0; d < sessions.size(); ++d) {
    threads.emplace_back([&, d] {
      BoundedResult& r = per_thread[d];
      std::deque<std::pair<std::uint64_t, Request>> window;
      auto complete = [&](bool counted) {
        auto [start, request] = std::move(window.front());
        window.pop_front();
        const bool ok = request.finish();
        ++r.attempted;
        if (!ok) {
          ++r.failed;
        } else if (counted) {
          const std::uint64_t now = NowNs();
          ++r.ok;
          r.done_ns.push_back(now);
          r.latency[static_cast<int>(request.kind)].Add(
              static_cast<double>(now - start) / 1e6);
        }
      };
      while (!stop.load(std::memory_order_relaxed)) {
        while (window.size() < static_cast<std::size_t>(inflight)) {
          const std::uint64_t start = NowNs();
          window.emplace_back(start, issue(*sessions[d], NextRequestId()));
        }
        complete(true);
      }
      while (!window.empty()) complete(false);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  const double elapsed = SecondsSince(t0);
  for (auto& t : threads) t.join();

  BoundedResult out;
  out.seconds = elapsed;
  out.start_ns = t0;
  for (const BoundedResult& r : per_thread) {
    out.done_ns.insert(out.done_ns.end(), r.done_ns.begin(), r.done_ns.end());
    out.attempted += r.attempted;
    out.ok += r.ok;
    out.failed += r.failed;
    for (int k = 0; k < kNumOpKinds; ++k) out.latency[k].Append(r.latency[k]);
  }
  return out;
}

}  // namespace perfbench
