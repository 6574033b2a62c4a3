// Shared plumbing for the repository benchmark: clocks, exact sample
// percentiles, the metric table the runner prints, the bench's own span
// log, and /proc readers for the processes a workload spawns.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

std::uint64_t NowNs();
double SecondsSince(std::uint64_t start_ns);

/// Raw latency samples (milliseconds). Percentiles are exact order
/// statistics over every sample, never bucketed.
class Samples {
 public:
  void Add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  /// True when at least ten samples lie beyond the p-th percentile -- the
  /// rule for which tail a sample count may report.
  bool Supports(double p) const;
  double Max() const;
  double Mean() const;
  std::uint64_t CountAbove(double limit) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
  void Sort() const;
};

/// Median of a small list (e.g. per-window p99s); 0 when empty.
double Median(std::vector<double> values);

/// Shortest decimal text that reads back as exactly `v` (JSON number).
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);

/// Named metrics with units, printed in insertion order.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The benchmark's own spans: one around every public call the bench
/// makes into the system, all spans of one request sharing its id.
/// Recording is a push onto a per-thread buffer; the buffers are kept in
/// memory and written once when the run ends.
class SpanLog {
 public:
  struct Span {
    std::uint64_t request = 0;
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  static SpanLog& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Record(std::uint64_t request, const char* name, std::uint64_t start_ns,
              std::uint64_t end_ns);
  /// Every span recorded so far, across threads.
  std::vector<Span> Collect() const;
  /// Writes one JSON object per line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one call into the system as a span of `request` (no-op when the
/// span log is off).
class ScopedSpan {
 public:
  ScopedSpan(std::uint64_t request, const char* name)
      : request_(request),
        name_(name),
        start_(SpanLog::Get().enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (start_ != 0) SpanLog::Get().Record(request_, name_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t request_;
  const char* name_;
  std::uint64_t start_;
};

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// User + system CPU of `pid` in milliseconds; 0 when unreadable.
double CpuMs(pid_t pid);

}  // namespace perfbench
