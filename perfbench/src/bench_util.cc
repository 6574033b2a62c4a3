#include "bench_util.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  Sort();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v_.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v_.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v_[idx];
}

bool Samples::Supports(double p) const {
  return static_cast<double>(v_.size()) * (100.0 - p) / 100.0 >= 10.0;
}

double Samples::Max() const {
  if (v_.empty()) return 0;
  Sort();
  return v_.back();
}

double Samples::Mean() const {
  if (v_.empty()) return 0;
  double sum = 0;
  for (double x : v_) sum += x;
  return sum / static_cast<double>(v_.size());
}

std::uint64_t Samples::CountAbove(double limit) const {
  return static_cast<std::uint64_t>(
      std::count_if(v_.begin(), v_.end(), [limit](double x) { return x > limit; }));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

double MetricTable::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0;
}

std::string MetricTable::ToJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(entries_[i].name) + ": {\"value\": " +
           JsonNumber(entries_[i].value) +
           ", \"unit\": " + JsonString(entries_[i].unit) + "}";
  }
  return out + "}";
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer* SpanLog::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->spans.reserve(1 << 14);
  }
  return buffer;
}

void SpanLog::Record(std::uint64_t request, const char* name,
                     std::uint64_t start_ns, std::uint64_t end_ns) {
  ThreadBuffer()->spans.push_back(Span{request, name, start_ns, end_ns});
}

std::vector<SpanLog::Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Collect()) {
    std::fprintf(f,
                 "{\"request\": %llu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu}\n",
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double CpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
