#include "vclock/vclock.h"

#include <algorithm>
#include <cassert>

namespace weaver {

void VectorClock::Merge(const VectorClock& other) {
  assert(other.width() == width());
  if (other.epoch_ < epoch_) return;  // stale pre-failover announce
  if (other.epoch_ > epoch_) {
    // We lag behind a cluster reconfiguration; adopt the new epoch.
    AdvanceEpoch(other.epoch_);
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = std::max(counters_[i], other.counters_[i]);
  }
}

void VectorClock::AdvanceEpoch(std::uint32_t epoch) {
  assert(epoch > epoch_);
  epoch_ = epoch;
  std::fill(counters_.begin(), counters_.end(), 0);
}

ClockOrder VectorClock::Compare(const VectorClock& other) const {
  if (epoch_ != other.epoch_) {
    return epoch_ < other.epoch_ ? ClockOrder::kBefore : ClockOrder::kAfter;
  }
  assert(width() == other.width());
  bool some_less = false;
  bool some_greater = false;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] < other.counters_[i]) some_less = true;
    if (counters_[i] > other.counters_[i]) some_greater = true;
  }
  if (some_less && some_greater) return ClockOrder::kConcurrent;
  if (some_less) return ClockOrder::kBefore;
  if (some_greater) return ClockOrder::kAfter;
  return ClockOrder::kEqual;
}

std::uint64_t VectorClock::Magnitude() const {
  std::uint64_t sum = 0;
  for (auto c : counters_) sum += c;
  return sum;
}

std::string VectorClock::ToString() const {
  std::string out = "e" + std::to_string(epoch_) + "<";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(counters_[i]);
  }
  out += ">";
  return out;
}

void VectorClock::Serialize(ByteWriter* w) const {
  w->PutU32(epoch_);
  w->PutU32(static_cast<std::uint32_t>(counters_.size()));
  for (auto c : counters_) w->PutU64(c);
}

Status VectorClock::Deserialize(ByteReader* r, VectorClock* out) {
  std::uint32_t epoch = 0;
  std::uint32_t width = 0;
  WEAVER_RETURN_IF_ERROR(r->GetU32(&epoch));
  WEAVER_RETURN_IF_ERROR(r->GetU32(&width));
  std::vector<std::uint64_t> counters(width, 0);
  for (auto& c : counters) {
    WEAVER_RETURN_IF_ERROR(r->GetU64(&c));
  }
  *out = VectorClock(epoch, std::move(counters));
  return Status::Ok();
}

Status VectorClock::Skip(ByteReader* r) {
  std::uint32_t epoch = 0;
  std::uint32_t width = 0;
  WEAVER_RETURN_IF_ERROR(r->GetU32(&epoch));
  WEAVER_RETURN_IF_ERROR(r->GetU32(&width));
  return r->Skip(std::size_t{width} * sizeof(std::uint64_t));
}

const char* ClockOrderName(ClockOrder o) {
  switch (o) {
    case ClockOrder::kEqual:
      return "EQUAL";
    case ClockOrder::kBefore:
      return "BEFORE";
    case ClockOrder::kAfter:
      return "AFTER";
    case ClockOrder::kConcurrent:
      return "CONCURRENT";
  }
  return "?";
}

}  // namespace weaver
