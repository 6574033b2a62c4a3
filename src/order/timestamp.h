// RefinableTimestamp: the ordering token attached to every transaction and
// node program (paper §3).
//
// A refinable timestamp is a vector clock snapshot taken by the issuing
// gatekeeper, plus the issuing gatekeeper's id and its local sequence
// number. Comparing two refinable timestamps uses the vector clocks; when
// the clocks are concurrent the pair must be "refined" by the timeline
// oracle (oracle/timeline_oracle.h). Timestamps from the same gatekeeper
// are always totally ordered by the local sequence number.
#pragma once

#include <cstdint>
#include <string>

#include "common/ids.h"
#include "common/serde.h"
#include "vclock/vclock.h"

namespace weaver {

struct RefinableTimestamp {
  VectorClock clock;
  GatekeeperId gatekeeper = 0;
  /// Value of the gatekeeper's own vector component when this timestamp was
  /// issued. Monotonic per (epoch, gatekeeper); gives FIFO order of the
  /// gatekeeper's transaction stream.
  std::uint64_t local_seq = 0;

  RefinableTimestamp() = default;
  RefinableTimestamp(VectorClock c, GatekeeperId gk, std::uint64_t seq)
      : clock(std::move(c)), gatekeeper(gk), local_seq(seq) {}

  bool valid() const { return clock.width() > 0; }

  /// Globally unique event identifier used by the timeline oracle:
  /// epoch (16 bits) | gatekeeper (16 bits) | local sequence (32 bits).
  EventId event_id() const {
    return (static_cast<std::uint64_t>(clock.epoch() & 0xffff) << 48) |
           (static_cast<std::uint64_t>(gatekeeper & 0xffff) << 32) |
           (local_seq & 0xffffffffULL);
  }

  /// Vector-clock comparison (the proactive stage). kConcurrent means the
  /// pair needs oracle refinement.
  ///
  /// Precondition: timestamps are issued causally -- a gatekeeper's clock
  /// only grows (ticks and announce merges), so a later timestamp from the
  /// same gatekeeper dominates an earlier one component-wise. This makes
  /// the same-issuer sequence shortcut below consistent with clock order.
  ClockOrder Compare(const RefinableTimestamp& other) const {
    if (gatekeeper == other.gatekeeper &&
        clock.epoch() == other.clock.epoch()) {
      // Same issuer: the local sequence is a total order.
      if (local_seq == other.local_seq) return ClockOrder::kEqual;
      return local_seq < other.local_seq ? ClockOrder::kBefore
                                         : ClockOrder::kAfter;
    }
    return clock.Compare(other.clock);
  }

  bool HappensBefore(const RefinableTimestamp& other) const {
    return Compare(other) == ClockOrder::kBefore;
  }
  bool ConcurrentWith(const RefinableTimestamp& other) const {
    return Compare(other) == ClockOrder::kConcurrent;
  }

  bool operator==(const RefinableTimestamp& other) const {
    return gatekeeper == other.gatekeeper && local_seq == other.local_seq &&
           clock == other.clock;
  }

  std::string ToString() const {
    return "T[gk" + std::to_string(gatekeeper) + "#" +
           std::to_string(local_seq) + " " + clock.ToString() + "]";
  }

  void Serialize(ByteWriter* w) const {
    clock.Serialize(w);
    w->PutU32(gatekeeper);
    w->PutU64(local_seq);
  }
  static Status Deserialize(ByteReader* r, RefinableTimestamp* out) {
    WEAVER_RETURN_IF_ERROR(VectorClock::Deserialize(r, &out->clock));
    WEAVER_RETURN_IF_ERROR(r->GetU32(&out->gatekeeper));
    WEAVER_RETURN_IF_ERROR(r->GetU64(&out->local_seq));
    return Status::Ok();
  }
  /// Advances `r` past one serialized timestamp without decoding it.
  static Status Skip(ByteReader* r) {
    WEAVER_RETURN_IF_ERROR(VectorClock::Skip(r));
    return r->Skip(sizeof(GatekeeperId) + sizeof(std::uint64_t));
  }
};

}  // namespace weaver
