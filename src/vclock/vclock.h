// Epoch-tagged vector clocks (Fidge/Mattern), the proactive half of
// refinable timestamps (paper §3.3).
//
// Each gatekeeper maintains one VectorClock with as many counters as there
// are gatekeepers. A gatekeeper increments its own component per client
// request and merges announce messages from peers every tau microseconds.
// The epoch field supports gatekeeper fail-over (paper §4.3): the cluster
// manager bumps the epoch when a gatekeeper is replaced, and any clock in a
// later epoch orders after every clock of an earlier epoch, so a restarted
// gatekeeper may restart its counters without violating monotonicity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"

namespace weaver {

/// Outcome of comparing two vector clocks.
enum class ClockOrder : std::uint8_t {
  kEqual = 0,
  kBefore,      // lhs happens-before rhs
  kAfter,       // rhs happens-before lhs
  kConcurrent,  // incomparable: refinement by the timeline oracle needed
};

class VectorClock {
 public:
  VectorClock() = default;
  /// Zero clock with `width` components in epoch 0.
  explicit VectorClock(std::size_t width) : counters_(width, 0) {}
  VectorClock(std::uint32_t epoch, std::vector<std::uint64_t> counters)
      : epoch_(epoch), counters_(std::move(counters)) {}

  std::uint32_t epoch() const { return epoch_; }
  std::size_t width() const { return counters_.size(); }
  std::uint64_t Component(std::size_t i) const { return counters_[i]; }
  const std::vector<std::uint64_t>& counters() const { return counters_; }

  /// Increment this clock's own component (gatekeeper `self` issued a new
  /// timestamp). Returns the new component value.
  std::uint64_t Tick(std::size_t self) { return ++counters_[self]; }

  /// Pointwise max with `other` (processing a peer announce). Clocks must
  /// have the same width and epoch; merging across epochs is a cluster-
  /// manager bug and is ignored for older epochs.
  void Merge(const VectorClock& other);

  /// Moves this clock into `epoch`, zeroing all counters. Used when a
  /// backup gatekeeper takes over (paper §4.3).
  void AdvanceEpoch(std::uint32_t epoch);

  /// Happens-before comparison. Clocks from an older epoch order before
  /// clocks from a newer epoch unconditionally.
  ClockOrder Compare(const VectorClock& other) const;

  /// True iff Compare(other) == kBefore.
  bool HappensBefore(const VectorClock& other) const {
    return Compare(other) == ClockOrder::kBefore;
  }
  /// True iff the two clocks are incomparable.
  bool ConcurrentWith(const VectorClock& other) const {
    return Compare(other) == ClockOrder::kConcurrent;
  }

  /// Sum of all components; a cheap scalar used only for diagnostics and
  /// deterministic tie-breaking in tests (never for correctness).
  std::uint64_t Magnitude() const;

  bool operator==(const VectorClock& other) const {
    return epoch_ == other.epoch_ && counters_ == other.counters_;
  }

  std::string ToString() const;

  void Serialize(ByteWriter* w) const;
  static Status Deserialize(ByteReader* r, VectorClock* out);
  /// Advances `r` past one serialized clock without decoding it.
  static Status Skip(ByteReader* r);

 private:
  std::uint32_t epoch_ = 0;
  std::vector<std::uint64_t> counters_;
};

/// Inverts an order: kBefore <-> kAfter.
inline ClockOrder FlipOrder(ClockOrder o) {
  switch (o) {
    case ClockOrder::kBefore:
      return ClockOrder::kAfter;
    case ClockOrder::kAfter:
      return ClockOrder::kBefore;
    default:
      return o;
  }
}

const char* ClockOrderName(ClockOrder o);

}  // namespace weaver
