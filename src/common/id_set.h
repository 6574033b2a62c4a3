// IdSet: a set of 64-bit ids in one flat open-addressing table.
//
// Inserting a new id stores it in place: there is no per-element node
// allocation, only the table's amortized doubling. An insert probes
// linearly from a SplitMix64-scrambled home slot, so clustered ids
// (sequentially allocated vertex handles) still spread evenly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"

namespace weaver {

class IdSet {
 public:
  /// Adds `id`; true iff it was not already present.
  bool insert(std::uint64_t id) {
    if (id == kEmpty) {
      if (has_empty_id_) return false;
      has_empty_id_ = true;
      ++size_;
      return true;
    }
    // Keep the load factor at or below 3/4.
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    std::size_t i = MixHash64(id) & (slots_.size() - 1);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == id) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = id;
    ++size_;
    return true;
  }

  std::size_t size() const { return size_; }

 private:
  /// Marks a free slot; the id itself is tracked by `has_empty_id_`.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  void Grow() {
    std::vector<std::uint64_t> old(slots_.empty() ? 16 : slots_.size() * 2,
                                   kEmpty);
    old.swap(slots_);
    for (const std::uint64_t id : old) {
      if (id == kEmpty) continue;
      std::size_t i = MixHash64(id) & (slots_.size() - 1);
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = id;
    }
  }

  std::vector<std::uint64_t> slots_;  // power-of-two size (or empty)
  std::size_t size_ = 0;
  bool has_empty_id_ = false;
};

}  // namespace weaver
