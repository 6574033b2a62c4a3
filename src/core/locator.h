// NodeLocator: vertex -> shard directory.
//
// The authoritative mapping lives in the backing store (paper §3.2: "the
// backing store directs transactions on a vertex to the shard server
// responsible for that vertex"); this is the in-memory cache all request
// routing goes through, with a read-through fallback to the store.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/ids.h"
#include "common/sync.h"
#include "core/node_program.h"
#include "kvstore/kvstore.h"

namespace weaver {

class NodeLocator {
 public:
  NodeLocator(KvStore* kv, std::size_t num_shards)
      : kv_(kv), loads_(num_shards, 0) {}

  /// Directory for a process with no backing store (remote shard-server
  /// processes, docs/transport.md): unknown vertices resolve through
  /// `default_placement` instead of a kv read-through. Only sound for
  /// deployments using deterministic (hash) placement -- the deployment
  /// enforces that before handing out this mode.
  NodeLocator(std::size_t num_shards,
              std::function<ShardId(NodeId)> default_placement)
      : kv_(nullptr),
        default_placement_(std::move(default_placement)),
        loads_(num_shards, 0) {}

  /// Shard of `node`, or nullopt if the vertex is unknown.
  std::optional<ShardId> Lookup(NodeId node) const EXCLUDES(mu_) {
    {
      ReaderLock lk(mu_);
      auto it = map_.find(node);
      if (it != map_.end()) return it->second;
    }
    if (kv_ == nullptr) {
      if (default_placement_) return default_placement_(node);
      return std::nullopt;
    }
    // Read-through to the backing store (another client may have created
    // the vertex).
    auto blob = kv_->Get(kv_keys::VertexShardMap(node));
    if (!blob.ok()) return std::nullopt;
    const ShardId shard =
        static_cast<ShardId>(std::strtoul(blob->c_str(), nullptr, 10));
    const_cast<NodeLocator*>(this)->Record(node, shard);
    return shard;
  }

  /// Owners of a whole fan-out: `(*out)[i]` is Lookup(hops[i].node). The
  /// directory hits resolve under ONE reader lock instead of one per hop;
  /// only misses fall back to Lookup's read-through, after the lock is
  /// gone.
  void LookupMany(const std::vector<NextHop>& hops,
                  std::vector<std::optional<ShardId>>* out) const
      EXCLUDES(mu_) {
    out->clear();
    if (hops.empty()) return;
    bool missed = false;
    {
      ReaderLock lk(mu_);
      for (const auto& hop : hops) {
        auto it = map_.find(hop.node);
        if (it != map_.end()) {
          out->emplace_back(it->second);
        } else {
          out->emplace_back();
          missed = true;
        }
      }
    }
    if (!missed) return;
    std::size_t i = 0;
    for (const auto& hop : hops) {
      if (!(*out)[i].has_value()) (*out)[i] = Lookup(hop.node);
      ++i;
    }
  }

  void Record(NodeId node, ShardId shard) {
    WriterLock lk(mu_);
    auto [it, inserted] = map_.try_emplace(node, shard);
    if (inserted && shard < loads_.size()) loads_[shard]++;
  }

  /// Vertex count per shard (partitioner input).
  std::vector<std::size_t> ShardLoads() const {
    ReaderLock lk(mu_);
    return loads_;
  }

  std::size_t Size() const {
    ReaderLock lk(mu_);
    return map_.size();
  }

 private:
  KvStore* kv_;
  std::function<ShardId(NodeId)> default_placement_;
  mutable SharedMutex mu_;
  std::unordered_map<NodeId, ShardId> map_ GUARDED_BY(mu_);
  std::vector<std::size_t> loads_ GUARDED_BY(mu_);
};

}  // namespace weaver
