// ClusterManager: membership and epoch reconfiguration
// (paper §3.2, §4.3).
//
// Servers register on boot; the shard supervisor (coord/supervisor.h)
// detects deaths and marks members failed and recovered. When a gatekeeper
// is replaced, its vector clock restarts, so the cluster manager bumps the
// deployment epoch and imposes a barrier: every gatekeeper moves to the
// new epoch in unison (all clock locks are held across the bump), which
// keeps timestamps monotonic across the failure (old-epoch timestamps
// order before all new-epoch timestamps).
//
// The paper deploys the cluster manager (and the timeline oracle) as
// Paxos-replicated state machines; in this single-process reproduction it
// is an always-available component -- the replication substrate is out of
// scope, but every protocol-visible behavior (membership, epoch barrier)
// is implemented.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/ids.h"
#include "common/sync.h"
#include "common/result.h"
#include "order/gatekeeper.h"

namespace weaver {

enum class ServerKind : std::uint8_t { kGatekeeper, kShard };

class ClusterManager {
 public:
  struct Member {
    std::string name;
    ServerKind kind = ServerKind::kShard;
    std::uint32_t index = 0;
    bool alive = true;
  };

  /// Registers a booting server as alive.
  void Register(std::string name, ServerKind kind, std::uint32_t index);

  /// Explicitly marks a member failed (fault injection) / recovered.
  void MarkFailed(const std::string& name);
  void MarkRecovered(const std::string& name);

  bool IsAlive(const std::string& name) const;
  std::vector<Member> Members() const;

  std::uint32_t current_epoch() const {
    MutexLock lk(mu_);
    return epoch_;
  }

  /// Adopts an epoch restored from durable storage at boot (before any
  /// gatekeeper exists). A rebooted deployment restarts one epoch past the
  /// one it crashed in, so every new timestamp orders after every
  /// persisted pre-crash timestamp -- the same monotonicity argument as
  /// gatekeeper replacement, applied to whole-deployment failure.
  void RestoreEpoch(std::uint32_t epoch);

  /// Installs the durable-storage hook invoked (outside mu_) with every
  /// new epoch so epoch bumps survive restarts. A failing hook aborts the
  /// epoch barrier: stamping data in an epoch that was never made durable
  /// would break timestamp monotonicity across the next restart.
  void SetEpochPersist(std::function<Status(std::uint32_t)> persist);

  /// Epoch barrier (paper §4.3): acquires every gatekeeper's clock lock,
  /// bumps the epoch everywhere, then releases. No timestamp in the new
  /// epoch can be issued until all gatekeepers have advanced, and no
  /// old-epoch timestamp can be issued after any new-epoch one. Fails
  /// (leaving the epoch unchanged) only when the persist hook fails.
  // ts_unchecked: acquires every gatekeeper's clock lock through a
  // dynamic std::unique_lock vector (a runtime-sized lock bank, taken in
  // canonical bank order), which the analysis cannot model.
  Result<std::uint32_t> AdvanceEpochBarrier(
      const std::vector<Gatekeeper*>& gatekeepers) NO_THREAD_SAFETY_ANALYSIS;

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, Member> members_ GUARDED_BY(mu_);
  std::uint32_t epoch_ GUARDED_BY(mu_) = 0;
  std::function<Status(std::uint32_t)> persist_epoch_ GUARDED_BY(mu_);
};

}  // namespace weaver
