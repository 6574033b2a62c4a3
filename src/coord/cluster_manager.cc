#include "coord/cluster_manager.h"

#include <algorithm>

namespace weaver {

void ClusterManager::Register(std::string name, ServerKind kind,
                              std::uint32_t index) {
  MutexLock lk(mu_);
  Member m;
  m.name = name;
  m.kind = kind;
  m.index = index;
  members_[std::move(name)] = std::move(m);
}

void ClusterManager::MarkFailed(const std::string& name) {
  MutexLock lk(mu_);
  auto it = members_.find(name);
  if (it != members_.end()) it->second.alive = false;
}

void ClusterManager::MarkRecovered(const std::string& name) {
  MutexLock lk(mu_);
  auto it = members_.find(name);
  if (it != members_.end()) it->second.alive = true;
}

bool ClusterManager::IsAlive(const std::string& name) const {
  MutexLock lk(mu_);
  auto it = members_.find(name);
  return it != members_.end() && it->second.alive;
}

std::vector<ClusterManager::Member> ClusterManager::Members() const {
  MutexLock lk(mu_);
  std::vector<Member> out;
  out.reserve(members_.size());
  for (const auto& [_, m] : members_) out.push_back(m);
  std::sort(out.begin(), out.end(),
            [](const Member& a, const Member& b) { return a.name < b.name; });
  return out;
}

void ClusterManager::RestoreEpoch(std::uint32_t epoch) {
  MutexLock lk(mu_);
  epoch_ = std::max(epoch_, epoch);
}

void ClusterManager::SetEpochPersist(
    std::function<Status(std::uint32_t)> persist) {
  MutexLock lk(mu_);
  persist_epoch_ = std::move(persist);
}

Result<std::uint32_t> ClusterManager::AdvanceEpochBarrier(
    const std::vector<Gatekeeper*>& gatekeepers) {
  // Lock every gatekeeper clock in a canonical order (their bank index),
  // so concurrent barriers cannot deadlock.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(gatekeepers.size());
  for (Gatekeeper* gk : gatekeepers) {
    locks.emplace_back(gk->clock_mutex().native());
  }
  std::uint32_t new_epoch;
  std::function<Status(std::uint32_t)> persist;
  {
    MutexLock lk(mu_);
    new_epoch = epoch_ + 1;
    persist = persist_epoch_;
  }
  // Persist before any gatekeeper can issue a new-epoch timestamp: were
  // the bump volatile, a crash after this barrier could reboot into an
  // epoch that already stamped data, breaking timestamp monotonicity. A
  // failed persist therefore aborts the whole barrier (the gatekeeper
  // clock locks are still held, so nothing observed the candidate epoch).
  if (persist) {
    const Status persisted = persist(new_epoch);
    if (!persisted.ok()) return persisted;
  }
  {
    MutexLock lk(mu_);
    epoch_ = new_epoch;
  }
  for (Gatekeeper* gk : gatekeepers) {
    gk->AdvanceEpochLocked(new_epoch);
  }
  return new_epoch;
}

}  // namespace weaver
