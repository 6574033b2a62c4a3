#include "oracle/timeline_oracle.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>

namespace weaver {

void TimelineOracle::CreateEvent(const RefinableTimestamp& ts) {
  WaitForCollectors();
  WriterLock lk(mu_);
  FindOrCreate(ts);
}

const TimelineOracle::EventNode* TimelineOracle::Find(EventId id) const {
  auto it = events_.find(id);
  return it == events_.end() ? nullptr : &it->second;
}

TimelineOracle::EventNode* TimelineOracle::FindOrCreate(
    const RefinableTimestamp& ts) {
  auto [it, inserted] = events_.try_emplace(ts.event_id());
  if (inserted) it->second.ts = ts;
  return &it->second;
}

bool TimelineOracle::Reaches(const RefinableTimestamp& from,
                             const RefinableTimestamp& to) const {
  // BFS over explicit edges; from every visited event (and from the start
  // timestamp itself, which need not be registered) we may additionally
  // take a vector-clock hop to any live event whose clock dominates it.
  // Clock-implied relations compose transitively among themselves, and a
  // clock hop into `to` is checked directly, so alternating
  // explicit/implied paths are found even when `from` or `to` was never
  // registered in the dependency graph.
  std::deque<const EventNode*> frontier;
  std::unordered_set<EventId> visited;
  visited.insert(from.event_id());
  // Minimal clocks already expanded. A clock after or equal to one of them
  // has no new hop targets: by transitivity of Compare (the causal
  // precondition in order/timestamp.h) whatever dominates it dominates the
  // expanded clock too, so it is already visited or enqueued.
  std::vector<const RefinableTimestamp*> expanded;
  auto expand_clock_hops = [&](const RefinableTimestamp& ts) {
    for (const RefinableTimestamp* e : expanded) {
      const ClockOrder o = e->Compare(ts);
      if (o == ClockOrder::kBefore || o == ClockOrder::kEqual) return;
    }
    std::erase_if(expanded, [&](const RefinableTimestamp* e) {
      return ts.Compare(*e) == ClockOrder::kBefore;
    });
    expanded.push_back(&ts);
    // Only events with explicit out-edges are useful as hop targets (a hop
    // to a sink either hits `to` -- checked directly -- or dead-ends).
    for (const auto& [id, node] : events_) {
      if (node.succ.empty() || visited.count(id)) continue;
      if (ts.Compare(node.ts) == ClockOrder::kBefore) {
        visited.insert(id);
        frontier.push_back(&node);
      }
    }
  };
  if (const EventNode* start = Find(from.event_id())) {
    frontier.push_back(start);
  } else {
    expand_clock_hops(from);
  }
  while (!frontier.empty()) {
    const EventNode* cur = frontier.front();
    frontier.pop_front();
    if (cur->ts.event_id() != from.event_id()) {
      // A clock hop may land exactly on `to`, or on an event that precedes
      // it by clocks; both complete a path.
      if (cur->ts.event_id() == to.event_id() ||
          cur->ts.Compare(to) == ClockOrder::kBefore) {
        return true;
      }
    }
    for (EventId next_id : cur->succ) {
      if (next_id == to.event_id()) return true;
      if (!visited.insert(next_id).second) continue;
      const EventNode* next = Find(next_id);
      if (next != nullptr) frontier.push_back(next);
    }
    expand_clock_hops(cur->ts);
  }
  return false;
}

ClockOrder TimelineOracle::ResolveLocked(const RefinableTimestamp& a,
                                         const RefinableTimestamp& b) const {
  const ClockOrder by_clock = a.Compare(b);
  if (by_clock != ClockOrder::kConcurrent) return by_clock;
  if (Reaches(a, b)) return ClockOrder::kBefore;
  if (Reaches(b, a)) return ClockOrder::kAfter;
  return ClockOrder::kConcurrent;
}

ClockOrder TimelineOracle::QueryOrder(const RefinableTimestamp& a,
                                      const RefinableTimestamp& b) {
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  const ClockOrder by_clock = a.Compare(b);
  if (by_clock != ClockOrder::kConcurrent) {
    stats_.vclock_resolved.fetch_add(1, std::memory_order_relaxed);
    return by_clock;
  }
  WaitForCollectors();
  ReaderLock lk(mu_);
  const ClockOrder o = ResolveLocked(a, b);
  if (o != ClockOrder::kConcurrent) {
    stats_.dag_resolved.fetch_add(1, std::memory_order_relaxed);
  }
  return o;
}

ClockOrder TimelineOracle::OrderPair(const RefinableTimestamp& a,
                                     const RefinableTimestamp& b,
                                     OrderPreference prefer) {
  stats_.order_requests.fetch_add(1, std::memory_order_relaxed);
  const ClockOrder by_clock = a.Compare(b);
  if (by_clock != ClockOrder::kConcurrent) {
    stats_.vclock_resolved.fetch_add(1, std::memory_order_relaxed);
    return by_clock;
  }
  WaitForCollectors();
  WriterLock lk(mu_);
  const ClockOrder existing = ResolveLocked(a, b);
  if (existing != ClockOrder::kConcurrent) {
    stats_.dag_resolved.fetch_add(1, std::memory_order_relaxed);
    return existing;
  }
  // No order exists: establish one per the caller's preference. This
  // decision is irrevocable (it becomes an edge in the dependency DAG).
  EventNode* ea = FindOrCreate(a);
  EventNode* eb = FindOrCreate(b);
  EventNode* first = prefer == OrderPreference::kPreferFirst ? ea : eb;
  EventNode* second = prefer == OrderPreference::kPreferFirst ? eb : ea;
  first->succ.insert(second->ts.event_id());
  second->pred.insert(first->ts.event_id());
  stats_.edges_established.fetch_add(1, std::memory_order_relaxed);
  return prefer == OrderPreference::kPreferFirst ? ClockOrder::kBefore
                                                 : ClockOrder::kAfter;
}

Status TimelineOracle::AssignHappensBefore(const RefinableTimestamp& before,
                                           const RefinableTimestamp& after) {
  stats_.order_requests.fetch_add(1, std::memory_order_relaxed);
  WaitForCollectors();
  WriterLock lk(mu_);
  const ClockOrder existing = ResolveLocked(before, after);
  if (existing == ClockOrder::kBefore || existing == ClockOrder::kEqual) {
    return Status::Ok();  // already implied
  }
  if (existing == ClockOrder::kAfter) {
    return Status::FailedPrecondition(
        "happens-before assignment would create a cycle: " +
        after.ToString() + " already precedes " + before.ToString());
  }
  EventNode* eb = FindOrCreate(before);
  EventNode* ea = FindOrCreate(after);
  eb->succ.insert(ea->ts.event_id());
  ea->pred.insert(eb->ts.event_id());
  stats_.edges_established.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void TimelineOracle::WaitForCollectors() const {
  for (std::uint32_t n = collectors_waiting_.load(); n != 0;
       n = collectors_waiting_.load()) {
    collectors_waiting_.wait(n);
  }
}

void TimelineOracle::CollectBefore(const VectorClock& watermark) {
  collectors_waiting_.fetch_add(1);
  {
    WriterLock lk(mu_);
    CollectLocked(watermark);
  }
  collectors_waiting_.fetch_sub(1);
  collectors_waiting_.notify_all();
}

void TimelineOracle::CollectLocked(const VectorClock& watermark) {
  std::vector<EventId> dead;
  for (const auto& [id, node] : events_) {
    if (node.ts.clock.Compare(watermark) == ClockOrder::kBefore) {
      dead.push_back(id);
    }
  }
  for (EventId id : dead) {
    auto it = events_.find(id);
    if (it == events_.end()) continue;
    EventNode& node = it->second;
    // Preserve transitive commitments between survivors: connect every
    // predecessor to every successor before removing the event.
    for (EventId p : node.pred) {
      auto pit = events_.find(p);
      if (pit == events_.end()) continue;
      pit->second.succ.erase(id);
      for (EventId s : node.succ) {
        if (s == p) continue;
        pit->second.succ.insert(s);
        auto sit = events_.find(s);
        if (sit != events_.end()) sit->second.pred.insert(p);
      }
    }
    for (EventId s : node.succ) {
      auto sit = events_.find(s);
      if (sit == events_.end()) continue;
      sit->second.pred.erase(id);
    }
    events_.erase(it);
    stats_.events_collected.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::pair<RefinableTimestamp, RefinableTimestamp>>
TimelineOracle::DumpEdges() const {
  ReaderLock lk(mu_);
  std::vector<std::pair<RefinableTimestamp, RefinableTimestamp>> edges;
  for (const auto& [id, node] : events_) {
    for (EventId succ_id : node.succ) {
      const EventNode* succ = Find(succ_id);
      if (succ != nullptr) edges.emplace_back(node.ts, succ->ts);
    }
  }
  return edges;
}

std::size_t TimelineOracle::LiveEvents() const {
  ReaderLock lk(mu_);
  return events_.size();
}

void TimelineOracle::ResetStats() {
  stats_.order_requests.store(0);
  stats_.queries.store(0);
  stats_.edges_established.store(0);
  stats_.vclock_resolved.store(0);
  stats_.dag_resolved.store(0);
  stats_.events_collected.store(0);
}

}  // namespace weaver
