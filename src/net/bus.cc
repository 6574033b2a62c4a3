#include "net/bus.h"

#include <cassert>
#include <cstdio>

#include "common/clock.h"
#include "net/wire.h"

namespace weaver {

MessageBus::MessageBus() {
  delay_thread_ = std::thread([this] { DelayLoop(); });
}

MessageBus::~MessageBus() {
  {
    MutexLock lk(delay_mu_);
    stopping_ = true;
    delay_cv_.notify_all();
  }
  if (delay_thread_.joinable()) delay_thread_.join();
  // The exported counters and depth gauges read this object; the
  // registry (owned by the deployment, destroyed after the bus) must
  // forget them first.
  if (metrics_ != nullptr) metrics_->DropPrefix("bus.");
}

void MessageBus::SetMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) return;
  registry->AddCounterFn("bus.messages_sent", [this] {
    return stats_.messages_sent.load(std::memory_order_relaxed);
  });
  registry->AddCounterFn("bus.messages_delivered", [this] {
    return stats_.messages_delivered.load(std::memory_order_relaxed);
  });
  registry->AddCounterFn("bus.wire_frames_sent", [this] {
    return stats_.wire_frames_sent.load(std::memory_order_relaxed);
  });
  registry->AddCounterFn("bus.wire_frames_received", [this] {
    return stats_.wire_frames_received.load(std::memory_order_relaxed);
  });
  registry->AddCounterFn("bus.wire_seq_violations", [this] {
    return stats_.wire_seq_violations.load(std::memory_order_relaxed);
  });
  registry->AddCounterFn("bus.handler_capacity_drops", [this] {
    return stats_.handler_capacity_drops.load(std::memory_order_relaxed);
  });
  registry->AddCounterFn("bus.wire_bytes_sent", [this] {
    return stats_.wire_bytes_sent.load(std::memory_order_relaxed);
  });
  registry->AddCounterFn("bus.wire_bytes_received", [this] {
    return stats_.wire_bytes_received.load(std::memory_order_relaxed);
  });
  // Endpoints registered before SetMetrics get their depth gauges now;
  // later registrations add theirs inline. Remote endpoints export the
  // depth their owning process last reported (NoteRemoteDepth), so the
  // scraped view covers remote inboxes too.
  std::vector<std::pair<EndpointId, std::string>> queues;
  {
    MutexLock lk(endpoints_mu_);
    for (std::size_t id = 0; id < endpoints_.size(); ++id) {
      if (endpoints_[id]->inbox != nullptr ||
          endpoints_[id]->remote != nullptr) {
        queues.emplace_back(static_cast<EndpointId>(id),
                            endpoints_[id]->name);
      }
    }
  }
  for (const auto& [id, name] : queues) ExportEndpointDepth(id, name);
}

void MessageBus::ExportEndpointDepth(EndpointId id, const std::string& name) {
  if (metrics_ == nullptr) return;
  metrics_->AddGaugeFn("bus." + name + ".depth", [this, id] {
    return static_cast<std::int64_t>(QueueDepth(id));
  });
}

EndpointId MessageBus::RegisterInbox(
    std::string name, std::shared_ptr<BlockingQueue<BusMessage>> inbox) {
  EndpointId id;
  std::string gauge_name;
  {
    MutexLock lk(endpoints_mu_);
    auto ep = std::make_unique<Endpoint>();
    ep->name = std::move(name);
    ep->inbox = std::move(inbox);
    gauge_name = ep->name;
    endpoints_.push_back(std::move(ep));
    id = static_cast<EndpointId>(endpoints_.size() - 1);
  }
  ExportEndpointDepth(id, gauge_name);
  return id;
}

EndpointId MessageBus::RegisterHandler(
    std::string name, std::function<void(const BusMessage&)> handler,
    std::size_t capacity) {
  MutexLock lk(endpoints_mu_);
  auto ep = std::make_unique<Endpoint>();
  ep->name = std::move(name);
  ep->handler = std::move(handler);
  ep->handler_capacity = capacity;
  if (capacity > 0) {
    has_special_endpoints_.store(true, std::memory_order_relaxed);
  }
  endpoints_.push_back(std::move(ep));
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

EndpointId MessageBus::RegisterRemote(std::string name,
                                      std::shared_ptr<Transport> transport) {
  EndpointId id;
  std::string gauge_name;
  {
    MutexLock lk(endpoints_mu_);
    auto ep = std::make_unique<Endpoint>();
    ep->name = std::move(name);
    ep->remote = std::move(transport);
    ep->remote_depth = std::make_shared<std::atomic<std::size_t>>(0);
    has_special_endpoints_.store(true, std::memory_order_relaxed);
    gauge_name = ep->name;
    endpoints_.push_back(std::move(ep));
    id = static_cast<EndpointId>(endpoints_.size() - 1);
  }
  ExportEndpointDepth(id, gauge_name);
  return id;
}

void MessageBus::SetWireEncoder(
    std::function<Result<std::string>(std::uint32_t,
                                      const std::shared_ptr<void>&)>
        encoder) {
  wire_encoder_ = std::move(encoder);
}

void MessageBus::SetDefaultRemote(std::shared_ptr<Transport> transport) {
  MutexLock lk(endpoints_mu_);
  default_remote_ = std::move(transport);
  if (default_remote_ != nullptr) {
    has_special_endpoints_.store(true, std::memory_order_relaxed);
  }
}

Status MessageBus::ForwardFrame(EndpointId dst, std::string_view frame,
                                bool never_block) {
  std::shared_ptr<Transport> transport;
  {
    MutexLock lk(endpoints_mu_);
    if (dst >= endpoints_.size() || endpoints_[dst]->remote == nullptr) {
      return Status::InvalidArgument("endpoint " + std::to_string(dst) +
                                     " is not remote");
    }
    if (!endpoints_[dst]->attached) {
      return Status::Unavailable("remote endpoint " + std::to_string(dst) +
                                 " is detached");
    }
    transport = endpoints_[dst]->remote;
  }
  return transport->SendBytes(frame, never_block);
}

Status MessageBus::DeliverWire(BusMessage msg, bool never_block) {
  // The sequence number was assigned by the SENDING bus; verify it
  // continues this channel's gap-free FIFO stream. Any violation means
  // the link reordered or lost a frame -- fail loudly, never paper over.
  {
    MutexLock lk(wire_seq_mu_);
    const auto key = std::make_pair(msg.src, msg.dst);
    const auto it = wire_seq_.find(key);
    // Idempotent-protocol channels (AllowFirstContact) baseline on the
    // first frame observed and re-baseline on a seq-1 restart: during
    // process failover the hub drops fenced frames, burning sender
    // sequence numbers a fresh receiver never sees, and a straggling
    // reset can restart the sender's stream after contact was made.
    const bool lenient = first_contact_ok_.count(msg.src) != 0 ||
                         first_contact_ok_.count(msg.dst) != 0;
    const std::uint64_t want = (it == wire_seq_.end()) ? 1 : it->second + 1;
    const bool ok = msg.channel_seq == want ||
                    (lenient && (it == wire_seq_.end() ||
                                 msg.channel_seq == 1));
    if (!ok) {
      stats_.wire_seq_violations.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "weaver: wire FIFO violation on channel %u->%u: got seq "
                   "%llu, want %llu\n",
                   msg.src, msg.dst,
                   static_cast<unsigned long long>(msg.channel_seq),
                   static_cast<unsigned long long>(want));
      return Status::Internal(
          "wire channel sequence violation: got " +
          std::to_string(msg.channel_seq) + ", want " + std::to_string(want) +
          " on channel " + std::to_string(msg.src) + "->" +
          std::to_string(msg.dst));
    }
    wire_seq_[key] = msg.channel_seq;
  }
  stats_.wire_frames_received.fetch_add(1, std::memory_order_relaxed);
  if (!Deliver(msg, never_block)) {
    return Status::Unavailable("endpoint " + std::to_string(msg.dst) +
                               " is detached or stopped");
  }
  return Status::Ok();
}

void MessageBus::Detach(EndpointId id) {
  MutexLock lk(endpoints_mu_);
  assert(id < endpoints_.size());
  endpoints_[id]->attached = false;
  endpoints_[id]->inbox.reset();
}

void MessageBus::ReattachInbox(
    EndpointId id, std::shared_ptr<BlockingQueue<BusMessage>> inbox) {
  MutexLock lk(endpoints_mu_);
  assert(id < endpoints_.size());
  endpoints_[id]->inbox = std::move(inbox);
  endpoints_[id]->attached = true;
}

void MessageBus::AllowFirstContact(EndpointId id) {
  MutexLock lk(wire_seq_mu_);
  first_contact_ok_.insert(id);
}

void MessageBus::ResetPeer(EndpointId id) {
  // Send side: restart every channel touching the peer at seq 1. The
  // Channel objects are reset IN PLACE under their own lock -- erasing
  // them would free a mutex a concurrent Send may be holding. Lock order
  // (channels_mu_ then ch->mu) matches Send.
  std::vector<Channel*> touching;
  {
    MutexLock lk(channels_mu_);
    for (auto& [key, ch] : channels_) {
      if (key.first == id || key.second == id) touching.push_back(ch.get());
    }
  }
  for (Channel* ch : touching) {
    MutexLock lk(ch->mu);
    ch->next_seq = 1;
    ch->last_delivery_deadline_us = 0;
  }
  // Receive side: forget DeliverWire's last-accepted sequence numbers for
  // streams from or to the peer, so the fresh process's seq-1 frames pass
  // the gap check instead of reading as a FIFO violation.
  {
    MutexLock lk(wire_seq_mu_);
    for (auto it = wire_seq_.begin(); it != wire_seq_.end();) {
      if (it->first.first == id || it->first.second == id) {
        it = wire_seq_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void MessageBus::ReplaceRemote(EndpointId id,
                               std::shared_ptr<Transport> transport) {
  MutexLock lk(endpoints_mu_);
  if (id >= endpoints_.size() || endpoints_[id]->remote == nullptr) {
    std::fprintf(stderr,
                 "weaver: ReplaceRemote on non-remote endpoint %u ignored\n",
                 id);
    return;
  }
  endpoints_[id]->remote = std::move(transport);
  endpoints_[id]->attached = true;
  if (endpoints_[id]->remote_depth) {
    endpoints_[id]->remote_depth->store(0, std::memory_order_relaxed);
  }
}

void MessageBus::SetDelayFn(
    std::function<std::uint64_t(EndpointId, EndpointId)> delay_fn) {
  delay_fn_ = std::move(delay_fn);
}

Status MessageBus::Send(EndpointId src, EndpointId dst,
                        std::uint32_t payload_tag,
                        std::shared_ptr<void> payload, bool never_block) {
  BusMessage msg;
  msg.src = src;
  msg.dst = dst;
  msg.payload = std::move(payload);
  msg.payload_tag = payload_tag;

  // Destination kind decides the path: remote endpoints encode + ship
  // frames, bounded handler endpoints may shed deferred load. Pure
  // in-process deployments (no remote, no bounded handler anywhere) skip
  // the inspection -- the hot path pays no extra endpoint lock.
  std::shared_ptr<Transport> remote;
  std::size_t handler_capacity = 0;
  std::shared_ptr<std::atomic<std::size_t>> deferred;
  if (has_special_endpoints_.load(std::memory_order_relaxed)) {
    MutexLock lk(endpoints_mu_);
    if (dst < endpoints_.size()) {
      Endpoint& ep = *endpoints_[dst];
      if (ep.remote != nullptr && !ep.attached) {
        // A fenced remote peer: refuse before a sequence number is
        // assigned. A send burned here would sit between ResetPeer and
        // ReplaceRemote, and the replacement process would see its first
        // frame arrive as seq 2.
        return Status::Unavailable("remote endpoint " + std::to_string(dst) +
                                   " is detached");
      }
      remote = ep.remote;
      if (ep.handler && ep.handler_capacity > 0) {
        handler_capacity = ep.handler_capacity;
        deferred = ep.deferred;
      }
    } else if (default_remote_ != nullptr) {
      // A destination this bus never registered: divert over the default
      // transport (a child process addressing a dynamic parent-side
      // endpoint -- session replies, the parent's internal reply router).
      // Registered endpoints, detached or not, never take this path.
      remote = default_remote_;
    }
  }

  // Payload encoding for remote destinations happens HERE -- before the
  // channel lock and before the sequence number is committed -- so a
  // failed encode (unknown tag, null payload) cannot burn a sequence
  // number and desync the receiver's gap-free FIFO check, and the
  // serialization cost stays off the channel lock.
  std::string payload_bytes;
  if (remote != nullptr) {
    if (!wire_encoder_) {
      return Status::FailedPrecondition(
          "remote endpoint with no wire encoder installed "
          "(MessageBus::SetWireEncoder)");
    }
    auto encoded = wire_encoder_(msg.payload_tag, msg.payload);
    if (!encoded.ok()) return encoded.status();
    payload_bytes = std::move(encoded).value();
  }

  Channel* ch = nullptr;
  {
    MutexLock lk(channels_mu_);
    auto& slot = channels_[{src, dst}];
    if (!slot) slot = std::make_unique<Channel>();
    ch = slot.get();
  }

  // Delays model a slow local link; remote endpoints have a real one.
  std::uint64_t delay_us =
      (delay_fn_ && remote == nullptr) ? delay_fn_(src, dst) : 0;

  // Flow control happens BEFORE the channel lock: a blocking sender must
  // not park inside the transport while holding ch->mu, or a never_block
  // sender on the same channel would wait behind it -- exactly the wedge
  // the flag exists to prevent. The post-lock enqueue below then never
  // waits. (The pre-wait is approximate -- concurrent senders may
  // overshoot the high-water mark by a few frames -- which is fine for a
  // pacing heuristic.)
  if (remote != nullptr && !never_block) remote->WaitWritable();

  // Sequence assignment must be atomic with handing the message to the
  // delivery path, otherwise two concurrent senders could invert order on
  // the channel. For remote endpoints the transport enqueue happens under
  // the same lock, so frames enter the outbound queue in sequence order.
  MutexLock ch_lk(ch->mu);
  msg.channel_seq = ch->next_seq++;
  stats_.messages_sent.fetch_add(1, std::memory_order_relaxed);

  if (remote != nullptr) {
    wire::FrameHeader header;
    header.tag = msg.payload_tag;
    header.src = msg.src;
    header.dst = msg.dst;
    header.channel_seq = msg.channel_seq;
    // Always a non-waiting enqueue: flow control already happened above,
    // before ch->mu was taken.
    const std::string frame = wire::EncodeFrame(header, payload_bytes);
    const std::size_t frame_bytes = frame.size();
    const Status sent = remote->SendBytes(frame, /*never_block=*/true);
    if (sent.ok()) {
      stats_.wire_frames_sent.fetch_add(1, std::memory_order_relaxed);
      stats_.wire_bytes_sent.fetch_add(frame_bytes,
                                       std::memory_order_relaxed);
      stats_.messages_delivered.fetch_add(1, std::memory_order_relaxed);
    }
    return sent;
  }

  if (delay_us == 0) {
    if (!Deliver(msg, never_block)) {
      return Status::Unavailable("endpoint " + std::to_string(dst) +
                                 " is detached");
    }
    return Status::Ok();
  }

  // Bounded handler endpoints shed deferred load here: a receiver that
  // cannot keep up with the delayed stream drops new sends instead of
  // queueing them without bound (announce backpressure -- safe because a
  // dropped announce is superseded by the next one).
  if (handler_capacity > 0) {
    std::size_t count = deferred->load(std::memory_order_relaxed);
    while (true) {
      if (count >= handler_capacity) {
        stats_.handler_capacity_drops.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(
            "handler endpoint " + std::to_string(dst) +
            " is over its deferred-delivery capacity");
      }
      if (deferred->compare_exchange_weak(count, count + 1,
                                          std::memory_order_relaxed)) {
        break;
      }
    }
  }

  // Delayed path: clamp the deadline so it never precedes an earlier
  // message on the same channel (FIFO under heterogeneous delays).
  const std::uint64_t deadline =
      std::max(NowMicros() + delay_us, ch->last_delivery_deadline_us);
  ch->last_delivery_deadline_us = deadline;
  {
    MutexLock lk(delay_mu_);
    delay_queue_.push(Delayed{deadline, delay_order_++, msg,
                              std::move(deferred)});
    delay_cv_.notify_one();
  }
  return Status::Ok();
}

bool MessageBus::Deliver(const BusMessage& msg, bool never_block) {
  std::shared_ptr<BlockingQueue<BusMessage>> inbox;
  std::function<void(const BusMessage&)> handler;
  {
    MutexLock lk(endpoints_mu_);
    if (msg.dst >= endpoints_.size()) return false;
    Endpoint& ep = *endpoints_[msg.dst];
    if (!ep.attached) return false;  // crashed server: message dropped
    inbox = ep.inbox;
    handler = ep.handler;
  }
  if (inbox) {
    // A closed inbox (stopped server) drops the message exactly like a
    // detached endpoint, and the sender must learn it -- program seeding
    // relies on a failed Send to abort instead of waiting forever on
    // accounting that can never come.
    const bool pushed =
        never_block ? inbox->ForcePush(msg) : inbox->Push(msg);
    if (!pushed) return false;
  } else if (handler) {
    handler(msg);
  }
  stats_.messages_delivered.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool MessageBus::TryDeliver(BusMessage& msg) {
  std::shared_ptr<BlockingQueue<BusMessage>> inbox;
  std::function<void(const BusMessage&)> handler;
  {
    MutexLock lk(endpoints_mu_);
    if (msg.dst >= endpoints_.size()) return true;  // dropped
    Endpoint& ep = *endpoints_[msg.dst];
    if (!ep.attached) return true;  // crashed server: message dropped
    inbox = ep.inbox;
    handler = ep.handler;
  }
  if (inbox) {
    if (inbox->TryPush(msg) == BlockingQueue<BusMessage>::PushResult::kFull) {
      return false;  // bounded inbox at capacity: caller parks + retries
    }
  } else if (handler) {
    handler(msg);
  }
  stats_.messages_delivered.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void MessageBus::FlushStalled() {
  // Runs on the delay thread with delay_mu_ NOT held: stalled_ is
  // delay-thread-private, and deliveries must never run under the lock
  // (a handler may Send back onto the delayed bus).
  for (auto it = stalled_.begin(); it != stalled_.end();) {
    auto& q = it->second;
    while (!q.empty() && TryDeliver(q.front().msg)) {
      if (q.front().deferred) {
        q.front().deferred->fetch_sub(1, std::memory_order_relaxed);
      }
      q.pop_front();
    }
    it = q.empty() ? stalled_.erase(it) : std::next(it);
  }
}

void MessageBus::DelayLoop() {
  MutexLock lk(delay_mu_);
  while (true) {
    if (stopping_) return;
    if (!stalled_.empty()) {
      lk.Unlock();
      FlushStalled();
      lk.Lock();
      if (stopping_) return;
    }
    if (delay_queue_.empty() && stalled_.empty()) {
      while (!stopping_ && delay_queue_.empty()) delay_cv_.wait(lk.native());
      continue;
    }
    const std::uint64_t now = NowMicros();
    // While something is stalled, poll instead of sleeping until the next
    // deadline -- the blocked destination drains on its own schedule.
    const std::uint64_t next_deadline =
        delay_queue_.empty() ? now + 1000 : delay_queue_.top().deliver_at_us;
    if (next_deadline > now) {
      const std::uint64_t cap =
          stalled_.empty() ? next_deadline - now
                           : std::min<std::uint64_t>(next_deadline - now, 1000);
      delay_cv_.wait_for(lk.native(), std::chrono::microseconds(cap));
      continue;
    }
    Delayed d = delay_queue_.top();
    delay_queue_.pop();
    lk.Unlock();
    // Per-destination FIFO: while earlier messages to this destination
    // are parked, later ones must queue behind them. Deliveries run
    // without delay_mu_ so a handler may Send (even delayed) safely.
    auto sit = stalled_.find(d.msg.dst);
    if (sit != stalled_.end() && !sit->second.empty()) {
      sit->second.push_back(std::move(d));
    } else if (TryDeliver(d.msg)) {
      if (d.deferred) d.deferred->fetch_sub(1, std::memory_order_relaxed);
    } else {
      stalled_[d.msg.dst].push_back(std::move(d));
    }
    lk.Lock();
  }
}

std::size_t MessageBus::QueueDepth(EndpointId id) const {
  std::shared_ptr<BlockingQueue<BusMessage>> inbox;
  std::shared_ptr<std::atomic<std::size_t>> remote_depth;
  {
    MutexLock lk(endpoints_mu_);
    if (id >= endpoints_.size()) return 0;
    inbox = endpoints_[id]->inbox;
    remote_depth = endpoints_[id]->remote_depth;
  }
  if (inbox) return inbox->Size();
  // Remote endpoint: the depth its owning process last reported
  // (NoteRemoteDepth). Stale between reports -- callers treating this as
  // a backpressure signal must tolerate that (and 0 until the first
  // report arrives).
  if (remote_depth) return remote_depth->load(std::memory_order_relaxed);
  return 0;
}

void MessageBus::NoteRemoteDepth(EndpointId id, std::size_t depth) {
  std::shared_ptr<std::atomic<std::size_t>> remote_depth;
  {
    MutexLock lk(endpoints_mu_);
    if (id >= endpoints_.size()) return;
    remote_depth = endpoints_[id]->remote_depth;
  }
  if (remote_depth) remote_depth->store(depth, std::memory_order_relaxed);
}

const std::string& MessageBus::NameOf(EndpointId id) const {
  MutexLock lk(endpoints_mu_);
  static const std::string kUnknown = "?";
  if (id >= endpoints_.size()) return kUnknown;
  return endpoints_[id]->name;
}

}  // namespace weaver
