// MessageBus: the cluster interconnect.
//
// Weaver's deployment runs gatekeepers and shard servers as separate
// processes connected by TCP; this reproduction runs them as actors that
// exchange messages over this bus. The bus preserves the property the
// protocol depends on (paper §4.2): every (source, destination) pair is a
// reliable FIFO channel with per-channel sequence numbers, so transactions
// from one gatekeeper cannot be lost or reordered in transit. Receivers
// check the sequence numbers and fail loudly on a violation.
//
// Endpoints come in three kinds:
//   * inbox -- a BlockingQueue drained by the owner's event loop (shard
//     servers);
//   * inline handler -- invoked on the sender's thread (gatekeeper
//     announce processing, session reply routing). Handlers may carry a
//     capacity bound on DEFERRED deliveries (delay-queue backlog), so a
//     lagging receiver cannot grow an unbounded queue -- over-capacity
//     sends drop with ResourceExhausted (safe for announces: a later
//     announce supersedes a dropped one);
//   * remote -- a proxy for an endpoint living in another process. Sends
//     are encoded into wire frames (via the deployment-installed wire
//     encoder, core/message_codec.h) and shipped over the endpoint's
//     Transport (net/transport.h); a WireLink on the receiving side
//     rebuilds the message and calls DeliverWire(), which enforces the
//     per-channel sequence numbers across the process boundary. The
//     in-process fast path never encodes anything.
//
// For tests, an optional delivery-delay hook routes messages through a
// timer thread; per-channel FIFO order is still preserved (delays are
// clamped monotonically per channel), modelling a slow but ordered link.
// Delays apply to local endpoints only (a real link supplies its own).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/queue.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace weaver {

/// Opaque endpoint address on the bus.
using EndpointId = std::uint32_t;

struct BusMessage {
  EndpointId src = 0;
  EndpointId dst = 0;
  std::uint64_t channel_seq = 0;  // 1-based, per (src,dst) channel
  std::shared_ptr<void> payload;  // type-erased; receivers know the schema
  std::uint32_t payload_tag = 0;  // discriminator chosen by the sender
};

class MessageBus {
 public:
  struct Stats {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> messages_delivered{0};
    /// Frames shipped to / received from remote (transport-backed)
    /// endpoints.
    std::atomic<std::uint64_t> wire_frames_sent{0};
    std::atomic<std::uint64_t> wire_frames_received{0};
    /// Wire deliveries rejected because a per-channel sequence number was
    /// missing or out of order (a broken link; receivers fail loudly).
    std::atomic<std::uint64_t> wire_seq_violations{0};
    /// Sends dropped because a bounded handler endpoint's deferred-queue
    /// capacity was exceeded (announce backpressure).
    std::atomic<std::uint64_t> handler_capacity_drops{0};
    /// Payload + frame bytes shipped to / received from remote endpoints
    /// (received bytes are reported by the WireLinks feeding this bus).
    std::atomic<std::uint64_t> wire_bytes_sent{0};
    std::atomic<std::uint64_t> wire_bytes_received{0};
  };

  MessageBus();
  ~MessageBus();
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Registers an endpoint whose messages accumulate in an inbox that the
  /// owner drains (actor style). Returns the endpoint id.
  EndpointId RegisterInbox(std::string name,
                           std::shared_ptr<BlockingQueue<BusMessage>> inbox);

  /// Registers an endpoint with an inline delivery handler (invoked on the
  /// sender's thread, or the delay thread when delays are active).
  /// `capacity` bounds DEFERRED deliveries only (messages parked in the
  /// delay queue for this endpoint): sends beyond it drop with
  /// ResourceExhausted instead of growing the queue. 0 = unbounded.
  /// Synchronous (no-delay) deliveries never queue, so they are never
  /// dropped.
  EndpointId RegisterHandler(std::string name,
                             std::function<void(const BusMessage&)> handler,
                             std::size_t capacity = 0);

  /// Registers a remote proxy endpoint: sends to it are encoded with the
  /// installed wire encoder and shipped over `transport` as frames.
  /// Several remote endpoints may share one transport (a child process
  /// reaches every parent-side endpoint through its single link).
  EndpointId RegisterRemote(std::string name,
                            std::shared_ptr<Transport> transport);

  /// Installs the PAYLOAD encoder used for sends to remote endpoints
  /// (core/message_codec.h's EncodePayload). The bus wraps the encoded
  /// payload in a wire frame itself -- payload encoding happens (and can
  /// fail) BEFORE the channel sequence number is committed, so an
  /// unencodable message never desyncs the receiver's gap-free FIFO
  /// check. Must be set before the first remote send; not changed while
  /// traffic flows.
  void SetWireEncoder(
      std::function<Result<std::string>(std::uint32_t tag,
                                        const std::shared_ptr<void>& payload)>
          encoder);

  /// Delivery entry point for messages received over a wire link. The
  /// message carries the SENDER-side channel sequence number; this bus
  /// verifies it continues the channel's gap-free FIFO stream and fails
  /// loudly (Internal + stats().wire_seq_violations) on any violation --
  /// a reordered or lost frame means the link broke its contract.
  /// `never_block` bypasses bounded-inbox blocking (program/control
  /// traffic, core/message_codec.h's WireNeverBlock).
  Status DeliverWire(BusMessage msg, bool never_block);

  /// Marks channels touching `id` as idempotent-protocol channels:
  /// DeliverWire accepts the first frame it sees on such a channel as the
  /// sequence baseline (instead of requiring seq 1), and accepts a
  /// restart at seq 1 any time (the peer process was respawned or reset).
  /// Mid-stream gaps and reorders still fail loudly.
  ///
  /// This exists for the timeline-oracle RPC endpoints
  /// (docs/oracle_service.md): during oracle failover the parent hub
  /// drops oracle-bound frames while the endpoint is fenced, which burns
  /// sender sequence numbers the respawned process never sees -- and the
  /// oracle protocol is retried idempotent request/reply, so a lost
  /// frame is safe. Shard-to-shard wave channels must NOT be marked: a
  /// dropped hop is lost work (the supervisor's commit gate prevents
  /// those drops instead).
  void AllowFirstContact(EndpointId id);

  /// Ships an already-encoded frame to a remote endpoint's transport
  /// verbatim (hub routing: a frame between two child processes transits
  /// the parent without being decoded). `never_block` carries the
  /// ForcePush contract onto the outbound link (links must not wedge
  /// forwarding program traffic into a congested peer).
  Status ForwardFrame(EndpointId dst, std::string_view frame,
                      bool never_block = false);

  /// Detaches an endpoint: subsequent sends to it are dropped (simulates a
  /// crashed server). Channel sequence state is preserved so a re-register
  /// with ReattachInbox continues the FIFO stream. A send to a detached
  /// REMOTE endpoint fails with Unavailable before it takes a sequence
  /// number, so the replacement ReplaceRemote installs starts at seq 1.
  void Detach(EndpointId id);
  void ReattachInbox(EndpointId id,
                     std::shared_ptr<BlockingQueue<BusMessage>> inbox);

  /// Forgets all wire/channel sequence state touching endpoint `id`, in
  /// both directions: send channels restart at seq 1 and DeliverWire's
  /// receive expectations are cleared. Process recovery uses this after a
  /// peer process died (its counters died with it) and BEFORE the
  /// replacement transport is attached, so the fresh process's stream
  /// starts gap-free. Channels are reset in place (never erased): a
  /// concurrent sender may hold a channel's lock.
  void ResetPeer(EndpointId id);

  /// Swaps the transport behind a remote endpoint and re-attaches it
  /// (the respawned process's link). Call after ResetPeer; no-op with a
  /// loud stderr line for non-remote endpoints.
  void ReplaceRemote(EndpointId id, std::shared_ptr<Transport> transport);

  /// Installs a fallback transport for sends whose destination this bus
  /// has never registered: the message is encoded and shipped over
  /// `transport` exactly like a remote-endpoint send. A child process
  /// uses its parent uplink here so it can address DYNAMIC parent-side
  /// endpoints -- client session reply endpoints, the parent's internal
  /// reply router -- whose ids are allocated after the child's
  /// registration loop ran (docs/transport.md#cluster-bootstrap).
  /// Registered endpoints (including detached ones) are never diverted.
  /// Set during single-threaded setup; nullptr disables.
  void SetDefaultRemote(std::shared_ptr<Transport> transport);

  /// Sends a message. Assigns the per-channel sequence number atomically
  /// with enqueueing, so concurrent senders on one channel stay FIFO.
  /// Returns Unavailable if the destination is detached (delayed
  /// deliveries report Ok and drop on arrival -- the link cannot know).
  ///
  /// `never_block` exempts the message from the destination's inbox
  /// capacity (BlockingQueue::ForcePush): event-loop actors that send to
  /// each other (shard-to-shard node-program hop forwarding) use it so
  /// two full peers cannot deadlock pushing into one another. Bulk
  /// producers (gatekeepers, clients) keep the default blocking
  /// backpressure.
  Status Send(EndpointId src, EndpointId dst, std::uint32_t payload_tag,
              std::shared_ptr<void> payload, bool never_block = false);

  /// Installs a delivery delay (microseconds) computed per message; nullptr
  /// disables delays. Not for use concurrently with traffic. CAVEAT: node
  /// program quiescence accounting (docs/node_programs.md) relies on a
  /// shard's spawn report reaching the coordinator before the spawned
  /// hops' consume reports -- inline delivery guarantees that; delayed
  /// delivery orders only per channel, so deployments running programs
  /// must not install delays (the link-delay tests drive bare endpoints).
  void SetDelayFn(
      std::function<std::uint64_t(EndpointId, EndpointId)> delay_fn);

  const std::string& NameOf(EndpointId id) const;

  /// Depth of an inbox endpoint's queue. For remote endpoints, the depth
  /// last observed via NoteRemoteDepth (a MetricsReport from the owning
  /// process) -- possibly stale, see the staleness contract at the
  /// gatekeeper call site. 0 for handler endpoints and unknown ids.
  std::size_t QueueDepth(EndpointId id) const;

  /// Records the queue depth a remote endpoint's owning process reported
  /// for itself (fed by Weaver::OnMetricsReport). No-op for non-remote
  /// endpoints.
  void NoteRemoteDepth(EndpointId id, std::size_t depth);

  /// Attributes wire bytes received by a WireLink to this bus's stats
  /// (the link owns the receive path; the bus owns the counters).
  void NoteWireBytesReceived(std::uint64_t n) {
    stats_.wire_bytes_received.fetch_add(n, std::memory_order_relaxed);
  }

  /// Exports this bus's counters into `registry` under "bus." names,
  /// including a "bus.<endpoint>.depth" gauge per inbox endpoint
  /// (registered lazily as endpoints appear). The registry must outlive
  /// the bus; the bus drops its names in its destructor.
  void SetMetrics(obs::MetricsRegistry* registry);

  const Stats& stats() const { return stats_; }

 private:
  struct Endpoint {
    std::string name;
    std::shared_ptr<BlockingQueue<BusMessage>> inbox;  // or...
    std::function<void(const BusMessage&)> handler;    // ...inline handler,
    std::shared_ptr<Transport> remote;                 // ...or remote proxy
    bool attached = true;
    /// Handler endpoints only: bound on deferred (delay-queue) deliveries
    /// and the live count of them. The count is atomic because senders
    /// increment it while the delay thread decrements after delivery.
    std::size_t handler_capacity = 0;
    std::shared_ptr<std::atomic<std::size_t>> deferred{
        std::make_shared<std::atomic<std::size_t>>(0)};
    /// Remote endpoints only: last inbox depth the owning process
    /// reported for this endpoint (NoteRemoteDepth).
    std::shared_ptr<std::atomic<std::size_t>> remote_depth;
  };
  struct Channel {
    Mutex mu;
    std::uint64_t next_seq GUARDED_BY(mu) = 1;
    // For FIFO under delays.
    std::uint64_t last_delivery_deadline_us GUARDED_BY(mu) = 0;
  };
  struct Delayed {
    std::uint64_t deliver_at_us;
    std::uint64_t order;  // tie-break, preserves global send order
    BusMessage msg;
    /// Bounded-handler accounting: decremented once the message leaves
    /// the deferred queues (delivered or dropped). Null when unbounded.
    std::shared_ptr<std::atomic<std::size_t>> deferred;
    bool operator>(const Delayed& other) const {
      return std::tie(deliver_at_us, order) >
             std::tie(other.deliver_at_us, other.order);
    }
  };

  /// Returns false when the destination is unknown or detached (the
  /// message is dropped).
  bool Deliver(const BusMessage& msg, bool never_block);
  /// Delay-thread delivery: never blocks on a full bounded inbox.
  /// Returns false when the destination is full -- the caller parks the
  /// message in stalled_ and retries, so one slow shard cannot stall
  /// delayed traffic to every other endpoint.
  bool TryDeliver(BusMessage& msg);
  /// Flushes stalled_ in FIFO order per destination. Delay thread only,
  /// called WITHOUT delay_mu_ (deliveries may run handlers, and handlers
  /// may Send back onto the delayed bus).
  void FlushStalled();
  void DelayLoop();

  /// Registers the per-endpoint depth gauge for `id`. Call WITHOUT
  /// endpoints_mu_ held: the registry lock is taken inside, and
  /// Snapshot() invokes the gauge (which takes endpoints_mu_ via
  /// QueueDepth) while holding the registry lock -- taking them in the
  /// opposite order here would deadlock.
  void ExportEndpointDepth(EndpointId id, const std::string& name);

  mutable Mutex endpoints_mu_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_ GUARDED_BY(endpoints_mu_);

  /// Metrics export (null until SetMetrics). Written during deployment
  /// setup, before concurrent registration traffic.
  obs::MetricsRegistry* metrics_ = nullptr;

  Mutex channels_mu_;
  std::map<std::pair<EndpointId, EndpointId>, std::unique_ptr<Channel>>
      channels_ GUARDED_BY(channels_mu_);

  /// Payload encoder for remote sends (deployment-installed).
  std::function<Result<std::string>(std::uint32_t,
                                    const std::shared_ptr<void>&)>
      wire_encoder_;
  /// Fallback transport for sends to never-registered endpoint ids
  /// (SetDefaultRemote); null in ordinary deployments.
  std::shared_ptr<Transport> default_remote_ GUARDED_BY(endpoints_mu_);
  /// True once any remote or bounded-handler endpoint exists; lets the
  /// pure in-process hot path skip the pre-send endpoint inspection.
  std::atomic<bool> has_special_endpoints_{false};
  /// Last sequence number accepted per wire-inbound channel
  /// (DeliverWire's gap/reorder check).
  Mutex wire_seq_mu_;
  std::map<std::pair<EndpointId, EndpointId>, std::uint64_t> wire_seq_
      GUARDED_BY(wire_seq_mu_);
  /// Endpoints whose channels take a first-contact sequence baseline and
  /// accept seq-1 restarts (AllowFirstContact).
  std::set<EndpointId> first_contact_ok_ GUARDED_BY(wire_seq_mu_);

  std::function<std::uint64_t(EndpointId, EndpointId)> delay_fn_;
  Mutex delay_mu_;
  std::condition_variable delay_cv_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>>
      delay_queue_ GUARDED_BY(delay_mu_);
  /// Delayed messages whose destination inbox was full, FIFO per
  /// destination. Touched only by the delay thread -- no lock (and no
  /// GUARDED_BY: FlushStalled walks it with delay_mu_ deliberately
  /// dropped so deliveries can re-enter Send).
  std::unordered_map<EndpointId, std::deque<Delayed>> stalled_;
  std::uint64_t delay_order_ GUARDED_BY(delay_mu_) = 0;
  std::thread delay_thread_;
  bool stopping_ GUARDED_BY(delay_mu_) = false;

  Stats stats_;
};

}  // namespace weaver
