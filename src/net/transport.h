// Transport: the pluggable byte-moving layer under the MessageBus
// (docs/transport.md).
//
// A Transport carries opaque, already-framed byte strings between two
// processes with the only property the protocol needs from a link:
// reliable FIFO delivery. The bus encodes messages to remote endpoints
// into wire frames (net/wire.h) and hands them to the endpoint's
// transport; a WireLink (net/wire_link.h) on the receiving side parses
// the stream back into frames and delivers them into the local bus with
// the sender's per-channel sequence numbers intact.
//
// SocketTransport is the real implementation: a connected stream socket
// -- a loopback TCP connection between processes (the cluster bootstrap,
// src/cluster/bootstrap.h), or a socketpair() inside one process. The
// in-process delivery path never touches a Transport at all: local
// endpoints keep the zero-copy shared_ptr fast path and skip encoding.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"

namespace weaver {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one frame's bytes. Thread-safe; concurrent frames are written
  /// atomically (never interleaved) and the call order of any one thread
  /// is the delivery order (FIFO link). May block for flow control --
  /// unless `never_block` is set, which carries the bus's ForcePush
  /// contract onto the wire: event-loop actors (shards forwarding hops,
  /// links hub-routing them) must never wedge on a congested link, or
  /// two full peers can deadlock against each other exactly as two full
  /// inboxes could (common/queue.h). Never-block traffic is small and
  /// self-limiting, so the overshoot is bounded in practice.
  /// Unavailable once the peer is gone or Stop() ran.
  virtual Status SendBytes(std::string_view bytes,
                           bool never_block = false) = 0;

  /// Blocks until the link can accept more flow-controlled traffic (or
  /// it closed). Callers that must serialize sends under their own lock
  /// (the bus's per-channel mutex) wait HERE first, then enqueue with
  /// never_block -- otherwise a blocking sender parked inside SendBytes
  /// would hold the channel lock against a never_block sender on the
  /// same channel, defeating the contract. Default: no flow control.
  virtual void WaitWritable() {}

  /// Starts the receive thread; `on_bytes` is invoked from it with raw
  /// chunks at arbitrary boundaries until EOF or Stop(), then exactly
  /// once more with (nullptr, 0) to signal the stream ended. Call at
  /// most once.
  virtual void StartReceiver(
      std::function<void(const char* data, std::size_t n)> on_bytes) = 0;

  /// Shuts the link down: unblocks the receiver (which then exits) and
  /// fails subsequent sends. Idempotent.
  virtual void Stop() = 0;

  /// True once the link stopped or the peer disconnected.
  virtual bool closed() const = 0;
};

/// Stream-socket transport (socketpair or loopback TCP).
class SocketTransport final : public Transport {
 public:
  /// Wraps an already-connected stream socket fd; takes ownership.
  static std::unique_ptr<SocketTransport> Adopt(int fd);

  /// A connected AF_UNIX socketpair: two linked transports in one
  /// process (tests).
  static Result<std::pair<std::unique_ptr<SocketTransport>,
                          std::unique_ptr<SocketTransport>>>
  CreatePair();

  /// Loopback TCP: a listener on 127.0.0.1 (port 0 picks a free port;
  /// query with ListenPort), its blocking accept, and the client side.
  static Result<int> ListenLoopback(std::uint16_t port);
  static Result<std::uint16_t> ListenPort(int listen_fd);
  static Result<std::unique_ptr<SocketTransport>> AcceptOne(int listen_fd);
  static Result<std::unique_ptr<SocketTransport>> ConnectLoopback(
      std::uint16_t port);

  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Enqueues the frame onto the outbound queue drained by a dedicated
  /// writer thread (socket writes never run on a sender's thread, so a
  /// full kernel buffer cannot wedge an event loop). Blocking senders
  /// wait while the queue is over kSendQueueHighWater bytes -- the flow
  /// control that paces bulk producers to the link; never_block senders
  /// skip the wait (ForcePush on the wire).
  Status SendBytes(std::string_view bytes, bool never_block = false) override;
  void WaitWritable() override;
  void StartReceiver(
      std::function<void(const char* data, std::size_t n)> on_bytes) override;
  void Stop() override;
  bool closed() const override { return closed_.load(); }

  int fd() const { return fd_; }

  /// Outbound-queue soft bound, in bytes.
  static constexpr std::size_t kSendQueueHighWater = 4u << 20;

 private:
  explicit SocketTransport(int fd) : fd_(fd) {}

  void WriterLoop();

  int fd_;
  std::thread receiver_;
  std::atomic<bool> closed_{false};

  /// Outbound frame queue + its writer thread (started lazily on the
  /// first send, under send_mu_; joined by the destructor, which runs
  /// after every sender is gone).
  Mutex send_mu_;
  std::condition_variable send_cv_;       // writer wakeup + space waiters
  std::deque<std::string> send_queue_ GUARDED_BY(send_mu_);
  std::size_t send_queue_bytes_ GUARDED_BY(send_mu_) = 0;
  bool writer_failed_ GUARDED_BY(send_mu_) = false;
  std::thread writer_ GUARDED_BY(send_mu_);
};

}  // namespace weaver
