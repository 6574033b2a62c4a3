// Transport-layer tests (docs/transport.md): SocketTransport framing,
// WireLink delivery into a second bus, per-channel sequence enforcement
// (reordered frames fail loudly), hub forwarding, and a concurrent
// session-style stress over a socketpair (the TSan target).
#include "net/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/message_codec.h"
#include "core/messages.h"
#include "net/bus.h"
#include "net/wire.h"
#include "net/wire_link.h"

namespace weaver {
namespace {

WireLink::Options LinkOptions(MessageBus* bus,
                              std::shared_ptr<Transport> transport,
                              std::string name) {
  WireLink::Options o;
  o.bus = bus;
  o.transport = std::move(transport);
  o.decode = DecodePayload;
  o.never_block = WireNeverBlock;
  o.name = std::move(name);
  return o;
}

TEST(Transport, SocketPairMovesBytes) {
  // Receiver-captured state outlives the transports (the receive thread
  // fires an end-of-stream callback during transport destruction).
  std::string received;
  std::mutex mu;
  std::condition_variable cv;

  auto pair = SocketTransport::CreatePair();
  ASSERT_TRUE(pair.ok());
  auto [a, b] = std::move(pair).value();

  b->StartReceiver([&](const char* data, std::size_t n) {
    if (data == nullptr) return;  // end-of-stream marker
    std::lock_guard<std::mutex> lk(mu);
    received.append(data, n);
    cv.notify_all();
  });
  ASSERT_TRUE(a->SendBytes("hello ").ok());
  ASSERT_TRUE(a->SendBytes("transport").ok());
  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5), [&] {
    return received.size() == 15;
  }));
  EXPECT_EQ(received, "hello transport");
}

TEST(Transport, LoopbackTcpMovesFrames) {
  // Receiver-captured state first: it must outlive the transports.
  std::mutex mu;
  std::condition_variable cv;
  wire::FrameParser parser;
  bool got = false;
  wire::FrameHeader header;
  std::string payload;

  auto listener = SocketTransport::ListenLoopback(0);
  ASSERT_TRUE(listener.ok());
  auto port = SocketTransport::ListenPort(*listener);
  ASSERT_TRUE(port.ok());

  std::unique_ptr<SocketTransport> server;
  std::thread accepter([&] {
    auto accepted = SocketTransport::AcceptOne(*listener);
    ASSERT_TRUE(accepted.ok());
    server = std::move(accepted).value();
  });
  auto client = SocketTransport::ConnectLoopback(*port);
  ASSERT_TRUE(client.ok());
  accepter.join();
  ASSERT_NE(server, nullptr);

  // One real frame over TCP, parsed on the server side.
  server->StartReceiver([&](const char* data, std::size_t n) {
    if (data == nullptr) return;  // end-of-stream marker
    std::lock_guard<std::mutex> lk(mu);
    parser.Feed(data, n);
    bool ready = false;
    if (parser.Next(&header, &payload, &ready).ok() && ready) {
      got = true;
      cv.notify_all();
    }
  });
  wire::FrameHeader h;
  h.tag = kMsgNop;
  h.src = 1;
  h.dst = 2;
  h.channel_seq = 1;
  ASSERT_TRUE((*client)->SendBytes(wire::EncodeFrame(h, "tcp")).ok());
  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5), [&] { return got; }));
  EXPECT_EQ(header.tag, static_cast<std::uint32_t>(kMsgNop));
  EXPECT_EQ(payload, "tcp");
  ::close(*listener);
}

// Two buses linked by a socketpair: bus A's remote endpoint proxies bus
// B's inbox endpoint. This is the two-process topology in one process.
TEST(Transport, BusToBusDeliveryPreservesPayloadAndSeq) {
  auto pair = SocketTransport::CreatePair();
  ASSERT_TRUE(pair.ok());
  std::shared_ptr<Transport> a_side = std::move(pair->first);
  std::shared_ptr<Transport> b_side = std::move(pair->second);

  MessageBus bus_a;
  bus_a.SetWireEncoder(EncodePayload);
  MessageBus bus_b;
  bus_b.SetWireEncoder(EncodePayload);

  // Mirrored layout: id 0 = the inbox (real on B, proxy on A).
  auto inbox = std::make_shared<BlockingQueue<BusMessage>>();
  const EndpointId remote_on_a = bus_a.RegisterRemote("b.inbox", a_side);
  const EndpointId real_on_b = bus_b.RegisterInbox("b.inbox", inbox);
  ASSERT_EQ(remote_on_a, real_on_b);
  const EndpointId sender =
      bus_a.RegisterHandler("sender", [](const BusMessage&) {});
  (void)bus_b.RegisterRemote("sender", b_side);  // mirror the id space

  WireLink link_b(LinkOptions(&bus_b, b_side, "b.uplink"));

  for (int i = 0; i < 100; ++i) {
    auto nop = std::make_shared<NopMessage>();
    nop->ts = RefinableTimestamp(VectorClock(0, {static_cast<uint64_t>(i)}),
                                 0, static_cast<uint64_t>(i));
    ASSERT_TRUE(
        bus_a.Send(sender, remote_on_a, kMsgNop, std::move(nop)).ok());
  }
  for (std::uint64_t i = 1; i <= 100; ++i) {
    auto msg = inbox->Pop();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->channel_seq, i);  // sender-side seq preserved
    EXPECT_EQ(msg->payload_tag, static_cast<std::uint32_t>(kMsgNop));
    auto nop = std::static_pointer_cast<NopMessage>(msg->payload);
    EXPECT_EQ(nop->ts.local_seq, i - 1);
  }
  EXPECT_EQ(bus_b.stats().wire_seq_violations.load(), 0u);
}

// Recovery fences a dead peer (Detach), resets its sequence state
// (ResetPeer), and only then installs the replacement's link
// (ReplaceRemote). A send that lands between the last two must fail
// without taking a sequence number, or the fresh process sees seq 2 as
// its first frame and poisons its own uplink.
TEST(Transport, SendToFencedRemoteBurnsNoSequence) {
  MessageBus bus_a;
  bus_a.SetWireEncoder(EncodePayload);
  auto old_pair = SocketTransport::CreatePair();
  ASSERT_TRUE(old_pair.ok());
  std::shared_ptr<Transport> old_side = std::move(old_pair->first);
  std::shared_ptr<Transport> old_peer = std::move(old_pair->second);
  const EndpointId peer = bus_a.RegisterRemote("peer", old_side);
  const EndpointId sender =
      bus_a.RegisterHandler("sender", [](const BusMessage&) {});
  const auto nop = [] { return std::make_shared<NopMessage>(); };
  ASSERT_TRUE(bus_a.Send(sender, peer, kMsgNop, nop()).ok());

  bus_a.Detach(peer);
  bus_a.ResetPeer(peer);
  EXPECT_TRUE(bus_a.Send(sender, peer, kMsgNop, nop()).IsUnavailable());

  // The replacement process: a fresh bus with the mirrored layout.
  auto new_pair = SocketTransport::CreatePair();
  ASSERT_TRUE(new_pair.ok());
  std::shared_ptr<Transport> new_side = std::move(new_pair->first);
  std::shared_ptr<Transport> b_side = std::move(new_pair->second);
  MessageBus bus_b;
  bus_b.SetWireEncoder(EncodePayload);
  auto inbox = std::make_shared<BlockingQueue<BusMessage>>();
  ASSERT_EQ(bus_b.RegisterInbox("peer", inbox), peer);
  ASSERT_EQ(bus_b.RegisterRemote("sender", b_side), sender);
  WireLink link_b(LinkOptions(&bus_b, b_side, "replacement.uplink"));

  bus_a.ReplaceRemote(peer, new_side);
  ASSERT_TRUE(bus_a.Send(sender, peer, kMsgNop, nop()).ok());
  std::optional<BusMessage> msg;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!msg.has_value() && bus_b.stats().wire_seq_violations.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    msg = inbox->TryPop();
    if (!msg.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(bus_b.stats().wire_seq_violations.load(), 0u);
  ASSERT_TRUE(msg.has_value()) << "the replacement never accepted a frame";
  EXPECT_EQ(msg->channel_seq, 1u);
}

// The receiver must fail loudly when frames arrive out of order: craft
// two frames and swap them on the wire.
TEST(Transport, ReorderedFramesFailLoudly) {
  MessageBus bus;
  auto inbox = std::make_shared<BlockingQueue<BusMessage>>();
  const EndpointId dst = bus.RegisterInbox("shard", inbox);

  auto make = [&](std::uint64_t seq) {
    BusMessage msg;
    msg.src = 40;
    msg.dst = dst;
    msg.channel_seq = seq;
    msg.payload_tag = kMsgNop;
    msg.payload = std::make_shared<NopMessage>();
    return msg;
  };

  // In-order delivery is accepted...
  ASSERT_TRUE(bus.DeliverWire(make(1), false).ok());
  // ...a reordered (future) frame is rejected loudly...
  const Status gap = bus.DeliverWire(make(3), false);
  EXPECT_TRUE(gap.IsInternal()) << gap.ToString();
  EXPECT_EQ(bus.stats().wire_seq_violations.load(), 1u);
  // ...and so is the late frame that would have "filled" the gap after a
  // swap, plus any replay of an already-accepted sequence number.
  EXPECT_TRUE(bus.DeliverWire(make(1), false).IsInternal());
  EXPECT_EQ(bus.stats().wire_seq_violations.load(), 2u);
  // The in-order successor is still accepted (per-channel bookkeeping
  // was not corrupted by the rejected frames).
  EXPECT_TRUE(bus.DeliverWire(make(2), false).ok());
}

// End-to-end reorder through a WireLink: swap two encoded frames on the
// raw socket and watch the link fail loudly instead of delivering.
TEST(Transport, LinkRejectsSwappedFrames) {
  auto pair = SocketTransport::CreatePair();
  ASSERT_TRUE(pair.ok());
  std::shared_ptr<Transport> tx_side = std::move(pair->first);
  std::shared_ptr<Transport> rx_side = std::move(pair->second);

  MessageBus bus;
  auto inbox = std::make_shared<BlockingQueue<BusMessage>>();
  (void)bus.RegisterInbox("shard", inbox);

  WireLink link(LinkOptions(&bus, rx_side, "reorder.uplink"));

  auto frame = [&](std::uint64_t seq) {
    wire::Writer w;
    Encode(NopMessage{}, &w);
    wire::FrameHeader h;
    h.tag = kMsgNop;
    h.src = 9;
    h.dst = 0;
    h.channel_seq = seq;
    return wire::EncodeFrame(h, w.str());
  };
  // Seq 2 before seq 1: the link must reject and poison itself. The
  // second send may already fail -- the link tears the socket down as
  // soon as it sees the violation.
  ASSERT_TRUE(tx_side->SendBytes(frame(2)).ok());
  (void)tx_side->SendBytes(frame(1));
  link.WaitClosed();
  EXPECT_FALSE(link.error().ok());
  EXPECT_GE(bus.stats().wire_seq_violations.load(), 1u);
  EXPECT_EQ(inbox->Size(), 0u);  // nothing out-of-order was delivered
}

// Hub forwarding: frames addressed to a remote endpoint of the receiving
// bus transit it verbatim (parent-as-hub between two children).
TEST(Transport, HubForwardsFramesBetweenLinks) {
  // child A --pair1-- hub --pair2-- child B, all in one process.
  auto pair1 = SocketTransport::CreatePair();
  auto pair2 = SocketTransport::CreatePair();
  ASSERT_TRUE(pair1.ok() && pair2.ok());
  std::shared_ptr<Transport> a_to_hub = std::move(pair1->first);
  std::shared_ptr<Transport> hub_from_a = std::move(pair1->second);
  std::shared_ptr<Transport> hub_to_b = std::move(pair2->first);
  std::shared_ptr<Transport> b_from_hub = std::move(pair2->second);

  // Shared layout: 0 = shard A, 1 = shard B.
  MessageBus hub;
  hub.SetWireEncoder(EncodePayload);
  (void)hub.RegisterRemote("shardA", hub_from_a);
  (void)hub.RegisterRemote("shardB", hub_to_b);
  WireLink hub_link(LinkOptions(&hub, hub_from_a, "hub.fromA"));

  MessageBus bus_b;
  bus_b.SetWireEncoder(EncodePayload);
  auto inbox_b = std::make_shared<BlockingQueue<BusMessage>>();
  (void)bus_b.RegisterRemote("shardA", b_from_hub);
  const EndpointId shard_b = bus_b.RegisterInbox("shardB", inbox_b);
  ASSERT_EQ(shard_b, 1u);
  WireLink b_link(LinkOptions(&bus_b, b_from_hub, "b.uplink"));

  MessageBus bus_a;
  bus_a.SetWireEncoder(EncodePayload);
  const EndpointId self_a =
      bus_a.RegisterHandler("shardA", [](const BusMessage&) {});
  ASSERT_EQ(self_a, 0u);
  const EndpointId remote_b = bus_a.RegisterRemote("shardB", a_to_hub);
  ASSERT_EQ(remote_b, 1u);

  auto batch = std::make_shared<WaveHopBatchMessage>();
  batch->program_id = 5;
  batch->program_name = "bfs";
  batch->hops.push_back(NextHop{77, "deep"});
  ASSERT_TRUE(
      bus_a.Send(self_a, remote_b, kMsgWaveHops, std::move(batch)).ok());

  auto msg = inbox_b->Pop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->src, 0u);
  EXPECT_EQ(msg->channel_seq, 1u);
  auto got = std::static_pointer_cast<WaveHopBatchMessage>(msg->payload);
  EXPECT_EQ(got->program_id, 5u);
  ASSERT_EQ(got->hops.size(), 1u);
  EXPECT_EQ(got->hops[0].node, 77u);
  EXPECT_EQ(got->hops[0].params, "deep");
  // The delivery to B can race ahead of the hub thread's own stats
  // update; give the counter a moment.
  for (int spin = 0;
       spin < 2000 && hub_link.stats().frames_forwarded.load() == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(hub_link.stats().frames_forwarded.load(), 1u);
}

// Session-style stress over a socketpair: several threads hammer one
// remote endpoint through the bus while a second bus delivers into a
// bounded inbox. This is the TSan target for the transport locking
// (write mutex, parser thread, seq bookkeeping).
TEST(Transport, ConcurrentSendersStressOverSocket) {
  auto pair = SocketTransport::CreatePair();
  ASSERT_TRUE(pair.ok());
  std::shared_ptr<Transport> send_side = std::move(pair->first);
  std::shared_ptr<Transport> recv_side = std::move(pair->second);

  MessageBus bus_tx;
  bus_tx.SetWireEncoder(EncodePayload);
  MessageBus bus_rx;
  bus_rx.SetWireEncoder(EncodePayload);

  auto inbox = std::make_shared<BlockingQueue<BusMessage>>(256);
  const EndpointId remote = bus_tx.RegisterRemote("sink", send_side);
  const EndpointId sink = bus_rx.RegisterInbox("sink", inbox);
  ASSERT_EQ(remote, sink);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<EndpointId> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.push_back(bus_tx.RegisterHandler("sender" + std::to_string(t),
                                             [](const BusMessage&) {}));
    (void)bus_rx.RegisterRemote("sender" + std::to_string(t), recv_side);
  }

  std::atomic<std::uint64_t> drained{0};
  std::thread consumer([&] {
    while (true) {
      auto msg = inbox->Pop();
      if (!msg.has_value()) return;
      drained.fetch_add(1);
    }
  });

  WireLink link(LinkOptions(&bus_rx, recv_side, "stress.uplink"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto tx = std::make_shared<TxMessage>();
        tx->ops.push_back(GraphOp::AssignNodeProp(
            static_cast<NodeId>(i), "k", std::to_string(t)));
        ASSERT_TRUE(
            bus_tx.Send(senders[t], remote, kMsgTx, std::move(tx)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (drained.load() < kThreads * kPerThread &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(drained.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(bus_rx.stats().wire_seq_violations.load(), 0u);
  inbox->Close();
  consumer.join();
}

}  // namespace
}  // namespace weaver
