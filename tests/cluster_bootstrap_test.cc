// Cluster-bootstrap handshake tests (cluster/bootstrap.h): the refusal
// taxonomy a joining weaver-serverd can hit, the wildcard-slot path, and
// the invariant that a refused or half-finished joiner leaves no state
// behind -- the slot stays open and the next attempt succeeds.
//
// Everything here runs in-process: the "joiner" side is JoinCluster (the
// exact code path weaver-serverd uses) or a raw socket for the
// disconnect/garbage cases. Exec'ing a real serverd binary is covered by
// the multiprocess smoke test.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <future>
#include <string>

#include <gtest/gtest.h>

#include "cluster/bootstrap.h"
#include "cluster/handshake.h"
#include "coord/serverd.h"
#include "core/messages.h"

namespace weaver {
namespace cluster {
namespace {

constexpr std::uint64_t kJoinTimeout = 2'000'000;  // 2s per joiner attempt

ClusterListener::Options BaseOptions() {
  ClusterListener::Options o;
  o.token = "secret";
  o.cluster_epoch = 5;
  o.handshake_timeout_micros = 500'000;
  o.accept_timeout_micros = 5'000'000;
  return o;
}

// A plausible assignment image; the listener stamps role/shard/epoch at
// accept time, so the same image serves every slot.
RoleAssignMessage Assignment() {
  serverd::ShardServerOptions so;
  so.num_shards = 2;
  so.num_gatekeepers = 1;
  return serverd::AssignmentFromOptions(so);
}

JoinRequestMessage GoodRequest(NodeRole role, std::uint32_t shard_id) {
  JoinRequestMessage req;
  req.role = role;
  req.shard_id = shard_id;
  req.token = "secret";
  req.pid = 4242;
  return req;
}

// Connects a raw loopback socket to `port` (no handshake traffic).
int RawConnect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST(ClusterBootstrapTest, RefusalTaxonomyThenAcceptance) {
  auto listener = ClusterListener::Open(BaseOptions());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ClusterListener& l = **listener;
  ASSERT_TRUE(l.OpenSlot(NodeRole::kShard, 0, Assignment()).ok());

  // The accept loop must survive every refusal below and still hand back
  // the eventual valid joiner.
  auto accepted =
      std::async(std::launch::async, [&] { return l.AcceptJoin(); });

  // Codec-version skew.
  JoinRequestMessage bad_version = GoodRequest(NodeRole::kShard, 0);
  bad_version.codec_version = kWireCodecVersion + 1;
  auto r = JoinCluster(l.port(), bad_version, kJoinTimeout);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();

  // Wrong join token.
  JoinRequestMessage bad_token = GoodRequest(NodeRole::kShard, 0);
  bad_token.token = "wrong";
  r = JoinCluster(l.port(), bad_token, kJoinTimeout);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted()) << r.status().ToString();

  // Stale expected epoch (a respawn from a previous incarnation).
  JoinRequestMessage stale = GoodRequest(NodeRole::kShard, 0);
  stale.cluster_epoch = 4;  // listener is at 5
  r = JoinCluster(l.port(), stale, kJoinTimeout);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();

  // No open slot for (role, id).
  r = JoinCluster(l.port(), GoodRequest(NodeRole::kShard, 7), kJoinTimeout);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
  r = JoinCluster(l.port(), GoodRequest(NodeRole::kOracle, 0), kJoinTimeout);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();

  // The valid joiner, with no epoch expectation (fresh exec).
  auto good = JoinCluster(l.port(), GoodRequest(NodeRole::kShard, 0),
                          kJoinTimeout);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->assignment.role, NodeRole::kShard);
  EXPECT_EQ(good->assignment.shard_id, 0u);
  EXPECT_EQ(good->assignment.cluster_epoch, 5u);
  EXPECT_EQ(good->assignment.num_shards, 2u);
  EXPECT_EQ(good->assignment.num_gatekeepers, 1u);

  auto joined = accepted.get();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->role, NodeRole::kShard);
  EXPECT_EQ(joined->shard_id, 0u);
  EXPECT_EQ(joined->pid, 4242u);
  ASSERT_GE(joined->fd, 0);

  // Duplicate: the shard-0 slot is live now. Another accept loop (fed by
  // an open oracle slot so it can terminate) must refuse the duplicate.
  ASSERT_TRUE(l.OpenSlot(NodeRole::kOracle, 0, Assignment()).ok());
  auto accepted2 =
      std::async(std::launch::async, [&] { return l.AcceptJoin(); });
  r = JoinCluster(l.port(), GoodRequest(NodeRole::kShard, 0), kJoinTimeout);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAlreadyExists()) << r.status().ToString();
  auto oracle = JoinCluster(l.port(), GoodRequest(NodeRole::kOracle, 0),
                            kJoinTimeout);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(oracle->assignment.role, NodeRole::kOracle);
  auto joined2 = accepted2.get();
  ASSERT_TRUE(joined2.ok()) << joined2.status().ToString();
  EXPECT_EQ(joined2->role, NodeRole::kOracle);

  auto stats = l.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_version, 1u);
  EXPECT_EQ(stats.rejected_token, 1u);
  EXPECT_EQ(stats.rejected_epoch, 1u);
  EXPECT_EQ(stats.rejected_duplicate, 1u);
  EXPECT_EQ(stats.rejected_no_slot, 2u);
  EXPECT_EQ(stats.handshake_failures, 0u);

  ::close(good->fd);
  ::close(oracle->fd);
  ::close(joined->fd);
  ::close(joined2->fd);
}

TEST(ClusterBootstrapTest, WildcardShardIdFillsOpenSlot) {
  auto listener = ClusterListener::Open(BaseOptions());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ClusterListener& l = **listener;
  ASSERT_TRUE(l.OpenSlot(NodeRole::kShard, 3, Assignment()).ok());

  auto accepted =
      std::async(std::launch::async, [&] { return l.AcceptJoin(); });
  auto good = JoinCluster(l.port(), GoodRequest(NodeRole::kShard, kAnyShard),
                          kJoinTimeout);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  // The wildcard is resolved to the concrete open slot.
  EXPECT_EQ(good->assignment.shard_id, 3u);
  auto joined = accepted.get();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->shard_id, 3u);
  ::close(good->fd);
  ::close(joined->fd);
}

TEST(ClusterBootstrapTest, AcceptedLinkDisablesNagle) {
  // The accepted fd carries the joiner's data-plane traffic afterwards;
  // with Nagle on, small frames wait for delayed ACKs (~40ms per round).
  auto listener = ClusterListener::Open(BaseOptions());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ClusterListener& l = **listener;
  ASSERT_TRUE(l.OpenSlot(NodeRole::kShard, 0, Assignment()).ok());

  auto accepted =
      std::async(std::launch::async, [&] { return l.AcceptJoin(); });
  auto good =
      JoinCluster(l.port(), GoodRequest(NodeRole::kShard, 0), kJoinTimeout);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  auto joined = accepted.get();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  for (const int fd : {joined->fd, good->fd}) {
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_NE(nodelay, 0) << "fd " << fd;
  }
  ::close(good->fd);
  ::close(joined->fd);
}

TEST(ClusterBootstrapTest, MidHandshakeDisconnectLeaksNoState) {
  auto listener = ClusterListener::Open(BaseOptions());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ClusterListener& l = **listener;
  ASSERT_TRUE(l.OpenSlot(NodeRole::kShard, 0, Assignment()).ok());

  auto accepted =
      std::async(std::launch::async, [&] { return l.AcceptJoin(); });

  // Connect and vanish before sending anything (EOF mid-handshake).
  int eof_fd = RawConnect(l.port());
  ::close(eof_fd);

  // Connect and spray garbage that can never parse as a wire frame.
  int garbage_fd = RawConnect(l.port());
  std::string garbage(64, 'x');
  ASSERT_EQ(::write(garbage_fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  ::close(garbage_fd);

  // Neither attempt consumed the slot: a well-formed joiner still lands.
  auto good = JoinCluster(l.port(), GoodRequest(NodeRole::kShard, 0),
                          kJoinTimeout);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  auto joined = accepted.get();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();

  auto stats = l.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_GE(stats.handshake_failures, 2u);
  EXPECT_EQ(stats.rejected_version + stats.rejected_token +
                stats.rejected_epoch + stats.rejected_duplicate +
                stats.rejected_no_slot,
            0u);

  ::close(good->fd);
  ::close(joined->fd);
}

TEST(ClusterBootstrapTest, ReleaseRoleReopensForRespawn) {
  auto listener = ClusterListener::Open(BaseOptions());
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ClusterListener& l = **listener;
  ASSERT_TRUE(l.OpenSlot(NodeRole::kGatekeeper, 0, Assignment()).ok());

  auto accepted =
      std::async(std::launch::async, [&] { return l.AcceptJoin(); });
  auto first = JoinCluster(l.port(), GoodRequest(NodeRole::kGatekeeper, 0),
                           kJoinTimeout);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto joined = accepted.get();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ::close(first->fd);
  ::close(joined->fd);

  // Fence + release: the slot is gone entirely, so a joiner is refused
  // with NotFound (not AlreadyExists -- the dead incarnation holds
  // nothing).
  l.ReleaseRole(NodeRole::kGatekeeper, 0);
  ASSERT_TRUE(l.OpenSlot(NodeRole::kOracle, 0, Assignment()).ok());
  auto accepted2 =
      std::async(std::launch::async, [&] { return l.AcceptJoin(); });
  auto refused = JoinCluster(l.port(), GoodRequest(NodeRole::kGatekeeper, 0),
                             kJoinTimeout);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsNotFound()) << refused.status().ToString();
  auto oracle = JoinCluster(l.port(), GoodRequest(NodeRole::kOracle, 0),
                            kJoinTimeout);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  auto joined2 = accepted2.get();
  ASSERT_TRUE(joined2.ok()) << joined2.status().ToString();
  ::close(oracle->fd);
  ::close(joined2->fd);

  // Respawn path: re-open the slot (epoch bumped, as a recovery would)
  // and the replacement joins.
  l.set_cluster_epoch(6);
  ASSERT_TRUE(l.OpenSlot(NodeRole::kGatekeeper, 0, Assignment()).ok());
  auto accepted3 =
      std::async(std::launch::async, [&] { return l.AcceptJoin(); });
  auto second = JoinCluster(l.port(), GoodRequest(NodeRole::kGatekeeper, 0),
                            kJoinTimeout);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->assignment.cluster_epoch, 6u);
  auto joined3 = accepted3.get();
  ASSERT_TRUE(joined3.ok()) << joined3.status().ToString();
  ::close(second->fd);
  ::close(joined3->fd);

  // Double-open of a live or open slot is refused.
  EXPECT_TRUE(l.OpenSlot(NodeRole::kOracle, 0, Assignment())
                  .IsFailedPrecondition());
}

TEST(ClusterBootstrapTest, AcceptTimesOutWithNoJoiner) {
  auto opts = BaseOptions();
  opts.accept_timeout_micros = 200'000;
  auto listener = ClusterListener::Open(opts);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ClusterListener& l = **listener;
  ASSERT_TRUE(l.OpenSlot(NodeRole::kShard, 0, Assignment()).ok());
  auto joined = l.AcceptJoin();
  ASSERT_FALSE(joined.ok());
  EXPECT_TRUE(joined.status().IsDeadlineExceeded())
      << joined.status().ToString();
}

}  // namespace
}  // namespace cluster
}  // namespace weaver
