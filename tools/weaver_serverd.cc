// weaver-serverd: the standalone cluster server binary
// (docs/transport.md#cluster-bootstrap).
//
// Launched by exec -- from a shell, a process supervisor, or the parent
// deployment's ShardSupervisor respawn path -- with NOTHING inherited
// but its command line. It dials the coordinator's cluster listener,
// runs the versioned join handshake (cluster/handshake.h), and becomes
// whatever the RoleAssign says: a shard server, the timeline-oracle
// service, or an out-of-parent gatekeeper. Every configuration knob
// arrives in the assignment; the command line only says where to join
// and what to ask for.
//
//   weaver-serverd --join=127.0.0.1:<port> [--token=<secret>]
//                  [--role=shard|oracle|gatekeeper|spare]
//                  [--shard=<id>]
//
// Omitting --shard wildcards the id: the coordinator fills any open slot
// of the requested role. A refusal (version mismatch, bad token, stale
// epoch, duplicate id) prints the coordinator's status and exits 2.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "cluster/handshake.h"
#include "coord/serverd.h"
#include "core/messages.h"

using namespace weaver;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --join=127.0.0.1:<port> [--token=<secret>]\n"
               "          [--role=shard|oracle|gatekeeper|spare] "
               "[--shard=<id>]\n",
               argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t join_port = 0;
  JoinRequestMessage request;
  request.pid = static_cast<std::uint64_t>(::getpid());

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--join=", 0) == 0) {
      const std::string_view addr = arg.substr(7);
      const std::size_t colon = addr.rfind(':');
      if (colon == std::string_view::npos) return Usage(argv[0]);
      const std::string_view host = addr.substr(0, colon);
      if (host != "127.0.0.1" && host != "localhost") {
        std::fprintf(stderr,
                     "weaver-serverd: only loopback coordinators are "
                     "supported (got %.*s)\n",
                     static_cast<int>(host.size()), host.data());
        return 64;
      }
      join_port = static_cast<std::uint16_t>(
          std::strtoul(std::string(addr.substr(colon + 1)).c_str(), nullptr,
                       10));
    } else if (arg.rfind("--token=", 0) == 0) {
      request.token = std::string(arg.substr(8));
    } else if (arg.rfind("--role=", 0) == 0) {
      auto role = cluster::ParseRole(std::string(arg.substr(7)));
      if (!role.ok()) {
        std::fprintf(stderr, "weaver-serverd: %s\n",
                     role.status().ToString().c_str());
        return 64;
      }
      request.role = *role;
    } else if (arg.rfind("--shard=", 0) == 0) {
      request.shard_id = static_cast<std::uint32_t>(
          std::strtoul(std::string(arg.substr(8)).c_str(), nullptr, 10));
    } else {
      return Usage(argv[0]);
    }
  }
  if (join_port == 0) return Usage(argv[0]);

  auto joined = cluster::JoinCluster(join_port, request,
                                     /*timeout_micros=*/10'000'000);
  if (!joined.ok()) {
    std::fprintf(stderr, "weaver-serverd: join refused: %s\n",
                 joined.status().ToString().c_str());
    return 2;
  }
  const RoleAssignMessage& assign = joined->assignment;
  const serverd::ShardServerOptions options =
      serverd::OptionsFromAssignment(assign);
  std::fprintf(stderr, "weaver-serverd: joined as %s/%u (epoch %u)\n",
               cluster::RoleName(assign.role), assign.shard_id,
               assign.cluster_epoch);

  switch (assign.role) {
    case NodeRole::kShard:
      return serverd::RunShardServer(joined->fd,
                                     static_cast<ShardId>(assign.shard_id),
                                     options, assign.rehydrate);
    case NodeRole::kOracle:
      return serverd::RunOracleServer(joined->fd, options);
    case NodeRole::kGatekeeper:
      return serverd::RunGatekeeperServer(
          joined->fd, static_cast<GatekeeperId>(assign.shard_id), options,
          assign.cluster_epoch);
    case NodeRole::kSpare:
      // A process is spawned when (and as what) it is needed, so a spare
      // assignment means misconfiguration.
      std::fprintf(stderr,
                   "weaver-serverd: there is no spare role; ask for "
                   "shard, oracle, or gatekeeper\n");
      return 64;
  }
  return 64;
}
