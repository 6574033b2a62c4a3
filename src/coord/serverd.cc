#include "coord/serverd.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "core/message_codec.h"
#include "core/locator.h"
#include "core/messages.h"
#include "core/node_program.h"
#include "net/transport.h"
#include "net/wire_link.h"
#include "oracle/oracle_client.h"
#include "oracle/oracle_service.h"
#include "oracle/timeline_oracle.h"
#include "shard/shard.h"

namespace weaver {
namespace serverd {

EndpointLayout EndpointLayout::Compute(std::size_t num_shards,
                                       std::size_t num_gatekeepers,
                                       bool with_oracle,
                                       bool with_remote_gatekeepers) {
  // Mirrors Weaver's registration order exactly: shards first (one
  // endpoint each), then per-gatekeeper (server, client ingress) pairs,
  // then the program coordinator, then (oracle deployments only) the
  // oracle service and the per-process reply endpoints. Weaver asserts
  // this layout when it opens a remote deployment, so drift fails loudly
  // at boot.
  EndpointLayout layout;
  for (std::size_t s = 0; s < num_shards; ++s) {
    layout.shards.push_back(static_cast<EndpointId>(s));
  }
  for (std::size_t g = 0; g < num_gatekeepers; ++g) {
    layout.gatekeepers.push_back(
        static_cast<EndpointId>(num_shards + 2 * g));
    layout.gatekeeper_clients.push_back(
        static_cast<EndpointId>(num_shards + 2 * g + 1));
  }
  layout.coordinator =
      static_cast<EndpointId>(num_shards + 2 * num_gatekeepers);
  layout.with_oracle = with_oracle;
  if (with_oracle) {
    layout.oracle = layout.coordinator + 1;
    for (std::size_t s = 0; s < num_shards; ++s) {
      layout.oracle_clients.push_back(
          static_cast<EndpointId>(layout.oracle + 1 + s));
    }
    layout.parent_oracle_client =
        static_cast<EndpointId>(layout.oracle + 1 + num_shards);
  }
  layout.with_remote_gatekeepers = with_remote_gatekeepers;
  if (with_remote_gatekeepers) {
    EndpointId base = static_cast<EndpointId>(
        (with_oracle ? layout.parent_oracle_client : layout.coordinator) + 1);
    for (std::size_t g = 0; g < num_gatekeepers; ++g) {
      layout.gk_agents.push_back(static_cast<EndpointId>(base + g));
    }
    for (std::size_t g = 0; g < num_gatekeepers; ++g) {
      layout.gk_controls.push_back(
          static_cast<EndpointId>(base + num_gatekeepers + g));
    }
  }
  return layout;
}

RoleAssignMessage AssignmentFromOptions(const ShardServerOptions& options) {
  RoleAssignMessage m;
  m.num_shards = static_cast<std::uint32_t>(options.num_shards);
  m.num_gatekeepers = static_cast<std::uint32_t>(options.num_gatekeepers);
  m.inbox_capacity = options.inbox_capacity;
  m.queue_high_water = options.queue_high_water;
  m.max_hops_per_cycle = options.max_hops_per_cycle;
  m.remote_oracle = options.remote_oracle;
  m.remote_gatekeepers = options.remote_gatekeepers;
  m.oracle_rpc_timeout_micros = options.oracle_rpc_timeout_micros;
  m.oracle_total_deadline_micros = options.oracle_total_deadline_micros;
  m.oracle_data_dir = options.oracle_data_dir;
  m.oracle_snapshot_every = options.oracle_snapshot_every;
  m.oracle_fsync = static_cast<std::uint8_t>(options.oracle_fsync);
  m.tau_micros = options.tau_micros;
  m.nop_period_micros = options.nop_period_micros;
  m.client_workers = options.client_workers;
  m.client_batch = options.client_batch;
  m.client_lane_capacity = options.client_lane_capacity;
  m.max_inflight_programs = options.max_inflight_programs;
  m.nop_high_water = options.nop_high_water;
  m.announce_capacity = options.announce_capacity;
  return m;
}

ShardServerOptions OptionsFromAssignment(const RoleAssignMessage& assign) {
  ShardServerOptions options;
  options.num_shards = assign.num_shards;
  options.num_gatekeepers = assign.num_gatekeepers;
  options.inbox_capacity = assign.inbox_capacity;
  options.queue_high_water = assign.queue_high_water;
  options.max_hops_per_cycle = assign.max_hops_per_cycle;
  options.remote_oracle = assign.remote_oracle;
  options.remote_gatekeepers = assign.remote_gatekeepers;
  options.oracle_rpc_timeout_micros = assign.oracle_rpc_timeout_micros;
  options.oracle_total_deadline_micros = assign.oracle_total_deadline_micros;
  options.oracle_data_dir = assign.oracle_data_dir;
  options.oracle_snapshot_every = assign.oracle_snapshot_every;
  options.oracle_fsync = assign.oracle_fsync <= 1
                             ? static_cast<FsyncPolicy>(assign.oracle_fsync)
                             : FsyncPolicy::kNever;
  options.tau_micros = assign.tau_micros;
  options.nop_period_micros = assign.nop_period_micros;
  options.client_workers = assign.client_workers;
  options.client_batch = assign.client_batch;
  options.client_lane_capacity = assign.client_lane_capacity;
  options.max_inflight_programs = assign.max_inflight_programs;
  options.nop_high_water = assign.nop_high_water;
  options.announce_capacity = assign.announce_capacity;
  return options;
}

namespace {

/// Exports a TimelineOracle's counters (the authoritative oracle in
/// weaver-oracled, a shard's local replica otherwise) into `metrics`
/// under "oracle.*". The oracle must outlive the registry.
void ExportOracleMetrics(obs::MetricsRegistry* metrics,
                         const TimelineOracle* oracle) {
  const TimelineOracle::Stats& os = oracle->stats();
  const auto counter = [&](const char* name,
                           const std::atomic<std::uint64_t>& v) {
    metrics->AddCounterFn(std::string("oracle.") + name, [&v] {
      return v.load(std::memory_order_relaxed);
    });
  };
  counter("order_requests", os.order_requests);
  counter("queries", os.queries);
  counter("edges_established", os.edges_established);
  counter("vclock_resolved", os.vclock_resolved);
  counter("dag_resolved", os.dag_resolved);
  counter("events_collected", os.events_collected);
  metrics->AddGaugeFn("oracle.live_events", [oracle] {
    return static_cast<std::int64_t>(oracle->LiveEvents());
  });
}

}  // namespace

int RunShardServer(int parent_fd, ShardId shard_id,
                   const ShardServerOptions& options, bool rehydrate) {
  const EndpointLayout layout = EndpointLayout::Compute(
      options.num_shards, options.num_gatekeepers, options.remote_oracle,
      options.remote_gatekeepers);

  // Per-process registry, declared before every component so DropPrefix
  // in their destructors finds it alive. The shard answers
  // kMsgMetricsRequest with a snapshot of this registry, which is how the
  // parent's Weaver::CollectMetrics sees into this process.
  obs::MetricsRegistry metrics;

  MessageBus bus;
  bus.SetMetrics(&metrics);
  bus.SetWireEncoder(EncodePayload);
  auto transport =
      std::shared_ptr<Transport>(SocketTransport::Adopt(parent_fd));

  // Shard-local replicas of the deployment-wide state a shard consults:
  // the timeline-oracle view, the program registry, and a hash-fallback
  // vertex directory (remote deployments use hash placement, so
  // ownership is computable without the backing store). Without the
  // oracle service the view is an authoritative process-local oracle
  // (reactive refinement; see docs/transport.md#limitations); with it,
  // an OracleClient replica whose misses become RPCs to weaver-oracled.
  TimelineOracle oracle;
  OracleClient::Options co;
  if (options.remote_oracle) {
    co.bus = &bus;
    co.self = layout.oracle_clients[shard_id];
    co.service = layout.oracle;
    co.rpc_timeout_micros = options.oracle_rpc_timeout_micros;
    co.total_deadline_micros = options.oracle_total_deadline_micros;
  } else {
    co.local = &oracle;
  }
  OracleClient client(co);
  auto programs = ProgramRegistry::WithStandardPrograms();
  const std::size_t num_shards = options.num_shards;
  NodeLocator locator(num_shards, [num_shards](NodeId node) {
    return static_cast<ShardId>(MixHash64(node) % num_shards);
  });

  // The shard-local oracle view's counters ride along in this process's
  // reports; cluster-wide merges sum them with the parent's.
  ExportOracleMetrics(&metrics, &client.view());
  if (options.remote_oracle) {
    const OracleClient::Stats& cs = client.stats();
    const auto counter = [&](const char* name,
                             const std::atomic<std::uint64_t>& v) {
      metrics.AddCounterFn(std::string("oracle.client.") + name, [&v] {
        return v.load(std::memory_order_relaxed);
      });
    };
    counter("local_hits", cs.local_hits);
    counter("rpcs", cs.rpcs);
    counter("retries", cs.retries);
    counter("unavailable", cs.unavailable);
    counter("sync_edges_applied", cs.sync_edges_applied);
  }

  // Mirror the endpoint layout: this shard's real server at its own id,
  // its oracle-client reply handler at its reply id (oracle deployments),
  // a remote proxy through the parent link everywhere else. Ids are
  // assigned by registration order, so the loop must visit every id in
  // order; drift means frames would misroute, so it fails hard even in
  // release builds.
  std::unique_ptr<Shard> shard;
  for (EndpointId id = 0; id <= layout.max_endpoint(); ++id) {
    EndpointId got;
    if (id == layout.shards[shard_id]) {
      Shard::Options so;
      so.id = shard_id;
      so.num_gatekeepers = options.num_gatekeepers;
      so.bus = &bus;
      so.oracle = options.remote_oracle ? nullptr : &oracle;
      so.oracle_client = options.remote_oracle ? &client : nullptr;
      so.programs = programs;
      so.locator = &locator;
      so.inbox_capacity = options.inbox_capacity;
      so.queue_high_water = options.queue_high_water;
      so.max_hops_per_cycle = options.max_hops_per_cycle;
      so.metrics = &metrics;
      // This process owns its oracle view; the parent's GC watermark
      // arrives as kMsgGc and must trim it here, or view memory grows
      // without bound (the PR 5 soft spot).
      so.gc_oracle = true;
      shard = std::make_unique<Shard>(so);
      got = shard->endpoint();
    } else if (options.remote_oracle &&
               id == layout.oracle_clients[shard_id]) {
      // Inline handler: runs on the link's receive thread and only pokes
      // the client's pending-call table, so it never blocks the link.
      got = bus.RegisterHandler(
          "shard" + std::to_string(shard_id) + ".oracle-client",
          [&client](const BusMessage& msg) {
            if (msg.payload_tag != kMsgOracleReply) return;
            client.OnReply(
                *std::static_pointer_cast<OracleReplyMessage>(msg.payload));
          });
    } else {
      got = bus.RegisterRemote("peer" + std::to_string(id), transport);
    }
    if (got != id) {
      std::fprintf(stderr,
                   "weaver-serverd: endpoint layout drifted (got %u, want "
                   "%u)\n",
                   got, id);
      return 1;
    }
  }
  shard->SetShardEndpoints(layout.shards);
  shard->Start();

  // Oracle channels are idempotent request/reply: during an oracle
  // failover the hub drops fenced frames (burning sender sequence
  // numbers a respawned process never sees), so this shard takes a
  // first-contact baseline for them instead of hard-failing its uplink
  // on the gap. Shard-to-shard wave channels stay strict.
  if (options.remote_oracle) bus.AllowFirstContact(layout.oracle);
  // Same for out-of-parent gatekeepers: they keep streaming nop ticks and
  // commit slices at a fenced shard endpoint the whole time its
  // replacement is being brought up, and the hub drops those frames while
  // burning the senders' sequence numbers. The dropped slices are
  // re-applied by the supervisor's REPLAY step and nop ticks are
  // idempotent watermark carriers, so a respawned shard baselines on the
  // first gatekeeper frame it actually observes.
  if (options.remote_gatekeepers) {
    for (const EndpointId gk : layout.gatekeepers) bus.AllowFirstContact(gk);
  }
  // A replacement process baselines peer-shard channels as well: a
  // surviving shard can emit one last wave hop at the fenced endpoint
  // after its reset ran (the hub drops it and burns the sequence number),
  // and the program that hop belonged to was failed at the fence and is
  // retried by the client. Cold boots stay strict -- nothing burns before
  // first contact there, so the FIFO tripwire keeps its teeth where it
  // matters.
  if (rehydrate) {
    for (ShardId s = 0; s < options.num_shards; ++s) {
      if (s != shard_id) bus.AllowFirstContact(layout.shards[s]);
    }
  }

  // Inbound link from the parent hub. Everything this shard can receive
  // is addressed to it directly, so no hub forwarding happens here.
  WireLink::Options lo;
  lo.bus = &bus;
  lo.transport = transport;
  lo.decode = DecodePayload;
  lo.never_block = WireNeverBlock;
  lo.name = "shard" + std::to_string(shard_id) + ".uplink";
  WireLink link(std::move(lo));

  // Respawn path: pull the oracle service's full edge dump before
  // serving, so refinements established before our predecessor crashed
  // are visible locally again. A failed sync is degraded but safe -- the
  // replica is a cache, and pairs it cannot answer go back to the
  // service -- so serve anyway rather than fail the respawn.
  if (rehydrate && options.remote_oracle) {
    const Status synced = client.Sync();
    if (!synced.ok()) {
      std::fprintf(stderr,
                   "weaver-serverd: shard %u oracle rehydration failed "
                   "(serving with a cold replica): %s\n",
                   shard_id, synced.ToString().c_str());
    }
  }

  // Serve until the parent goes away: a Stop message closes the shard's
  // inbox, and the parent tearing down the socket EOFs the link.
  link.WaitClosed();
  shard->Stop();
  return link.error().ok() || link.error().IsUnavailable() ? 0 : 1;
}

int RunOracleServer(int parent_fd, const ShardServerOptions& options) {
  const EndpointLayout layout = EndpointLayout::Compute(
      options.num_shards, options.num_gatekeepers, /*with_oracle=*/true,
      options.remote_gatekeepers);

  obs::MetricsRegistry metrics;
  MessageBus bus;
  bus.SetMetrics(&metrics);
  bus.SetWireEncoder(EncodePayload);
  auto transport =
      std::shared_ptr<Transport>(SocketTransport::Adopt(parent_fd));

  // Recover the oracle state machine from the durable changelog BEFORE
  // registering any endpoint: a request must never observe a
  // half-replayed DAG. A respawned service replays what its predecessor
  // journaled; a corrupt (not torn) log fails the boot loudly.
  OracleService::Options so;
  so.data_dir = options.oracle_data_dir;
  so.fsync = options.oracle_fsync;
  so.snapshot_every_records = options.oracle_snapshot_every;
  auto opened = OracleService::Open(std::move(so));
  if (!opened.ok()) {
    std::fprintf(stderr, "weaver-oracled: changelog recovery failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  OracleService& service = **opened;

  ExportOracleMetrics(&metrics, &service.oracle());
  {
    const OracleService::Stats& ss = service.stats();
    const auto counter = [&](const char* name,
                             const std::atomic<std::uint64_t>& v) {
      metrics.AddCounterFn(std::string("oracle.service.") + name, [&v] {
        return v.load(std::memory_order_relaxed);
      });
    };
    counter("requests", ss.requests);
    counter("ops", ss.ops);
    counter("changelog_records", ss.changelog_records);
    counter("snapshots", ss.snapshots);
    counter("sync_dumps", ss.sync_dumps);
    counter("replayed_records", ss.replayed_records);
    counter("replay_torn_tails", ss.replay_torn_tails);
  }

  // The service has no event loop of its own: the request handler runs
  // inline on the link's receive thread (OracleService::Handle is
  // thread-safe under its changelog mutex), and replies go out
  // never_block so a congested reply path cannot wedge the link.
  const auto handler = [&](const BusMessage& msg) {
    switch (msg.payload_tag) {
      case kMsgOracleRequest: {
        auto req =
            std::static_pointer_cast<OracleRequestMessage>(msg.payload);
        auto reply = std::make_shared<OracleReplyMessage>();
        service.Handle(*req, reply.get());
        (void)bus.Send(layout.oracle, req->reply_to, kMsgOracleReply,
                       std::move(reply), /*never_block=*/true);
        break;
      }
      case kMsgMetricsRequest: {
        auto req =
            std::static_pointer_cast<MetricsRequestMessage>(msg.payload);
        auto report = std::make_shared<MetricsReportMessage>();
        report->request_id = req->request_id;
        report->shard = kOracleMetricsSource;
        report->snapshot = metrics.Snapshot();
        (void)bus.Send(layout.oracle, req->reply_to, kMsgMetricsReport,
                       std::move(report), /*never_block=*/true);
        break;
      }
      case kMsgShardReset: {
        // A shard process died and is being replaced: forget all wire
        // sequence state toward its client endpoint, so the respawn's
        // fresh seq-1 requests are not rejected as duplicates.
        auto reset = std::static_pointer_cast<ShardResetMessage>(msg.payload);
        bus.ResetPeer(reset->target);
        auto ack = std::make_shared<ShardResetAckMessage>();
        ack->shard = kOracleMetricsSource;
        ack->token = reset->token;
        (void)bus.Send(layout.oracle, reset->reply_to, kMsgShardResetAck,
                       std::move(ack), /*never_block=*/true);
        break;
      }
      default:
        // kMsgStop and anything else: shutdown arrives as socket EOF.
        break;
    }
  };

  for (EndpointId id = 0; id <= layout.max_endpoint(); ++id) {
    EndpointId got;
    if (id == layout.oracle) {
      got = bus.RegisterHandler("oracled", handler);
    } else {
      got = bus.RegisterRemote("peer" + std::to_string(id), transport);
    }
    if (got != id) {
      std::fprintf(stderr,
                   "weaver-oracled: endpoint layout drifted (got %u, want "
                   "%u)\n",
                   got, id);
      return 1;
    }
  }

  // Every inbound channel here is idempotent oracle RPC, and this
  // process may be a respawn whose clients' sequence counters were
  // burned on frames the hub dropped during the failover window: take a
  // first-contact baseline per channel instead of demanding seq 1, and
  // accept seq-1 restarts (a straggling reset can reset a sender after
  // contact). Mid-stream gaps still fail the uplink loudly.
  bus.AllowFirstContact(layout.oracle);

  WireLink::Options lo;
  lo.bus = &bus;
  lo.transport = transport;
  lo.decode = DecodePayload;
  lo.never_block = WireNeverBlock;
  lo.name = "oracled.uplink";
  WireLink link(std::move(lo));

  link.WaitClosed();
  return link.error().ok() || link.error().IsUnavailable() ? 0 : 1;
}

}  // namespace serverd
}  // namespace weaver
