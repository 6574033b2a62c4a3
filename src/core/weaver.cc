#include "core/weaver.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <mutex>

#include "client/pending.h"
#include "common/clock.h"
#include "common/serde.h"
#include "coord/serverd.h"
#include "coord/supervisor.h"
#include "core/message_codec.h"
#include "net/transport.h"

namespace weaver {

std::unique_ptr<Weaver> Weaver::Open(const WeaverOptions& options) {
  WeaverOptions o = options;
  o.num_gatekeepers = std::max<std::size_t>(1, o.num_gatekeepers);
  o.num_shards = std::max<std::size_t>(1, o.num_shards);
  if (!o.remote_shard_fds.empty() &&
      o.remote_shard_fds.size() != o.num_shards) {
    std::fprintf(stderr,
                 "weaver: remote_shard_fds (%zu) must match num_shards "
                 "(%zu)\n",
                 o.remote_shard_fds.size(), o.num_shards);
    return nullptr;
  }
  if (o.oracle_service.enabled && o.remote_shard_fds.empty()) {
    std::fprintf(stderr,
                 "weaver: oracle_service requires remote shards; ignoring\n");
    o.oracle_service.enabled = false;
  }
  auto db = std::unique_ptr<Weaver>(new Weaver(o));
  if (!db->storage_status_.ok()) {
    std::fprintf(stderr, "weaver: cannot open durable storage at %s: %s\n",
                 o.storage.data_dir.c_str(),
                 db->storage_status_.ToString().c_str());
    return nullptr;
  }
  if (o.start) db->Start();
  return db;
}

Weaver::Weaver(const WeaverOptions& options) : options_(options) {
  bus_ = std::make_unique<MessageBus>();
  // From here on every endpoint registration exports its depth gauge, and
  // the bus's own counters are scrapeable (docs/observability.md).
  bus_->SetMetrics(&metrics_);
  trace_.SetSampleEvery(options_.trace_sample_every);
  if (options_.storage.enabled()) {
    auto kv = KvStore::Open(options_.kv_stripes, options_.storage);
    if (kv.ok()) {
      kv_ = std::move(kv).value();
    } else {
      storage_status_ = kv.status();
      kv_ = std::make_unique<KvStore>(options_.kv_stripes);
    }
  } else {
    kv_ = std::make_unique<KvStore>(options_.kv_stripes);
  }
  // Restore the persisted cluster epoch before any gatekeeper exists; a
  // deployment that recovered committed data additionally bumps it, so
  // every timestamp the rebooted gatekeepers issue orders after every
  // timestamp stamped onto the recovered writes (vector clocks restart at
  // zero, but a newer epoch wins every comparison).
  const bool recovered_data =
      kv_->durable() && (kv_->recovery_stats().checkpoint_rows +
                         kv_->recovery_stats().wal_ops) > 0;
  if (kv_->durable()) {
    storage::StorageEngine* engine = kv_->storage_engine();
    std::uint32_t epoch = engine->recovered_epoch();
    if (recovered_data) ++epoch;
    if (epoch > 0) {
      cluster_.RestoreEpoch(epoch);
      (void)engine->PersistEpoch(epoch);
    }
    cluster_.SetEpochPersist(
        [engine](std::uint32_t e) { return engine->PersistEpoch(e); });
  }
  programs_ = ProgramRegistry::WithStandardPrograms();
  locator_ = std::make_unique<NodeLocator>(kv_.get(), options_.num_shards);
  remote_shards_ = !options_.remote_shard_fds.empty();
  remote_gatekeepers_ = !options_.remote_gatekeeper_fds.empty();
  if (remote_gatekeepers_ &&
      (!remote_shards_ ||
       options_.remote_gatekeeper_fds.size() != options_.num_gatekeepers)) {
    // Half-wired gatekeeper banks cannot be recovered into a sane
    // deployment; fail at boot, loudly, like layout drift.
    std::fprintf(stderr,
                 "weaver: remote_gatekeeper_fds needs remote shards and one "
                 "fd per gatekeeper\n");
    std::abort();
  }
  if (remote_shards_ && options_.use_ldg_partitioner) {
    // Remote shard servers route forwarded hops with the deterministic
    // hash directory (they hold no placement state); LDG placements would
    // diverge from it, so remote deployments force hash placement.
    std::fprintf(stderr,
                 "weaver: remote shards require hash placement; ignoring "
                 "use_ldg_partitioner\n");
    options_.use_ldg_partitioner = false;
  }
  if (options_.use_ldg_partitioner) {
    partitioner_ = std::make_unique<LdgPartitioner>(
        options_.num_shards, options_.expected_vertices);
  } else {
    partitioner_ = std::make_unique<HashPartitioner>(options_.num_shards);
  }

  // Boot shards first so gatekeepers can learn their endpoints. A remote
  // deployment (docs/transport.md) registers transport-backed proxy
  // endpoints in the same id positions instead -- the endpoint layout is
  // the contract shard-server processes mirror (coord/serverd.h).
  if (remote_shards_) bus_->SetWireEncoder(EncodePayload);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    if (remote_shards_) {
      auto transport = std::shared_ptr<Transport>(
          SocketTransport::Adopt(options_.remote_shard_fds[s]));
      if (options_.shard_transport_decorator) {
        // Fault-injection seam (net/fault_injector.h): every outbound
        // shard transport -- original or respawned -- passes through it.
        transport = options_.shard_transport_decorator(
            std::move(transport), static_cast<ShardId>(s));
      }
      const EndpointId ep =
          bus_->RegisterRemote("shard" + std::to_string(s), transport);
      remote_shard_transports_.push_back(std::move(transport));
      shards_.push_back(nullptr);
      shard_endpoints_.push_back(ep);
    } else {
      Shard::Options so;
      so.id = static_cast<ShardId>(s);
      so.num_gatekeepers = options_.num_gatekeepers;
      so.bus = bus_.get();
      so.oracle = &oracle_;
      so.programs = programs_;
      so.locator = locator_.get();
      so.inbox_capacity = options_.shard_inbox_capacity;
      so.queue_high_water = options_.shard_queue_high_water;
      so.max_hops_per_cycle = options_.shard_max_hops_per_cycle;
      so.metrics = &metrics_;
      shards_.push_back(std::make_unique<Shard>(so));
    }
    cluster_.Register("shard" + std::to_string(s), ServerKind::kShard,
                      static_cast<std::uint32_t>(s));
  }

  if (!remote_shards_) {
    for (const auto& s : shards_) shard_endpoints_.push_back(s->endpoint());
    // Peer table for shard-to-shard hop forwarding (endpoint ids are
    // stable across shard recovery, so this wiring survives failures).
    for (auto& s : shards_) s->SetShardEndpoints(shard_endpoints_);
  }
  const std::vector<EndpointId>& shard_eps = shard_endpoints_;

  for (std::size_t g = 0; g < options_.num_gatekeepers; ++g) {
    if (remote_gatekeepers_) {
      // Out-of-parent gatekeeper (docs/transport.md#cluster-bootstrap):
      // the process behind this fd owns the clock, timers, and client
      // ingress; its two layout ids become remote proxies here, in the
      // same positions the in-process construction order would assign.
      auto transport = std::shared_ptr<Transport>(
          SocketTransport::Adopt(options_.remote_gatekeeper_fds[g]));
      gk_server_endpoints_.push_back(
          bus_->RegisterRemote("gk" + std::to_string(g), transport));
      gk_client_endpoints_.push_back(bus_->RegisterRemote(
          "gk" + std::to_string(g) + ".client", transport));
      remote_gatekeeper_transports_.push_back(std::move(transport));
    } else {
      Gatekeeper::Options go;
      go.id = static_cast<GatekeeperId>(g);
      go.num_gatekeepers = options_.num_gatekeepers;
      go.bus = bus_.get();
      go.shard_endpoints = shard_eps;
      go.tau_micros = options_.tau_micros;
      go.nop_period_micros = options_.nop_period_micros;
      go.initial_epoch = cluster_.current_epoch();
      go.client_workers = options_.client_ingress_workers;
      go.client_batch = options_.client_ingress_batch;
      go.client_lane_capacity = options_.client_lane_capacity;
      go.max_inflight_programs = options_.client_max_inflight_programs;
      go.nop_high_water = options_.nop_high_water;
      go.announce_capacity = options_.announce_capacity;
      go.metrics = &metrics_;
      go.trace = &trace_;
      gatekeepers_.push_back(std::make_unique<Gatekeeper>(std::move(go)));
    }
    cluster_.Register("gk" + std::to_string(g), ServerKind::kGatekeeper,
                      static_cast<std::uint32_t>(g));
  }
  // Wire up the peer lists now that all endpoints exist.
  // (Options were moved; rebuild peer endpoint lists via a second pass.)
  // Gatekeeper reads peers only in PumpAnnounce, so mutate before Start().
  for (std::size_t g = 0; g < gatekeepers_.size(); ++g) {
    std::vector<EndpointId> peers;
    for (std::size_t h = 0; h < gatekeepers_.size(); ++h) {
      if (h != g) peers.push_back(gatekeepers_[h]->endpoint());
    }
    gatekeepers_[g]->SetPeerEndpoints(std::move(peers));
  }

  // Program coordinator: an inline-handler endpoint, so shard-side
  // accounting deltas merge synchronously on the reporting shard's
  // thread (which is also what makes spawn-before-consume registration
  // causal; see WaveAccountingMessage).
  coordinator_endpoint_ = bus_->RegisterHandler(
      "coordinator", [this](const BusMessage& msg) {
        if (msg.payload_tag == kMsgWaveAccounting) {
          OnWaveAccounting(
              std::static_pointer_cast<WaveAccountingMessage>(msg.payload));
        } else if (msg.payload_tag == kMsgMetricsReport) {
          // Remote shard-server processes can only address endpoints that
          // existed when they booted, so metrics replies share the
          // coordinator endpoint rather than a dedicated one.
          OnMetricsReport(
              std::static_pointer_cast<MetricsReportMessage>(msg.payload));
        } else if (msg.payload_tag == kMsgShardResetAck) {
          // Recovery control traffic rides the coordinator endpoint for
          // the same addressability reason.
          if (supervisor_) {
            supervisor_->OnResetAck(
                *std::static_pointer_cast<ShardResetAckMessage>(msg.payload));
          }
        }
      });
  // weaver-oracled wiring (docs/oracle_service.md): the service's remote
  // endpoint and the per-process reply endpoints come right after the
  // coordinator, extending the serverd layout contract. Each shard's
  // reply endpoint is a remote over that SHARD's transport, so an
  // OracleReply frame arriving on the oracle link is hub-forwarded to
  // the owning shard process verbatim (and shard requests arriving on
  // shard links forward to the oracle transport the same way).
  remote_oracle_ = remote_shards_ && options_.oracle_service.enabled;
  if (remote_oracle_) {
    oracle_transport_ = std::shared_ptr<Transport>(
        SocketTransport::Adopt(options_.oracle_service.fd));
    oracle_endpoint_ = bus_->RegisterRemote("oracled", oracle_transport_);
    for (std::size_t s = 0; s < options_.num_shards; ++s) {
      oracle_client_endpoints_.push_back(bus_->RegisterRemote(
          "shard" + std::to_string(s) + ".oracle-client",
          remote_shard_transports_[s]));
    }
    parent_oracle_client_endpoint_ = bus_->RegisterHandler(
        "weaver.oracle-client", [this](const BusMessage& msg) {
          if (msg.payload_tag != kMsgOracleReply ||
              oracle_client_ == nullptr) {
            return;
          }
          oracle_client_->OnReply(
              *std::static_pointer_cast<OracleReplyMessage>(msg.payload));
        });
    cluster_.Register("oracled", ServerKind::kShard,
                      static_cast<std::uint32_t>(options_.num_shards));
  }
  // The parent's oracle handle: everything this process asks of the
  // timeline (GC collects; any future ordering need) goes through it, so
  // both modes share one code path.
  {
    OracleClient::Options co;
    if (remote_oracle_) {
      co.bus = bus_.get();
      co.self = parent_oracle_client_endpoint_;
      co.service = oracle_endpoint_;
      co.rpc_timeout_micros = options_.oracle_service.rpc_timeout_micros;
      co.total_deadline_micros =
          options_.oracle_service.total_deadline_micros;
    } else {
      co.local = &oracle_;
    }
    oracle_client_ = std::make_unique<OracleClient>(co);
  }
  // Out-of-parent gatekeeper blocks extend the layout past the oracle
  // ids: one parent-side agent endpoint per gatekeeper (StoreCommit /
  // GkProgramStart / GkWatermark ingress -- an inline handler that only
  // enqueues to the agent pool, so link receive threads never sleep on
  // store work), then one remote proxy per gatekeeper control endpoint.
  if (remote_gatekeepers_) {
    for (std::size_t g = 0; g < options_.num_gatekeepers; ++g) {
      gk_agent_endpoints_.push_back(bus_->RegisterHandler(
          "gk" + std::to_string(g) + ".agent", [this](const BusMessage& msg) {
            if (msg.payload_tag == kMsgStoreCommit) {
              auto m =
                  std::static_pointer_cast<StoreCommitMessage>(msg.payload);
              EnqueueAgentWork(
                  [this, m = std::move(m)] { HandleStoreCommit(m); });
            } else if (msg.payload_tag == kMsgGkProgramStart) {
              auto m =
                  std::static_pointer_cast<GkProgramStartMessage>(msg.payload);
              EnqueueAgentWork(
                  [this, m = std::move(m)] { HandleGkProgramStart(m); });
            } else if (msg.payload_tag == kMsgGkWatermark) {
              auto m =
                  std::static_pointer_cast<GkWatermarkMessage>(msg.payload);
              MutexLock lk(gk_wm_mu_);
              if (m->gatekeeper < gk_watermarks_.size()) {
                gk_watermarks_[m->gatekeeper] = m->oldest_active;
              }
            }
          }));
    }
    for (std::size_t g = 0; g < options_.num_gatekeepers; ++g) {
      gk_control_endpoints_.push_back(
          bus_->RegisterRemote("gk" + std::to_string(g) + ".control",
                               remote_gatekeeper_transports_[g]));
    }
    {
      MutexLock lk(gk_wm_mu_);
      gk_watermarks_.resize(options_.num_gatekeepers);
    }
  }
  // Remote deployments share this endpoint layout with their shard
  // server processes -- ids are the addressing contract on the wire, so
  // drift must fail at boot, loudly (a plain abort, not assert: release
  // builds must not misroute silently). The contract has ONE definition
  // (serverd::EndpointLayout); this only compares against it.
  if (remote_shards_) {
    const auto layout = serverd::EndpointLayout::Compute(
        options_.num_shards, options_.num_gatekeepers, remote_oracle_,
        remote_gatekeepers_);
    bool ok = coordinator_endpoint_ == layout.coordinator;
    for (std::size_t g = 0; ok && g < gatekeepers_.size(); ++g) {
      ok = gatekeepers_[g]->endpoint() == layout.gatekeepers[g] &&
           gatekeepers_[g]->client_endpoint() == layout.gatekeeper_clients[g];
    }
    for (std::size_t g = 0; ok && remote_gatekeepers_ &&
                            g < options_.num_gatekeepers;
         ++g) {
      ok = gk_server_endpoints_[g] == layout.gatekeepers[g] &&
           gk_client_endpoints_[g] == layout.gatekeeper_clients[g] &&
           gk_agent_endpoints_[g] == layout.gk_agents[g] &&
           gk_control_endpoints_[g] == layout.gk_controls[g];
    }
    for (std::size_t s = 0; ok && s < shard_endpoints_.size(); ++s) {
      ok = shard_endpoints_[s] == layout.shards[s];
    }
    if (remote_oracle_) {
      ok = ok && oracle_endpoint_ == layout.oracle &&
           parent_oracle_client_endpoint_ == layout.parent_oracle_client;
      for (std::size_t s = 0; ok && s < oracle_client_endpoints_.size();
           ++s) {
        ok = oracle_client_endpoints_[s] == layout.oracle_clients[s];
      }
    }
    if (!ok) {
      std::fprintf(stderr,
                   "weaver: endpoint layout drifted from serverd contract "
                   "(coordinator at %u, want %u)\n",
                   coordinator_endpoint_, layout.coordinator);
      std::abort();
    }
  }

  // Coordinator / oracle / storage instruments. The oracle and storage
  // engine are plain members (no DropPrefix of their own); their callback
  // instruments die with this object, after every snapshotter has.
  coord_programs_completed_ = metrics_.counter("coord.programs_completed");
  coord_programs_aborted_ = metrics_.counter("coord.programs_aborted");
  coord_program_hops_ = metrics_.counter("coord.program_hops");
  coord_accounting_msgs_ = metrics_.counter("coord.accounting_msgs");
  coord_program_latency_ = metrics_.histogram("coord.program_latency");
  backing_versions_pruned_ = metrics_.counter("backing.versions_pruned");
  {
    // In-process mode these read the authoritative oracle; with
    // weaver-oracled they read the parent's replica (the service exports
    // the authoritative oracle.* series itself, tagged
    // kOracleMetricsSource).
    const TimelineOracle::Stats& os = oracle_client_->view().stats();
    const auto counter = [&](const char* name,
                             const std::atomic<std::uint64_t>& v) {
      metrics_.AddCounterFn(std::string("oracle.") + name, [&v] {
        return v.load(std::memory_order_relaxed);
      });
    };
    counter("order_requests", os.order_requests);
    counter("queries", os.queries);
    counter("edges_established", os.edges_established);
    counter("vclock_resolved", os.vclock_resolved);
    counter("dag_resolved", os.dag_resolved);
    counter("events_collected", os.events_collected);
    // GC lag: events still live in the dependency DAG (grows between
    // CollectBefore rounds; quadratic ordering cost if it runs away).
    metrics_.AddGaugeFn("oracle.live_events", [this] {
      return static_cast<std::int64_t>(oracle_client_->view().LiveEvents());
    });
    if (remote_oracle_) {
      const OracleClient::Stats& cs = oracle_client_->stats();
      counter("client.local_hits", cs.local_hits);
      counter("client.rpcs", cs.rpcs);
      counter("client.retries", cs.retries);
      counter("client.unavailable", cs.unavailable);
      counter("client.sync_edges_applied", cs.sync_edges_applied);
    }
  }
  if (kv_->durable()) kv_->storage_engine()->SetMetrics(&metrics_);

  // Reply endpoint for the deployment-internal blocking wrappers: they
  // speak the same request/reply messages a session does.
  internal_replies_ = std::make_shared<ReplyRouter>();
  internal_reply_endpoint_ = bus_->RegisterHandler(
      "weaver.replies",
      [router = internal_replies_](const BusMessage& msg) {
        router->OnMessage(msg);
      });

  // Client ingress execution: the gatekeeper owns the lanes and workers,
  // the deployment owns the state a request needs (locator/partitioner
  // for commits, the program coordinator for programs). Requests are
  // plain data; executors answer with reply messages to the endpoint the
  // request names.
  Gatekeeper::ClientExecutor client_exec;
  client_exec.commit = [this](Gatekeeper& gk, ClientCommitMessage& req,
                              bool pay_delay) {
    if (pay_delay) PayCommitDelay(req.ops.size());
    Transaction tx = RehydrateCommit(req);
    const Status st = CommitOnGatekeeper(&tx, gk);
    gk.SendCommitReply(req.reply_to, req.session_id, req.request_id, st,
                       tx.timestamp());
  };
  client_exec.program = [this](Gatekeeper& gk,
                               const ClientProgramMessage& msg,
                               ProgramRequest& req) {
    // Fully asynchronous: the worker seeds the start wave and moves on;
    // completion (a shard's final accounting delta) sends the reply and
    // releases the gatekeeper's in-flight program slot.
    Gatekeeper* gkp = &gk;
    RunProgramAsyncOn(
        gk.id(), req.program_name, std::move(req.starts), req.fence,
        [gkp, reply_to = msg.reply_to, session_id = msg.session_id,
         request_id = req.request_id](Result<ProgramResult> r) mutable {
          gkp->SendProgramReply(reply_to, session_id, request_id,
                                std::move(r));
          gkp->OnProgramSettled();
        });
  };
  for (auto& g : gatekeepers_) g->SetClientExecutor(client_exec);

  bulk_dirty_.resize(options_.num_shards);

  if (recovered_data) RestoreFromBackingStore();

  // Shard-process supervision (docs/fault_tolerance.md): built before
  // the links so their on_down hooks have somewhere to point. The down
  // bitmap exists whenever supervision does -- ShardAlive consults it.
  if (remote_shards_ && options_.supervision.enabled) {
    remote_down_.reset(new std::atomic<bool>[options_.num_shards]);
    for (std::size_t s = 0; s < options_.num_shards; ++s) {
      remote_down_[s].store(false, std::memory_order_relaxed);
    }
    supervisor_ = std::make_unique<ShardSupervisor>(this);
  } else if (options_.supervision.enabled) {
    std::fprintf(stderr,
                 "weaver: supervision requires remote shards; ignoring\n");
  }

  // The agent pool must exist before any link can deliver a StoreCommit
  // into its queue.
  if (remote_gatekeepers_) {
    const std::size_t workers = std::max<std::size_t>(
        2, options_.client_ingress_workers * options_.num_gatekeepers);
    agent_workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      agent_workers_.emplace_back([this] { AgentWorkerLoop(); });
    }
  }

  // Wire links come up last, once every local endpoint a frame could
  // address exists. Each link drains one shard socket: decoded local
  // deliveries (accounting to the coordinator) and verbatim hub
  // forwarding for shard-to-shard hop batches.
  for (std::size_t s = 0; s < remote_shard_transports_.size(); ++s) {
    WireLink::Options lo;
    lo.bus = bus_.get();
    lo.transport = remote_shard_transports_[s];
    lo.decode = DecodePayload;
    lo.never_block = WireNeverBlock;
    lo.name = "shard" + std::to_string(s) + ".link";
    if (supervisor_) {
      lo.on_down = [this, s](const Status&) {
        supervisor_->OnLinkDown(static_cast<ShardId>(s));
      };
    }
    links_.push_back(std::make_unique<WireLink>(std::move(lo)));
  }
  if (remote_oracle_) {
    WireLink::Options lo;
    lo.bus = bus_.get();
    lo.transport = oracle_transport_;
    lo.decode = DecodePayload;
    lo.never_block = WireNeverBlock;
    lo.name = "oracled.link";
    if (supervisor_) {
      lo.on_down = [this](const Status&) { supervisor_->OnOracleLinkDown(); };
    }
    oracle_link_ = std::make_unique<WireLink>(std::move(lo));
  }
  // One inbound link per gatekeeper process: decoded local deliveries
  // (agent RPCs, session replies) plus verbatim hub forwarding for the
  // traffic a gatekeeper originates toward other children (commit
  // slices and NOPs to shards, announces to peer gatekeepers).
  for (std::size_t g = 0; g < remote_gatekeeper_transports_.size(); ++g) {
    WireLink::Options lo;
    lo.bus = bus_.get();
    lo.transport = remote_gatekeeper_transports_[g];
    lo.decode = DecodePayload;
    lo.never_block = WireNeverBlock;
    lo.name = "gk" + std::to_string(g) + ".link";
    if (supervisor_) {
      lo.on_down = [this, g](const Status&) {
        supervisor_->OnGatekeeperLinkDown(static_cast<GatekeeperId>(g));
      };
    }
    gatekeeper_links_.push_back(std::make_unique<WireLink>(std::move(lo)));
  }
}

void Weaver::EnqueueAgentWork(std::function<void()> work) {
  MutexLock lk(agent_mu_);
  if (agent_stop_) return;
  agent_queue_.push_back(std::move(work));
  agent_cv_.notify_one();
}

void Weaver::AgentWorkerLoop() {
  for (;;) {
    std::function<void()> work;
    {
      MutexLock lk(agent_mu_);
      while (!agent_stop_ && agent_queue_.empty()) {
        agent_cv_.wait(lk.native());
      }
      if (agent_stop_ && agent_queue_.empty()) return;
      work = std::move(agent_queue_.front());
      agent_queue_.pop_front();
    }
    work();
  }
}

void Weaver::StopAgentPool() {
  {
    MutexLock lk(agent_mu_);
    if (agent_stop_) return;
    agent_stop_ = true;
    // Queued applies never ran: their gatekeeper processes are being
    // shut down too, so dropping them strands no waiter past their RPC
    // timeout -- and the ingress over there fails queued requests first.
    agent_queue_.clear();
    agent_cv_.notify_all();
  }
  for (auto& w : agent_workers_) {
    if (w.joinable()) w.join();
  }
  agent_workers_.clear();
}

void Weaver::HandleStoreCommit(std::shared_ptr<StoreCommitMessage> m) {
  ApplyOutcome out;
  if (m->gatekeeper >= gk_control_endpoints_.size()) return;
  {
    // Shared side of the recovery gate, exactly like CommitOnGatekeeper:
    // a partition replay must not interleave with store applies.
    ReaderLock recovery_gate(commit_gate_);
    if (m->pay_delay) PayCommitDelay(m->ops.size());
    std::unordered_map<NodeId, ShardId> placements;
    for (const auto& [node, shard] : m->created_placements) {
      placements[node] = shard;
    }
    bool resolved = true;
    for (const GraphOp& op : m->ops) {
      if (placements.count(op.node)) continue;
      auto shard = locator_->Lookup(op.node);
      if (!shard.has_value()) {
        out.status =
            Status::NotFound("unknown vertex " + std::to_string(op.node));
        resolved = false;
        break;
      }
      placements[op.node] = *shard;
    }
    if (resolved) {
      KvTransaction kvtx = kv_->Resume(m->read_set);
      out = ApplyCommitToStore(&kvtx, m->ts, m->ops, placements,
                               StoreWatermark());
      if (out.status.ok()) {
        backing_versions_pruned_->Add(out.versions_pruned);
        for (const auto& [node, shard] : m->created_placements) {
          locator_->Record(node, shard);
        }
        if (options_.enable_program_cache) {
          for (const GraphOp& op : m->ops) {
            program_cache_.InvalidateNode(op.node);
          }
        }
      }
    }
  }
  auto reply = std::make_shared<StoreCommitReplyMessage>();
  reply->gatekeeper = m->gatekeeper;
  reply->request_id = m->request_id;
  reply->status = out.status;
  reply->retry_timestamp = out.retry_timestamp;
  reply->kv_conflict = out.kv_conflict;
  reply->conflict_clock = std::move(out.conflict_clock);
  (void)bus_->Send(gk_agent_endpoints_[m->gatekeeper],
                   gk_control_endpoints_[m->gatekeeper], kMsgStoreCommitReply,
                   std::move(reply));
}

void Weaver::HandleGkProgramStart(std::shared_ptr<GkProgramStartMessage> m) {
  const GatekeeperId g = m->gatekeeper;
  if (g >= gk_control_endpoints_.size()) return;
  const auto finish = [this, g, session_id = m->session_id,
                       request_id = m->request_id](Result<ProgramResult> r) {
    auto reply = std::make_shared<ClientProgramReplyMessage>();
    reply->session_id = session_id;
    reply->request_id = request_id;
    reply->status = r.status();
    if (r.ok()) reply->result = std::move(r).value();
    // Routed through the gatekeeper process's control endpoint, not the
    // session: the clock owner must retire the in-flight entry before
    // the requester sees the reply.
    (void)bus_->Send(gk_agent_endpoints_[g], gk_control_endpoints_[g],
                     kMsgClientProgramReply, std::move(reply));
  };
  if (programs_->Find(m->program_name) == nullptr) {
    finish(Status::NotFound("no node program named " + m->program_name));
    return;
  }
  ExecuteProgramAsync(m->program_name, std::move(m->starts), m->ts,
                      /*gk=*/nullptr, finish);
}

Transaction Weaver::RehydrateCommit(ClientCommitMessage& msg) {
  Transaction tx(this, kv_->Resume(msg.read_set));
  tx.ops_ = std::move(msg.ops);
  for (const auto& [node, shard] : msg.created_placements) {
    tx.created_placements_[node] = shard;
  }
  return tx;
}

void Weaver::RestoreFromBackingStore() {
  NodeId max_node = 0;
  EdgeId max_edge = 0;
  for (const auto& [key, value] :
       kv_->ScanPrefix(kv_keys::kVertexShardMapPrefix)) {
    const NodeId node_id = std::strtoull(
        key.substr(kv_keys::kVertexShardMapPrefix.size()).c_str(), nullptr,
        10);
    const ShardId owner =
        static_cast<ShardId>(std::strtoul(value.c_str(), nullptr, 10));
    // Skip shrunk redeployments and remote shards (a shard-server
    // process recovers its own partition).
    if (owner >= shards_.size() || !shards_[owner]) continue;
    auto blob = kv_->Get(kv_keys::VertexData(node_id));
    if (!blob.ok()) continue;
    auto node = GraphStore::DeserializeNode(*blob);
    if (!node.ok()) continue;
    max_node = std::max(max_node, node_id);
    for (const auto& [eid, _] : node->out_edges) {
      max_edge = std::max(max_edge, eid);
    }
    shards_[owner]->graph().InstallNode(std::move(node).value());
    locator_->Record(node_id, owner);
    ++recovered_vertices_;
  }
  // Id allocators resume past everything recovered, so new CreateNode /
  // CreateEdge calls cannot collide with pre-crash ids.
  if (max_node > 0) ReserveNodeId(max_node);
  std::uint64_t expected = next_edge_id_.load(std::memory_order_relaxed);
  while (expected <= max_edge &&
         !next_edge_id_.compare_exchange_weak(expected, max_edge + 1,
                                              std::memory_order_relaxed)) {
  }
}

Weaver::~Weaver() { Shutdown(); }

void Weaver::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  for (auto& s : shards_) {
    if (s) s->Start();  // remote shards run their own event loops
  }
  for (auto& g : gatekeepers_) {
    g->StartTimers();
    g->StartClientIngress();
  }
  if (supervisor_) supervisor_->Start();
  if (options_.gc_period_micros > 0 && !gc_thread_.joinable()) {
    stop_gc_ = false;
    gc_thread_ = std::thread([this] {
      // Oracle events are the growth that hurts (ordering requests slow
      // down with DAG size), so they are collected every tick; the
      // O(graph) shard sweep runs every 64th tick.
      std::uint64_t tick = 0;
      MutexLock lk(gc_mu_);
      while (!stop_gc_) {
        gc_cv_.wait_for(lk.native(),
                        std::chrono::microseconds(options_.gc_period_micros));
        if (stop_gc_) return;
        lk.Unlock();
        RunGarbageCollection(/*include_shards=*/(++tick % 64) == 0);
        MaybePollRemoteMetrics();
        lk.Lock();
      }
    });
  }
}

void Weaver::Shutdown() {
  // The supervisor goes first: once shutdown starts tearing links down,
  // every peer EOF would read as a crash and the monitor would respawn
  // shards we are about to stop.
  if (supervisor_) supervisor_->Stop();
  // Stop the client ingress next, while started_ is still true and the
  // shards still drain: requests already on a worker finish normally
  // (their waves, slices, and RunProgramOn's started_ check all need the
  // deployment up) and queued ones fail with Unavailable, so no
  // Pending<T>::Wait() hangs.
  for (auto& g : gatekeepers_) {
    if (g) g->StopClientIngress();
  }
  started_.store(false);
  {
    MutexLock lk(gc_mu_);
    stop_gc_ = true;
    gc_cv_.notify_all();
  }
  if (gc_thread_.joinable()) gc_thread_.join();
  for (auto& g : gatekeepers_) {
    if (g) g->StopTimers();
  }
  for (auto& s : shards_) {
    if (s) s->Stop();
  }
  if (remote_shards_) {
    // Ask the shard-server processes to exit, then tear the links down.
    // Destroying a link JOINS its receiver (the destructor waits for the
    // end-of-stream marker), so after this no thread can deliver into
    // the coordinator/gatekeeper handlers this object is about to
    // destroy.
    for (std::size_t s = 0; s < shard_endpoints_.size(); ++s) {
      (void)bus_->Send(coordinator_endpoint_, shard_endpoints_[s], kMsgStop,
                       nullptr);
    }
    // A link slot may be null: a failed recovery (no respawn) leaves the
    // dead shard's slot empty.
    for (auto& link : links_) {
      if (link) link->Stop();
    }
    links_.clear();
    // weaver-oracled exits on its parent socket's EOF; Stop() closes the
    // transport and joins the receiver, same as the shard links.
    if (oracle_link_) {
      oracle_link_->Stop();
      oracle_link_.reset();
    }
    // Gatekeeper processes: ask each control endpoint to stop, then tear
    // the links down. Closing a transport also fails the child's pending
    // StoreCommit waiters fast (its uplink EOFs), so nothing over there
    // rides out a full RPC timeout.
    if (remote_gatekeepers_) {
      for (std::size_t g = 0; g < gk_control_endpoints_.size(); ++g) {
        (void)bus_->Send(coordinator_endpoint_, gk_control_endpoints_[g],
                         kMsgStop, nullptr);
      }
      for (auto& link : gatekeeper_links_) {
        if (link) link->Stop();
      }
      gatekeeper_links_.clear();
      StopAgentPool();
    }
  }
  // Shard loops are joined (or their processes told to stop): no
  // accounting delta can arrive anymore, so any still-registered program
  // can never reach quiescence. Fail them so their waiters (async
  // sessions, blocking wrappers) unblock.
  FailAllExecutions(
      Status::Unavailable("deployment shut down during execution"));
  // Same for metrics collections: their replies can no longer arrive.
  {
    MutexLock lk(metrics_mu_);
    for (auto& [rid, c] : metrics_pending_) c.failed = true;
  }
  metrics_cv_.notify_all();
}

ShardId Weaver::PlaceNewNode(NodeId id) {
  MutexLock lk(partition_mu_);
  return partitioner_->Place(id, {}, locator_->ShardLoads());
}

Transaction Weaver::BeginTx() { return Transaction(this, kv_->Begin()); }

void Weaver::PayCommitDelay(std::size_t num_ops) {
  if (options_.kv_commit_delay_micros > 0 && num_ops > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.kv_commit_delay_micros));
  }
}

void Weaver::AnnotateCommitOutcome(Transaction* tx, const CommitResult& r) {
  if (tx == nullptr) return;
  tx->ts_ = r.timestamp;
  tx->committed_ = r.status.ok();
}

std::uint64_t Weaver::RegisterSessionRouter(GatekeeperId gk,
                                            std::weak_ptr<ReplyRouter> router) {
  MutexLock lk(session_routers_mu_);
  const std::uint64_t id = next_session_router_++;
  session_routers_.emplace(id, std::make_pair(gk, std::move(router)));
  return id;
}

void Weaver::UnregisterSessionRouter(std::uint64_t registration) {
  MutexLock lk(session_routers_mu_);
  session_routers_.erase(registration);
}

void Weaver::FailSessionCalls(GatekeeperId gk, const Status& status) {
  // Snapshot the routers outside the registry lock: FailAll fulfills
  // Pending handles, and a fulfilled waiter may immediately destroy its
  // Session, whose destructor takes the registry lock to unregister.
  std::vector<std::shared_ptr<ReplyRouter>> routers;
  {
    MutexLock lk(session_routers_mu_);
    for (const auto& [id, entry] : session_routers_) {
      if (entry.first != gk) continue;
      if (auto r = entry.second.lock()) routers.push_back(std::move(r));
    }
  }
  for (const auto& r : routers) r->FailAll(status);
}

Status Weaver::Commit(Transaction* tx) {
  if (tx == nullptr || !tx->valid()) {
    return Status::FailedPrecondition("invalid or moved-from transaction");
  }
  if (tx->committed_) {
    return Status::Internal("transaction already committed");
  }
  const GatekeeperId gk_id = NextGatekeeperId();
  // Simulated backing-store network round trip (client-side: does not
  // hold gatekeeper slots or locks, so commits still pipeline).
  PayCommitDelay(tx->ops_.size());
  if (!started_.load()) {
    if (remote_gatekeepers_) {
      // The commit path IS the gatekeeper process; there is no inline
      // fallback without one.
      return Status::FailedPrecondition(
          "out-of-parent gatekeepers need a started deployment");
    }
    // Deterministic deployments (start = false, PumpAll-driven tests,
    // post-bulk-load commits) have no ingress workers: execute inline.
    return CommitOnGatekeeper(tx, *gatekeepers_[gk_id]);
  }
  // Thin wrapper over the async path: route the same ClientCommit message
  // a session would send and wait for the reply (docs/client_api.md). The
  // lane id is per-call, so concurrent blocking callers never serialize
  // behind each other -- which is also why this cannot reuse Session
  // (sessions pin one lane). Mirror of Session::SubmitCommit +
  // Session::Commit; keep the two in sync.
  auto pending = Pending<CommitResult>::Make();
  auto msg = std::make_shared<ClientCommitMessage>();
  msg->session_id = next_internal_lane_.fetch_add(1, std::memory_order_relaxed);
  msg->request_id = internal_replies_->RegisterCommit(pending);
  msg->reply_to = internal_reply_endpoint_;
  msg->delay_paid = true;
  CommitPayload payload = tx->DetachForSubmit();
  msg->ops = std::move(payload.ops);
  msg->created_placements = std::move(payload.created_placements);
  msg->read_set = std::move(payload.read_set);
  const std::uint64_t request_id = msg->request_id;
  const Status sent = bus_->Send(internal_reply_endpoint_,
                                 GatekeeperClientEndpoint(gk_id),
                                 kMsgClientCommit, std::move(msg));
  if (!sent.ok()) {
    internal_replies_->FailCommit(request_id, sent);
    return sent;
  }
  const CommitResult& r = pending.Wait();
  AnnotateCommitOutcome(tx, r);
  return r.status;
}

Status Weaver::CommitOnGatekeeper(Transaction* tx, Gatekeeper& gk) {
  if (tx->db_ == nullptr) {
    return Status::FailedPrecondition("invalid or moved-from transaction");
  }
  if (tx->committed_) {
    return Status::Internal("transaction already committed");
  }
  // Shared side of the recovery gate: a partition replay in progress
  // (exclusive holder) must not interleave with commit slices
  // (docs/fault_tolerance.md). Uncontended in steady state.
  ReaderLock recovery_gate(commit_gate_);
  // Resolve the placement of every vertex touched by the batch: created
  // vertices use the partitioner's tentative choice; existing vertices use
  // the locator (backed by the store's vertex->shard map).
  std::unordered_map<NodeId, ShardId> placements = tx->created_placements_;
  for (const GraphOp& op : tx->ops_) {
    if (placements.count(op.node)) continue;
    auto shard = locator_->Lookup(op.node);
    if (!shard.has_value()) {
      return Status::NotFound("unknown vertex " + std::to_string(op.node));
    }
    placements[op.node] = *shard;
  }

  const RefinableTimestamp watermark = StoreWatermark();
  const Status st = gk.CommitTransaction(
      [&](const RefinableTimestamp& ts) {
        ApplyOutcome out = ApplyCommitToStore(&tx->kvtx_, ts, tx->ops_,
                                              placements, watermark);
        if (out.status.ok()) {
          backing_versions_pruned_->Add(out.versions_pruned);
        }
        return out;
      },
      tx->ops_, placements, &tx->ts_);
  if (!st.ok()) return st;
  tx->committed_ = true;
  // Publish placements of created vertices to the locator.
  for (const auto& [id, shard] : tx->created_placements_) {
    locator_->Record(id, shard);
  }
  // Memoized program results depending on the written vertices are now
  // stale (paper §4.6's invalidation rule).
  if (options_.enable_program_cache) {
    for (const GraphOp& op : tx->ops_) {
      program_cache_.InvalidateNode(op.node);
    }
  }
  return Status::Ok();
}

Status Weaver::RunTransaction(
    const std::function<Status(Transaction&)>& body, int max_attempts) {
  return RetryTransaction([this] { return BeginTx(); },
                          [this](Transaction* tx) { return Commit(tx); },
                          body, max_attempts);
}

void Weaver::ExecuteProgramAsync(
    std::string_view name, std::vector<NextHop> starts,
    const RefinableTimestamp& ts, Gatekeeper* gk,
    std::function<void(Result<ProgramResult>)> done) {
  // Execution ids are allocated per run, NOT taken from the timestamp:
  // RunProgramAt re-executes old timestamps, whose event ids already
  // carry shard-side tombstones from their first run.
  const ProgramId pid =
      next_program_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seed_start = NowNanos();
  // Shared side of the recovery gate: held across registration + seeding
  // so a recovery's replay stream never interleaves with seed batches,
  // and so the supervisor's under-gate FailAllExecutions cannot miss an
  // execution that is mid-registration (docs/fault_tolerance.md).
  ReaderLock recovery_gate(commit_gate_);

  // Visited-vertex pruning eligibility is an execution-wide property
  // decided here, once, over the start params (conservative AND across
  // multi-start invocations) and carried in every hop batch.
  const NodeProgram* program = programs_->Find(name);
  bool visit_once = program != nullptr && !starts.empty();
  for (const NextHop& hop : starts) {
    if (!visit_once) break;
    visit_once = program->VisitOnce(hop.params);
  }

  // Group the start hops by owning shard; hops to unknown vertices are
  // dropped (the program would see a non-existent NodeView anyway).
  std::vector<std::vector<NextHop>> by_shard(shards_.size());
  std::uint64_t total = 0;
  for (NextHop& hop : starts) {
    auto shard = locator_->Lookup(hop.node);
    if (!shard.has_value() || *shard >= shards_.size()) continue;
    if (!ShardAlive(*shard)) {
      done(Status::Unavailable("shard " + std::to_string(*shard) +
                               " is down; re-run the program"));
      return;
    }
    by_shard[*shard].push_back(std::move(hop));
    ++total;
  }
  if (total == 0) {
    ProgramResult empty;
    empty.timestamp = ts;
    done(std::move(empty));
    return;
  }

  // The execution must be fully registered -- seed count included --
  // before the first batch goes out: a shard can execute and report the
  // whole traversal before we would return from Send.
  {
    auto ex = std::make_unique<ProgramExecution>();
    ex->pid = pid;
    ex->ts = ts;
    ex->starts = total;
    ex->touched.assign(shards_.size(), false);
    ex->done = std::move(done);
    ex->begin_ns = seed_start;
    ex->traced = trace_.ShouldSample();
    MutexLock lk(executions_mu_);
    executions_.emplace(pid, std::move(ex));
  }

  Status seed_failure = Status::Ok();
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    auto batch = std::make_shared<WaveHopBatchMessage>();
    batch->program_id = pid;
    batch->ts = ts;
    batch->program_name = std::string(name);
    batch->coordinator = coordinator_endpoint_;
    batch->visit_once = visit_once;
    batch->hops = std::move(by_shard[s]);
    const Status sent =
        bus_->Send(coordinator_endpoint_, shard_endpoints_[s],
                   kMsgWaveHops, std::move(batch));
    if (!sent.ok()) seed_failure = sent;
  }
  // Seeding (grouping + sends) is gatekeeper work in the paper's
  // topology; the per-cycle merge cost lives on the shard threads.
  if (gk != nullptr) gk->AddBusyNs(NowNanos() - seed_start);

  if (!seed_failure.ok()) {
    // A shard died between the liveness check and the send: the seeded
    // credits can never balance, so fail the execution through the same
    // path an in-flight abort takes (idempotent against a concurrent
    // normal completion).
    auto err = std::make_shared<WaveAccountingMessage>();
    err->program_id = pid;
    err->error = Status::Unavailable("shard went down during seeding; "
                                     "re-run the program");
    OnWaveAccounting(err);
  }
}

void Weaver::OnWaveAccounting(
    const std::shared_ptr<WaveAccountingMessage>& m) {
  std::unique_ptr<ProgramExecution> finished;
  {
    MutexLock lk(executions_mu_);
    auto it = executions_.find(m->program_id);
    if (it == executions_.end()) return;  // late delta after an abort
    ProgramExecution& ex = *it->second;
    ex.accounting_msgs++;
    ex.consumed += m->hops_consumed;
    ex.spawned += m->hops_spawned;
    ex.visited += m->vertices_visited;
    ex.cycles += m->cycles;
    ex.forwarded_batches += m->forwarded_batches;
    if (m->shard < ex.touched.size()) ex.touched[m->shard] = true;
    for (auto& ret : m->returns) ex.returns.push_back(std::move(ret));
    if (!m->error.ok()) {
      ex.failure = m->error;
    } else if (options_.max_program_hops > 0 &&
               ex.consumed > options_.max_program_hops) {
      // The hop limit is the sole runaway guard: every drain cycle
      // consumes at least one hop, so it also bounds cycles. A cycle cap
      // would spuriously abort wide traversals: cycle counts scale with
      // batching granularity, not traversal depth.
      ex.failure = Status::TimedOut("node program exceeded max_program_hops "
                                    "(runaway traversal?)");
    }
    // Quiescent exactly when every hop ever created has been consumed;
    // any hop still queued or in flight holds an unreturned credit.
    if (ex.failure.ok() && ex.consumed != ex.spawned + ex.starts) return;
    finished = std::move(it->second);
    executions_.erase(it);
  }
  CompleteExecution(std::move(finished));
}

void Weaver::CompleteExecution(std::unique_ptr<ProgramExecution> ex) {
  const ProgramId pid = ex->pid;
  const bool aborted = !ex->failure.ok();
  // GC the per-shard program state (paper §4.5). On normal completion
  // only touched shards hold any; an abort may have seeded contexts on
  // shards that never reported, so it sweeps every live shard (they
  // also tombstone the id against late hop batches). never_block: this
  // runs on a shard's own thread.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!ShardAlive(s)) continue;
    if (!aborted && (s >= ex->touched.size() || !ex->touched[s])) continue;
    auto end = std::make_shared<EndProgramMessage>();
    end->program_id = pid;
    (void)bus_->Send(coordinator_endpoint_, shard_endpoints_[s],
                     kMsgEndProgram, std::move(end), /*never_block=*/true);
  }
  const std::uint64_t quiesced_ns = NowNanos();
  (aborted ? coord_programs_aborted_ : coord_programs_completed_)->Add();
  coord_program_hops_->Add(ex->consumed);
  coord_accounting_msgs_->Add(ex->accounting_msgs);
  if (ex->begin_ns != 0) {
    coord_program_latency_->Record(quiesced_ns - ex->begin_ns);
  }
  const auto record_span = [&] {
    if (!ex->traced) return;
    obs::TraceSpan span;
    span.kind = obs::TraceSpan::Kind::kProgram;
    span.id = pid;
    span.begin_ns = ex->begin_ns;
    span.applied_ns = quiesced_ns;  // quiescence: every hop consumed
    span.replied_ns = NowNanos();   // after the done callback ran
    trace_.Append(span);
  };
  if (!ex->done) {
    record_span();
    return;
  }
  if (aborted) {
    ex->done(ex->failure);
    record_span();
    return;
  }
  ProgramResult result;
  result.timestamp = ex->ts;
  result.returns = std::move(ex->returns);
  result.vertices_visited = ex->visited;
  result.waves = ex->cycles;
  result.hops = ex->consumed;
  result.forwarded_batches = ex->forwarded_batches;
  result.coordinator_msgs = ex->accounting_msgs;
  ex->done(std::move(result));
  record_span();
}

obs::MetricsSnapshot Weaver::ClusterMetrics::Merged() const {
  obs::MetricsSnapshot merged = local;
  for (const MetricsReportMessage& report : remote) {
    merged.Merge(report.snapshot);
  }
  return merged;
}

void Weaver::OnMetricsReport(
    const std::shared_ptr<MetricsReportMessage>& m) {
  // Freshest depth wins, solicited or not: this is what keeps the
  // gatekeepers' NOP backpressure check meaningful for remote shards
  // (MessageBus::QueueDepth's staleness contract).
  if (m->shard < shard_endpoints_.size()) {
    bus_->NoteRemoteDepth(shard_endpoints_[m->shard], m->inbox_depth);
  }
  {
    MutexLock lk(metrics_mu_);
    auto it = metrics_pending_.find(m->request_id);
    if (it == metrics_pending_.end()) return;  // background poll reply
    it->second.reports.push_back(*m);
    if (it->second.reports.size() < it->second.expected) return;
  }
  metrics_cv_.notify_all();
}

std::size_t Weaver::RequestRemoteMetrics(std::uint64_t rid) {
  std::size_t sent = 0;
  const auto ask = [&](EndpointId dst) {
    auto req = std::make_shared<MetricsRequestMessage>();
    req->request_id = rid;
    req->reply_to = coordinator_endpoint_;
    if (bus_->Send(coordinator_endpoint_, dst, kMsgMetricsRequest,
                   std::move(req), /*never_block=*/true)
            .ok()) {
      ++sent;
    }
  };
  for (std::size_t s = 0; s < shard_endpoints_.size(); ++s) {
    ask(shard_endpoints_[s]);
  }
  // The oracle reports like any other server process; its report carries
  // shard = kOracleMetricsSource, which every by-shard consumer
  // bounds-checks away.
  if (remote_oracle_) ask(oracle_endpoint_);
  return sent;
}

void Weaver::MaybePollRemoteMetrics() {
  if (!remote_shards_ || options_.metrics_poll_period_micros == 0) return;
  const std::uint64_t now = NowNanos();
  if (now - last_metrics_poll_ns_ <
      options_.metrics_poll_period_micros * 1000) {
    return;
  }
  last_metrics_poll_ns_ = now;
  // Unsolicited: no pending entry, so the replies only refresh depths.
  RequestRemoteMetrics(
      next_metrics_request_.fetch_add(1, std::memory_order_relaxed));
}

Result<Weaver::ClusterMetrics> Weaver::CollectMetrics(
    std::uint64_t timeout_micros) {
  ClusterMetrics out;
  out.local = metrics_.Snapshot();
  if (!remote_shards_) return out;
  if (!started_.load()) {
    return Status::FailedPrecondition(
        "remote metrics require a started deployment");
  }
  const std::uint64_t rid =
      next_metrics_request_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lk(metrics_mu_);
    metrics_pending_[rid].expected =
        shard_endpoints_.size() + (remote_oracle_ ? 1 : 0);
  }
  const std::size_t sent = RequestRemoteMetrics(rid);
  MetricsCollection collection;
  Status failure = Status::Ok();
  {
    MutexLock lk(metrics_mu_);
    // Re-find on every check: concurrent CollectMetrics calls insert into
    // the map while this one waits, which can invalidate references.
    if (sent < metrics_pending_[rid].expected) {
      failure = Status::Unavailable("a shard-server process is gone");
    } else {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(timeout_micros);
      bool timed_out = false;
      while (!timed_out) {
        const MetricsCollection& p = metrics_pending_[rid];
        if (p.failed || p.reports.size() >= p.expected) break;
        timed_out = metrics_cv_.wait_until(lk.native(), deadline) ==
                    std::cv_status::timeout;
      }
      const MetricsCollection& p = metrics_pending_[rid];
      if (p.failed) {
        failure = Status::Unavailable("deployment shut down during "
                                      "metrics collection");
      } else if (p.reports.size() < p.expected) {
        failure = Status::TimedOut(
            "metrics collection incomplete: " +
            std::to_string(p.reports.size()) + "/" +
            std::to_string(p.expected) + " shard reports");
      }
    }
    collection = std::move(metrics_pending_[rid]);
    metrics_pending_.erase(rid);
  }
  if (!failure.ok()) return failure;
  out.remote = std::move(collection.reports);
  std::sort(out.remote.begin(), out.remote.end(),
            [](const MetricsReportMessage& a, const MetricsReportMessage& b) {
              return a.shard < b.shard;
            });
  return out;
}

void Weaver::FailAllExecutions(const Status& status) {
  std::unordered_map<ProgramId, std::unique_ptr<ProgramExecution>> orphans;
  {
    MutexLock lk(executions_mu_);
    orphans.swap(executions_);
  }
  for (auto& [pid, ex] : orphans) {
    ex->failure = status;
    CompleteExecution(std::move(ex));
  }
}

Result<ProgramResult> Weaver::ExecuteProgram(std::string_view name,
                                             std::vector<NextHop> starts,
                                             const RefinableTimestamp& ts,
                                             Gatekeeper* gk) {
  auto pending = Pending<Result<ProgramResult>>::Make();
  ExecuteProgramAsync(name, std::move(starts), ts, gk,
                      [pending](Result<ProgramResult> r) mutable {
                        pending.Fulfill(std::move(r));
                      });
  return pending.Take();
}

void Weaver::RunProgramAsyncOn(
    GatekeeperId gk_id, std::string_view name, std::vector<NextHop> starts,
    std::function<void(Result<ProgramResult>)> done) {
  RunProgramAsyncOn(gk_id, name, std::move(starts), RefinableTimestamp(),
                    std::move(done));
}

void Weaver::RunProgramAsyncOn(
    GatekeeperId gk_id, std::string_view name, std::vector<NextHop> starts,
    const RefinableTimestamp& fence,
    std::function<void(Result<ProgramResult>)> done) {
  if (!started_.load()) {
    done(Status::FailedPrecondition("deployment not started"));
    return;
  }
  if (gk_id >= gatekeepers_.size()) {
    done(Status::InvalidArgument("no such gatekeeper"));
    return;
  }
  if (programs_->Find(name) == nullptr) {
    done(Status::NotFound("no node program named " + std::string(name)));
    return;
  }
  // Single-start invocations are the cacheable shape (paper §4.6).
  const bool cacheable =
      options_.enable_program_cache && starts.size() == 1;
  if (cacheable) {
    if (auto cached =
            program_cache_.Lookup(name, starts[0].node, starts[0].params)) {
      done(*cached);
      return;
    }
  }
  Gatekeeper& gk = *gatekeepers_[gk_id];
  const RefinableTimestamp ts =
      gk.BeginProgram(fence.valid() ? &fence.clock : nullptr);
  Gatekeeper* gkp = &gk;
  const NodeId cache_node = cacheable ? starts[0].node : kInvalidNodeId;
  const std::string cache_params = cacheable ? starts[0].params : "";
  ExecuteProgramAsync(
      name, std::move(starts), ts, &gk,
      [this, gkp, ts, cacheable, cache_node,
       cache_params = std::move(cache_params), name = std::string(name),
       done = std::move(done)](Result<ProgramResult> r) mutable {
        gkp->EndProgram(ts);
        if (cacheable && r.ok()) {
          program_cache_.Insert(name, cache_node, cache_params, *r);
        }
        done(std::move(r));
      });
}

Result<ProgramResult> Weaver::RunProgramOn(GatekeeperId gk_id,
                                           std::string_view name,
                                           std::vector<NextHop> starts) {
  if (remote_gatekeepers_) {
    // The clock owner lives out-of-parent: route the same ClientProgram
    // message a session would send and wait for the reply. Mirror of
    // Session::RunProgramBatchAsync; keep the two in sync.
    if (!started_.load()) {
      return Status::FailedPrecondition("deployment not started");
    }
    if (gk_id >= options_.num_gatekeepers) {
      return Status::InvalidArgument("no such gatekeeper");
    }
    if (programs_->Find(name) == nullptr) {
      return Status::NotFound("no node program named " + std::string(name));
    }
    auto pending = Pending<Result<ProgramResult>>::Make();
    auto msg = std::make_shared<ClientProgramMessage>();
    msg->session_id =
        next_internal_lane_.fetch_add(1, std::memory_order_relaxed);
    msg->reply_to = internal_reply_endpoint_;
    ProgramRequest req;
    req.request_id = internal_replies_->RegisterProgram(pending);
    req.program_name = std::string(name);
    req.starts = std::move(starts);
    const std::uint64_t request_id = req.request_id;
    msg->requests.push_back(std::move(req));
    const Status sent =
        bus_->Send(internal_reply_endpoint_, gk_client_endpoints_[gk_id],
                   kMsgClientProgram, std::move(msg));
    if (!sent.ok()) {
      internal_replies_->FailProgram(request_id, sent);
      return sent;
    }
    return pending.Take();
  }
  auto pending = Pending<Result<ProgramResult>>::Make();
  RunProgramAsyncOn(gk_id, name, std::move(starts),
                    [pending](Result<ProgramResult> r) mutable {
                      pending.Fulfill(std::move(r));
                    });
  return pending.Take();
}

Result<ProgramResult> Weaver::RunProgramOn(GatekeeperId gk_id,
                                           std::string_view name,
                                           NodeId start, std::string params) {
  std::vector<NextHop> starts;
  starts.push_back(NextHop{start, std::move(params)});
  return RunProgramOn(gk_id, name, std::move(starts));
}

Result<ProgramResult> Weaver::RunProgram(std::string_view name,
                                         std::vector<NextHop> starts) {
  return RunProgramOn(NextGatekeeperId(), name, std::move(starts));
}

Result<ProgramResult> Weaver::RunProgramAt(std::string_view name,
                                           std::vector<NextHop> starts,
                                           const RefinableTimestamp& ts) {
  if (!started_.load()) {
    return Status::FailedPrecondition("deployment not started");
  }
  if (!ts.valid()) {
    return Status::InvalidArgument("invalid historical timestamp");
  }
  if (programs_->Find(name) == nullptr) {
    return Status::NotFound("no node program named " + std::string(name));
  }
  return ExecuteProgram(name, std::move(starts), ts, nullptr);
}

Result<ProgramResult> Weaver::RunProgram(std::string_view name, NodeId start,
                                         std::string params) {
  return RunProgramOn(NextGatekeeperId(), name, start, std::move(params));
}

Status Weaver::BulkCreateNode(
    NodeId id, std::vector<std::pair<std::string, std::string>> properties) {
  if (started_.load()) {
    return Status::FailedPrecondition("bulk load requires a stopped deployment");
  }
  if (remote_shards_) {
    return Status::FailedPrecondition(
        "bulk load requires in-process shards; load through transactions");
  }
  MutexLock lk(bulk_mu_);
  if (!bulk_ts_.valid()) {
    bulk_ts_ = gatekeepers_[0]->BeginProgram();  // any fresh timestamp
    gatekeepers_[0]->EndProgram(bulk_ts_);
  }
  // Keep the allocator ahead of explicitly chosen ids so later
  // transactional CreateNode() calls cannot collide with loaded vertices.
  std::uint64_t expected = next_node_id_.load(std::memory_order_relaxed);
  while (expected <= id && !next_node_id_.compare_exchange_weak(
                               expected, id + 1, std::memory_order_relaxed)) {
  }
  const ShardId shard = PlaceNewNode(id);
  GraphStore& g = shards_[shard]->graph();
  WEAVER_RETURN_IF_ERROR(g.CreateNode(id, bulk_ts_));
  for (auto& [k, v] : properties) {
    WEAVER_RETURN_IF_ERROR(g.AssignNodeProperty(id, k, v, bulk_ts_));
  }
  locator_->Record(id, shard);
  if (options_.bulk_load_durable) bulk_dirty_[shard].push_back(id);
  return Status::Ok();
}

Result<EdgeId> Weaver::BulkCreateEdge(
    NodeId from, NodeId to,
    std::vector<std::pair<std::string, std::string>> properties) {
  if (started_.load()) {
    return Status::FailedPrecondition("bulk load requires a stopped deployment");
  }
  if (remote_shards_) {
    return Status::FailedPrecondition(
        "bulk load requires in-process shards; load through transactions");
  }
  auto shard = locator_->Lookup(from);
  if (!shard.has_value()) {
    return Status::NotFound("bulk edge source " + std::to_string(from));
  }
  MutexLock lk(bulk_mu_);
  const EdgeId eid = AllocateEdgeId();
  GraphStore& g = shards_[*shard]->graph();
  WEAVER_RETURN_IF_ERROR(g.CreateEdge(eid, from, to, bulk_ts_));
  for (auto& [k, v] : properties) {
    WEAVER_RETURN_IF_ERROR(g.AssignEdgeProperty(from, eid, k, v, bulk_ts_));
  }
  return eid;
}

Status Weaver::FinishBulkLoad() {
  if (started_.load()) {
    return Status::FailedPrecondition("bulk load requires a stopped deployment");
  }
  if (!options_.bulk_load_durable) return Status::Ok();
  MutexLock lk(bulk_mu_);
  ByteWriter ts_writer;
  bulk_ts_.Serialize(&ts_writer);
  const std::string ts_blob = ts_writer.Take();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]) continue;  // remote: nothing was bulk loaded
    GraphStore& g = shards_[s]->graph();
    for (NodeId id : bulk_dirty_[s]) {
      const Node* node = g.FindNode(id);
      if (node == nullptr) continue;
      WEAVER_RETURN_IF_ERROR(
          kv_->Put(kv_keys::VertexData(id), GraphStore::SerializeNode(*node)));
      WEAVER_RETURN_IF_ERROR(
          kv_->Put(kv_keys::VertexShardMap(id), std::to_string(s)));
      WEAVER_RETURN_IF_ERROR(
          kv_->Put(kv_keys::VertexLastUpdate(id), ts_blob));
    }
    bulk_dirty_[s].clear();
  }
  return Status::Ok();
}

namespace {

/// Pointwise minimum of every gatekeeper's oldest in-flight operation
/// (paper §4.5). Invalid while any gatekeeper has not reported one.
RefinableTimestamp PointwiseMinimum(
    const std::vector<RefinableTimestamp>& oldest) {
  if (oldest.empty()) return {};
  for (const RefinableTimestamp& wm : oldest) {
    if (!wm.valid()) return {};
  }
  RefinableTimestamp watermark = oldest[0];
  std::vector<std::uint64_t> mins(watermark.clock.counters());
  std::uint32_t epoch = watermark.clock.epoch();
  for (std::size_t g = 1; g < oldest.size(); ++g) {
    const VectorClock& other = oldest[g].clock;
    epoch = std::min(epoch, other.epoch());
    for (std::size_t i = 0; i < mins.size() && i < other.width(); ++i) {
      mins[i] = std::min(mins[i], other.Component(i));
    }
  }
  watermark.clock = VectorClock(epoch, std::move(mins));
  return watermark;
}

}  // namespace

RefinableTimestamp Weaver::ComputeWatermark() {
  std::vector<RefinableTimestamp> oldest;
  if (remote_gatekeepers_) {
    // Out-of-parent gatekeepers push their oldest-active timestamp every
    // few milliseconds (GkWatermark); fold the cached copies.
    MutexLock lk(gk_wm_mu_);
    oldest = gk_watermarks_;
  } else {
    for (auto& g : gatekeepers_) oldest.push_back(g->OldestActive());
  }
  return PointwiseMinimum(oldest);
}

RefinableTimestamp Weaver::StoreWatermark() {
  MutexLock lk(store_wm_mu_);
  return store_watermark_;
}

void Weaver::RunGarbageCollection(bool include_shards) {
  // Until every gatekeeper has reported there is no safe watermark: skip
  // the round rather than collect at a guess.
  const RefinableTimestamp watermark = ComputeWatermark();
  if (!watermark.valid()) return;
  {
    MutexLock lk(store_wm_mu_);
    store_watermark_ = watermark;
  }
  if (include_shards) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!ShardAlive(s)) continue;
      auto gc = std::make_shared<GcMessage>();
      gc->watermark = watermark;
      bus_->Send(coordinator_endpoint_, shard_endpoints_[s], kMsgGc,
                 std::move(gc));
    }
  }
  // With weaver-oracled this is the RPC that drives the service's
  // changelog GC (and trims the parent's replica); a failure just means
  // the next GC round retries with a newer watermark.
  (void)oracle_client_->CollectService(watermark.clock);
}

Status Weaver::KillShard(ShardId id) {
  if (remote_shards_) {
    return Status::FailedPrecondition(
        "fault injection requires in-process shards");
  }
  if (id >= shards_.size()) return Status::InvalidArgument("no such shard");
  if (!shards_[id]) return Status::FailedPrecondition("shard already dead");
  bus_->Detach(shards_[id]->endpoint());
  shards_[id]->Stop();
  // Remember the endpoint for recovery before dropping the server.
  dead_shard_endpoints_[id] = shards_[id]->endpoint();
  shards_[id].reset();
  cluster_.MarkFailed("shard" + std::to_string(id));
  return Status::Ok();
}

Status Weaver::RecoverShard(ShardId id) {
  if (remote_shards_) {
    return Status::FailedPrecondition(
        "fault injection requires in-process shards");
  }
  if (id >= shards_.size()) return Status::InvalidArgument("no such shard");
  if (shards_[id]) return Status::FailedPrecondition("shard is alive");
  Shard::Options so;
  so.id = id;
  so.num_gatekeepers = options_.num_gatekeepers;
  so.bus = bus_.get();
  so.oracle = &oracle_;
  so.programs = programs_;
  so.locator = locator_.get();
  so.inbox_capacity = options_.shard_inbox_capacity;
  so.queue_high_water = options_.shard_queue_high_water;
  so.max_hops_per_cycle = options_.shard_max_hops_per_cycle;
  so.metrics = &metrics_;
  so.reuse_endpoint = dead_shard_endpoints_[id];
  auto shard = std::make_unique<Shard>(so);  // reattaches: messages buffer
  shard->SetShardEndpoints(shard_endpoints_);

  // Restore the partition from the backing store (paper §4.3).
  for (const auto& [key, value] :
       kv_->ScanPrefix(kv_keys::kVertexShardMapPrefix)) {
    const NodeId node_id = std::strtoull(
        key.substr(kv_keys::kVertexShardMapPrefix.size()).c_str(), nullptr,
        10);
    const ShardId owner =
        static_cast<ShardId>(std::strtoul(value.c_str(), nullptr, 10));
    if (owner != id) continue;
    auto blob = kv_->Get(kv_keys::VertexData(node_id));
    if (!blob.ok()) continue;
    auto node = GraphStore::DeserializeNode(*blob);
    if (!node.ok()) continue;
    shard->graph().InstallNode(std::move(node).value());
  }
  if (started_.load()) shard->Start();
  shards_[id] = std::move(shard);
  cluster_.MarkRecovered("shard" + std::to_string(id));
  return Status::Ok();
}

Status Weaver::ReplaceGatekeeper(GatekeeperId id) {
  if (id >= options_.num_gatekeepers) {
    return Status::InvalidArgument("no such gatekeeper");
  }
  // The backup restarts the failed gatekeeper's vector clock; the cluster
  // manager imposes an epoch barrier so all clocks advance in unison
  // (paper §4.3).
  if (remote_gatekeepers_) {
    // The clocks live out-of-parent: bump the cluster epoch here and
    // broadcast the new value to every gatekeeper process's control
    // endpoint; each advances its own clock on receipt.
    auto new_epoch = cluster_.AdvanceEpochBarrier({});
    if (!new_epoch.ok()) return new_epoch.status();
    for (std::size_t g = 0; g < gk_control_endpoints_.size(); ++g) {
      auto adv = std::make_shared<GkEpochAdvanceMessage>();
      adv->epoch = *new_epoch;
      bus_->Send(coordinator_endpoint_, gk_control_endpoints_[g],
                 kMsgGkEpochAdvance, std::move(adv));
    }
    cluster_.MarkRecovered("gk" + std::to_string(id));
    return Status::Ok();
  }
  std::vector<Gatekeeper*> gks;
  gks.reserve(gatekeepers_.size());
  for (auto& g : gatekeepers_) gks.push_back(g.get());
  auto new_epoch = cluster_.AdvanceEpochBarrier(gks);
  if (!new_epoch.ok()) return new_epoch.status();
  cluster_.MarkRecovered("gk" + std::to_string(id));
  return Status::Ok();
}

void Weaver::PumpAll() {
  for (auto& g : gatekeepers_) g->PumpAnnounce();
  for (auto& g : gatekeepers_) g->PumpNop();
  for (auto& s : shards_) {
    if (s) s->ProcessUntilIdle();  // remote shards drain on their own
  }
}

}  // namespace weaver
