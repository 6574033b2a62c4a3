#include "coord/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/clock.h"
#include "coord/serverd.h"
#include "core/message_codec.h"
#include "core/weaver.h"
#include "kvstore/kvstore.h"
#include "net/transport.h"
#include "net/wire_link.h"

namespace weaver {

ShardSupervisor::ShardSupervisor(Weaver* weaver) : weaver_(weaver) {
  const ShardSupervisionOptions& opts = weaver_->options_.supervision;
  shards_.reserve(weaver_->options_.num_shards);
  for (std::size_t s = 0; s < weaver_->options_.num_shards; ++s) {
    auto st = std::make_unique<ShardState>();
    if (s < opts.shard_pids.size()) st->pid = opts.shard_pids[s];
    shards_.push_back(std::move(st));
  }
  oracle_enabled_ = weaver_->remote_oracle_;
  if (oracle_enabled_) oracle_.pid = weaver_->options_.oracle_service.pid;
  gk_enabled_ = weaver_->remote_gatekeepers_;
  if (gk_enabled_) {
    gk_states_.reserve(weaver_->options_.num_gatekeepers);
    for (std::size_t g = 0; g < weaver_->options_.num_gatekeepers; ++g) {
      auto st = std::make_unique<ShardState>();
      if (g < opts.gatekeeper_pids.size()) st->pid = opts.gatekeeper_pids[g];
      gk_states_.push_back(std::move(st));
    }
  }

  obs::MetricsRegistry& m = weaver_->metrics_;
  recoveries_ = m.counter("supervisor.recoveries");
  recoveries_failed_ = m.counter("supervisor.recoveries_failed");
  reset_ack_timeouts_ = m.counter("supervisor.reset_ack_timeouts");
  replayed_vertices_ = m.counter("supervisor.replayed_vertices");
  sigkills_ = m.counter("supervisor.sigkills");
  oracle_recoveries_ = m.counter("supervisor.oracle_recoveries");
  gk_recoveries_ = m.counter("supervisor.gk_recoveries");
  exec_respawns_ = m.counter("supervisor.exec_respawns");
  shards_down_ = m.gauge("supervisor.shards_down");
  oracle_down_ = m.gauge("supervisor.oracle_down");
  gks_down_ = m.gauge("supervisor.gks_down");
  recovery_latency_ = m.histogram("supervisor.recovery_latency");
}

ShardSupervisor::~ShardSupervisor() {
  Stop();
  weaver_->metrics_.DropPrefix("supervisor.");
}

void ShardSupervisor::Start() {
  MutexLock lk(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { MonitorLoop(); });
}

void ShardSupervisor::Stop() {
  {
    MutexLock lk(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void ShardSupervisor::OnLinkDown(ShardId shard) {
  if (shard >= shards_.size()) return;
  shards_[shard]->link_down.store(true, std::memory_order_release);
  MutexLock lk(mu_);
  wake_ = true;
  cv_.notify_all();
}

void ShardSupervisor::OnOracleLinkDown() {
  oracle_.link_down.store(true, std::memory_order_release);
  MutexLock lk(mu_);
  wake_ = true;
  cv_.notify_all();
}

void ShardSupervisor::OnGatekeeperLinkDown(GatekeeperId gk) {
  if (gk >= gk_states_.size()) return;
  gk_states_[gk]->link_down.store(true, std::memory_order_release);
  MutexLock lk(mu_);
  wake_ = true;
  cv_.notify_all();
}

void ShardSupervisor::OnResetAck(const ShardResetAckMessage& ack) {
  MutexLock lk(ack_mu_);
  if (ack.token != ack_token_) return;  // stale ack from an earlier round
  ++acks_;
  ack_cv_.notify_all();
}

bool ShardSupervisor::Reaped(ShardState* st) {
  if (st->pid <= 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(st->pid, &status, WNOHANG);
  if (r == st->pid || (r < 0 && errno == ECHILD)) {
    st->pid = -1;
    return true;
  }
  return false;
}

std::uint64_t ShardSupervisor::FramesOf(const WireLink* link) {
  if (link == nullptr) return 0;
  return link->stats().frames_delivered.load(std::memory_order_relaxed) +
         link->stats().frames_forwarded.load(std::memory_order_relaxed);
}

bool ShardSupervisor::HeartbeatDead(ShardState* st, const WireLink* link,
                                    EndpointId ep, const std::string& name) {
  const ShardSupervisionOptions& opts = weaver_->options_.supervision;
  const std::uint64_t frames = FramesOf(link);
  const std::uint64_t now = NowMicros();
  if (frames != st->last_frames || st->last_activity_us == 0) {
    st->last_frames = frames;
    st->last_activity_us = now;
    st->pinged = false;
    return false;
  }
  if (opts.heartbeat_timeout_micros > 0 &&
      now - st->last_activity_us >= 2 * opts.heartbeat_timeout_micros) {
    // Silent through a ping round: wedged but alive. Kill first so the
    // recovery that follows never races a half-dead writer.
    std::fprintf(stderr,
                 "weaver-supervisor: %s silent for %llu us; killing pid %d\n",
                 name.c_str(),
                 static_cast<unsigned long long>(now - st->last_activity_us),
                 static_cast<int>(st->pid));
    sigkills_->Add();
    if (st->pid > 0) ::kill(st->pid, SIGKILL);
    return true;
  }
  if (opts.heartbeat_timeout_micros > 0 && !st->pinged &&
      now - st->last_activity_us >= opts.heartbeat_timeout_micros) {
    // Quiet but maybe just idle: solicit a reply frame. The request_id
    // matches no pending collection, so the reply only refreshes the
    // remote depth -- and the frame counter.
    st->pinged = true;
    auto req = std::make_shared<MetricsRequestMessage>();
    req->request_id = 0;
    req->reply_to = weaver_->coordinator_endpoint_;
    (void)weaver_->bus_->Send(weaver_->coordinator_endpoint_, ep,
                              kMsgMetricsRequest, std::move(req),
                              /*never_block=*/true);
  }
  return false;
}

void ShardSupervisor::MonitorLoop() {
  const ShardSupervisionOptions& opts = weaver_->options_.supervision;
  while (true) {
    {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(opts.poll_period_micros);
      MutexLock lk(mu_);
      while (!stop_ && !wake_) {
        if (cv_.wait_until(lk.native(), deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stop_) return;
      wake_ = false;
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardState& st = *shards_[s];
      if (st.lost) continue;
      bool dead = Reaped(&st);
      if (st.link_down.load(std::memory_order_acquire)) dead = true;
      if (!dead) {
        const WireLink* link = s < weaver_->links_.size()
                                   ? weaver_->links_[s].get()
                                   : nullptr;
        dead = HeartbeatDead(&st, link, weaver_->shard_endpoints_[s],
                             "shard" + std::to_string(s));
      }
      if (dead) Recover(static_cast<ShardId>(s));
    }
    if (oracle_enabled_ && !oracle_.lost) {
      bool dead = Reaped(&oracle_);
      if (oracle_.link_down.load(std::memory_order_acquire)) dead = true;
      if (!dead) {
        dead = HeartbeatDead(&oracle_, weaver_->oracle_link_.get(),
                             weaver_->oracle_endpoint_, "oracled");
      }
      if (dead) RecoverOracle();
    }
    for (std::size_t g = 0; g < gk_states_.size(); ++g) {
      ShardState& st = *gk_states_[g];
      if (st.lost) continue;
      bool dead = Reaped(&st);
      if (st.link_down.load(std::memory_order_acquire)) dead = true;
      if (!dead) {
        // The control endpoint ignores the solicited ping, but the
        // child's 5ms watermark reports keep its frame counter moving,
        // so a live gatekeeper never looks silent.
        const WireLink* link = g < weaver_->gatekeeper_links_.size()
                                   ? weaver_->gatekeeper_links_[g].get()
                                   : nullptr;
        dead = HeartbeatDead(&st, link, weaver_->gk_control_endpoints_[g],
                             "gk" + std::to_string(g));
      }
      if (dead) RecoverGatekeeper(static_cast<GatekeeperId>(g));
    }
  }
}

std::optional<serverd::ShardProcess> ShardSupervisor::SpawnReplacement(
    NodeRole role, std::uint32_t id, bool rehydrate, ShardState* st,
    const std::string& name) {
  const ShardSupervisionOptions& opts = weaver_->options_.supervision;
  if (opts.exec_respawn) {
    // Fresh process, fresh address space, no inherited fds: the hook
    // execs weaver-serverd and hands back the joined connection
    // (docs/transport.md#cluster-bootstrap).
    auto proc = opts.exec_respawn(role, id, rehydrate,
                                  weaver_->cluster_.current_epoch());
    if (proc.ok()) {
      exec_respawns_->Add();
      return *proc;
    }
    std::fprintf(stderr, "weaver-supervisor: exec respawn failed (%s)\n",
                 proc.status().ToString().c_str());
  }
  st->lost = true;
  recoveries_failed_->Add();
  std::fprintf(stderr,
               "weaver-supervisor: no replacement for %s; it stays down\n",
               name.c_str());
  return std::nullopt;
}

std::uint32_t ShardSupervisor::AdvanceEpoch(GatekeeperId skip_gk) {
  if (weaver_->remote_gatekeepers_) {
    // The clocks live out-of-parent: bump the cluster epoch, then tell
    // every surviving gatekeeper process; each applies it under its own
    // clock lock. Not a true barrier -- the survivors converge within a
    // control-message delivery -- but cross-failure monotonicity only
    // needs the RESPAWNED clock to start in the new epoch, which its
    // RoleAssign guarantees.
    auto epoch = weaver_->cluster_.AdvanceEpochBarrier({});
    if (!epoch.ok()) {
      std::fprintf(stderr,
                   "weaver-supervisor: epoch bump failed (%s); "
                   "continuing recovery in the old epoch\n",
                   epoch.status().ToString().c_str());
      return weaver_->cluster_.current_epoch();
    }
    for (std::size_t g = 0; g < gk_states_.size(); ++g) {
      if (g == skip_gk || gk_states_[g]->lost) continue;
      auto adv = std::make_shared<GkEpochAdvanceMessage>();
      adv->epoch = *epoch;
      (void)weaver_->bus_->Send(weaver_->coordinator_endpoint_,
                                weaver_->gk_control_endpoints_[g],
                                kMsgGkEpochAdvance, std::move(adv),
                                /*never_block=*/true);
    }
    return *epoch;
  }
  std::vector<Gatekeeper*> gks;
  gks.reserve(weaver_->gatekeepers_.size());
  for (auto& g : weaver_->gatekeepers_) gks.push_back(g.get());
  auto epoch = weaver_->cluster_.AdvanceEpochBarrier(gks);
  if (!epoch.ok()) {
    std::fprintf(stderr,
                 "weaver-supervisor: epoch barrier failed (%s); "
                 "continuing recovery in the old epoch\n",
                 epoch.status().ToString().c_str());
    return weaver_->cluster_.current_epoch();
  }
  return *epoch;
}

void ShardSupervisor::Recover(ShardId s) {
  const std::uint64_t t0 = NowNanos();
  ShardState& st = *shards_[s];
  const EndpointId ep = weaver_->shard_endpoints_[s];
  const std::string name = "shard" + std::to_string(s);
  std::fprintf(stderr, "weaver-supervisor: %s (pid %d) is down; recovering\n",
               name.c_str(), static_cast<int>(st.pid));
  shards_down_->Add(1);

  // 1. FENCE. Down flag first: ShardAlive fast-fails new seeding before
  // anything else happens. Detach drops frames addressed to the corpse
  // (hub forwards included). In-flight programs can never balance their
  // credits once a shard is gone -- fail them all; their clients retry.
  weaver_->remote_down_[s].store(true, std::memory_order_relaxed);
  weaver_->cluster_.MarkFailed(name);
  weaver_->bus_->Detach(ep);
  weaver_->FailAllExecutions(
      Status::Unavailable(name + " crashed; re-run the program"));
  if (s < weaver_->links_.size() && weaver_->links_[s]) {
    weaver_->links_[s]->Stop();
    weaver_->links_[s].reset();
  }
  weaver_->remote_shard_transports_[s].reset();
  if (st.pid > 0) {
    // Heartbeat-declared deaths arrive here with the process possibly
    // still running; make it true, then reap.
    ::kill(st.pid, SIGKILL);
    (void)::waitpid(st.pid, nullptr, 0);
    st.pid = -1;
  }
  st.link_down.store(false, std::memory_order_release);

  // 2. EPOCH. Before the exclusive gate: the barrier takes every clock
  // lock, and a commit holding the shared gate may be waiting on one.
  (void)AdvanceEpoch(/*skip_gk=*/static_cast<GatekeeperId>(-1));

  // 3. RESPAWN: exec a fresh weaver-serverd. With weaver-oracled
  // running, the respawn rehydrates: it Sync()s the oracle's edge set
  // into its local replica after its link is up, so refinements the dead
  // shard had already observed stay locally answerable.
  const auto proc = SpawnReplacement(NodeRole::kShard, s,
                                     weaver_->remote_oracle_, &st, name);
  if (!proc) return;

  auto transport =
      std::shared_ptr<Transport>(SocketTransport::Adopt(proc->parent_fd));
  if (weaver_->options_.shard_transport_decorator) {
    transport =
        weaver_->options_.shard_transport_decorator(std::move(transport), s);
  }

  // 4. RESET the survivors' wire-sequence state for the dead endpoint.
  // Their stale-seq frames to it were dropped at the detached endpoint
  // (FIFO uplinks: anything sent before their reset ran precedes the
  // ack), so after the acks no old-numbered frame can reach the respawn.
  // The oracle service joins the round: it must forget the dead shard's
  // oracle-client endpoint, whose respawn restarts request seqs at zero.
  std::vector<std::pair<EndpointId, EndpointId>> resets;
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    if (p == s || shards_[p]->lost) continue;
    resets.emplace_back(weaver_->shard_endpoints_[p], ep);
  }
  if (weaver_->remote_oracle_ && !oracle_.lost) {
    resets.emplace_back(weaver_->oracle_endpoint_,
                        weaver_->oracle_client_endpoints_[s]);
  }
  if (weaver_->remote_gatekeepers_) {
    // Out-of-parent gatekeepers stream commit slices and program seeds
    // straight at shard endpoints: each live one must forget its wire
    // sequences toward the respawn too, or its next slice arrives with a
    // stale high seq and kills the fresh uplink.
    for (std::size_t h = 0; h < weaver_->gk_control_endpoints_.size(); ++h) {
      if (h < gk_states_.size() && gk_states_[h]->lost) continue;
      resets.emplace_back(weaver_->gk_control_endpoints_[h], ep);
    }
  }
  RunResetRound(resets);

  std::uint64_t replayed = 0;
  {
    // 5. REPLAY under the exclusive gate: no commit slice or program
    // seed interleaves with the reset + replay stream.
    WriterLock gate(weaver_->commit_gate_);
    // Programs seeded between the fence above and this acquisition may
    // have hops en route to the dead endpoint (dropped at the hub) --
    // they would hang, so they fail here too. Seeding holds the shared
    // gate, so no new execution can register while we hold it.
    weaver_->FailAllExecutions(
        Status::Unavailable(name + " crashed; re-run the program"));
    weaver_->bus_->ResetPeer(ep);
    weaver_->bus_->ReplaceRemote(ep, transport);
    if (weaver_->remote_oracle_) {
      // The shard's oracle-client reply endpoint rides the same socket:
      // reset its sequence state AND re-point it at the respawn's
      // transport, or the oracle's replies to the new process would be
      // dropped at the hub ("transport is stopped").
      weaver_->bus_->ResetPeer(weaver_->oracle_client_endpoints_[s]);
      weaver_->bus_->ReplaceRemote(weaver_->oracle_client_endpoints_[s],
                                   transport);
    }
    weaver_->remote_shard_transports_[s] = transport;
    WireLink::Options lo;
    lo.bus = weaver_->bus_.get();
    lo.transport = transport;
    lo.decode = DecodePayload;
    lo.never_block = WireNeverBlock;
    lo.name = name + ".link";
    lo.on_down = [this, s](const Status&) { OnLinkDown(s); };
    weaver_->links_[s] = std::make_unique<WireLink>(std::move(lo));
    replayed = ReplayPartition(s, ep);
  }

  // 6. REJOIN.
  st.pid = proc->pid;
  st.last_frames = 0;
  st.last_activity_us = NowMicros();
  st.pinged = false;
  weaver_->remote_down_[s].store(false, std::memory_order_relaxed);
  weaver_->cluster_.MarkRecovered(name);
  shards_down_->Add(-1);
  replayed_vertices_->Add(replayed);
  recoveries_->Add();
  const std::uint64_t elapsed_ns = NowNanos() - t0;
  recovery_latency_->Record(elapsed_ns);
  std::fprintf(stderr,
               "weaver-supervisor: %s respawned as pid %d (%llu vertices "
               "replayed, %.1f ms)\n",
               name.c_str(), static_cast<int>(proc->pid),
               static_cast<unsigned long long>(replayed),
               static_cast<double>(elapsed_ns) / 1e6);
}

void ShardSupervisor::RunResetRound(
    const std::vector<std::pair<EndpointId, EndpointId>>& resets) {
  const std::uint64_t token = next_token_++;
  {
    MutexLock lk(ack_mu_);
    ack_token_ = token;
    acks_ = 0;
  }
  std::size_t expected = 0;
  for (const auto& [dst, target] : resets) {
    auto reset = std::make_shared<ShardResetMessage>();
    reset->target = target;
    reset->token = token;
    reset->reply_to = weaver_->coordinator_endpoint_;
    if (weaver_->bus_
            ->Send(weaver_->coordinator_endpoint_, dst, kMsgShardReset,
                   std::move(reset), /*never_block=*/true)
            .ok()) {
      ++expected;
    }
  }
  if (expected == 0) return;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          weaver_->options_.supervision.reset_ack_timeout_micros);
  MutexLock lk(ack_mu_);
  bool all = true;
  while (acks_ < expected) {
    if (ack_cv_.wait_until(lk.native(), deadline) ==
        std::cv_status::timeout) {
      all = acks_ >= expected;
      break;
    }
  }
  if (!all) {
    reset_ack_timeouts_->Add();
    std::fprintf(stderr,
                 "weaver-supervisor: reset round %llu got %zu/%zu acks; "
                 "proceeding\n",
                 static_cast<unsigned long long>(token), acks_, expected);
  }
}

void ShardSupervisor::RecoverOracle() {
  const std::uint64_t t0 = NowNanos();
  ShardState& st = oracle_;
  const EndpointId ep = weaver_->oracle_endpoint_;
  std::fprintf(stderr,
               "weaver-supervisor: oracled (pid %d) is down; recovering\n",
               static_cast<int>(st.pid));
  oracle_down_->Add(1);

  // FENCE. Detach drops frames addressed to the corpse (shard requests
  // hub-forwarded here included); callers time out and retry. No epoch
  // bump, no commit gate, no execution fail-out: the oracle holds no
  // clocks and no graph state, and every in-flight caller either parks
  // its wave or aborts its program with a retriable Unavailable.
  weaver_->cluster_.MarkFailed("oracled");
  weaver_->bus_->Detach(ep);
  if (weaver_->oracle_link_) {
    weaver_->oracle_link_->Stop();
    weaver_->oracle_link_.reset();
  }
  weaver_->oracle_transport_.reset();
  if (st.pid > 0) {
    ::kill(st.pid, SIGKILL);
    (void)::waitpid(st.pid, nullptr, 0);
    st.pid = -1;
  }
  st.link_down.store(false, std::memory_order_release);

  // RESPAWN: the replacement replays the oracle's durable changelog
  // before it serves (serverd::RunOracleServer refuses to come up on a
  // recovery failure), so every edge acknowledged pre-crash is
  // re-established.
  const auto proc =
      SpawnReplacement(NodeRole::kOracle, 0, /*rehydrate=*/false, &st,
                       "oracled");
  if (!proc) return;
  auto transport =
      std::shared_ptr<Transport>(SocketTransport::Adopt(proc->parent_fd));

  // RESET: every live shard forgets its wire-sequence state for the
  // oracle endpoint (requests restart at seq zero toward the respawn,
  // and replies from it restart at zero toward them). The parent resets
  // its own state below, before the new link comes up.
  std::vector<std::pair<EndpointId, EndpointId>> resets;
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    if (shards_[p]->lost) continue;
    resets.emplace_back(weaver_->shard_endpoints_[p], ep);
  }
  RunResetRound(resets);

  weaver_->bus_->ResetPeer(ep);
  weaver_->bus_->ReplaceRemote(ep, transport);
  weaver_->oracle_transport_ = transport;
  WireLink::Options lo;
  lo.bus = weaver_->bus_.get();
  lo.transport = transport;
  lo.decode = DecodePayload;
  lo.never_block = WireNeverBlock;
  lo.name = "oracled.link";
  lo.on_down = [this](const Status&) { OnOracleLinkDown(); };
  weaver_->oracle_link_ = std::make_unique<WireLink>(std::move(lo));

  // REJOIN.
  st.pid = proc->pid;
  st.last_frames = 0;
  st.last_activity_us = NowMicros();
  st.pinged = false;
  weaver_->cluster_.MarkRecovered("oracled");
  oracle_down_->Add(-1);
  oracle_recoveries_->Add();
  const std::uint64_t elapsed_ns = NowNanos() - t0;
  recovery_latency_->Record(elapsed_ns);
  std::fprintf(stderr,
               "weaver-supervisor: oracled respawned as pid %d (%.1f ms)\n",
               static_cast<int>(proc->pid),
               static_cast<double>(elapsed_ns) / 1e6);
}

void ShardSupervisor::RecoverGatekeeper(GatekeeperId g) {
  const std::uint64_t t0 = NowNanos();
  ShardState& st = *gk_states_[g];
  const std::string name = "gk" + std::to_string(g);
  const EndpointId server_ep = weaver_->gk_server_endpoints_[g];
  const EndpointId client_ep = weaver_->gk_client_endpoints_[g];
  const EndpointId control_ep = weaver_->gk_control_endpoints_[g];
  std::fprintf(stderr, "weaver-supervisor: %s (pid %d) is down; recovering\n",
               name.c_str(), static_cast<int>(st.pid));
  gks_down_->Add(1);

  // FENCE. Detach all three of the dead process's endpoints: new client
  // sends fail fast instead of queueing toward a corpse, and stale
  // frames (peer announces, agent replies) are dropped. The dead clock
  // owner can never answer what it had accepted -- fail the parent's
  // internal pending replies so blocking wrappers return a retriable
  // Unavailable instead of hanging. (Pendings aimed at LIVE gatekeepers
  // fail too and simply retry: commits are acked only after the
  // parent-side store apply, so a retry of an already-applied write
  // re-validates against its own result and is benign.)
  weaver_->cluster_.MarkFailed(name);
  weaver_->bus_->Detach(server_ep);
  weaver_->bus_->Detach(client_ep);
  weaver_->bus_->Detach(control_ep);
  weaver_->internal_replies_->FailAll(
      Status::Unavailable(name + " crashed; retry"));
  // Client sessions pinned to this gatekeeper have their in-flight
  // requests die with the process -- unlike a shard crash, where the
  // surviving gatekeeper owns the retry, nothing will ever answer them.
  // Fail them fast so clients rebuild and resubmit.
  weaver_->FailSessionCalls(g, Status::Unavailable(name +
                                                   " crashed; resubmit"));
  if (g < weaver_->gatekeeper_links_.size() &&
      weaver_->gatekeeper_links_[g]) {
    weaver_->gatekeeper_links_[g]->Stop();
    weaver_->gatekeeper_links_[g].reset();
  }
  weaver_->remote_gatekeeper_transports_[g].reset();
  if (st.pid > 0) {
    ::kill(st.pid, SIGKILL);
    (void)::waitpid(st.pid, nullptr, 0);
    st.pid = -1;
  }
  st.link_down.store(false, std::memory_order_release);
  {
    // The cached GC watermark is the dead clock's word; GC skips rounds
    // until the respawn reports again.
    MutexLock lk(weaver_->gk_wm_mu_);
    weaver_->gk_watermarks_[g] = RefinableTimestamp();
  }

  // EPOCH. The respawn's clock seeds at the new epoch (RoleAssign), so
  // its restarted counters still order after everything the dead
  // process issued.
  (void)AdvanceEpoch(/*skip_gk=*/g);

  // RESPAWN.
  const auto proc =
      SpawnReplacement(NodeRole::kGatekeeper, g, /*rehydrate=*/false, &st,
                       name);
  if (!proc) return;
  auto transport =
      std::shared_ptr<Transport>(SocketTransport::Adopt(proc->parent_fd));

  // RESET: every survivor that addresses the dead process forgets its
  // wire-sequence state -- shards send announce acks and accounting to
  // the server endpoint, and surviving gatekeeper processes announce to
  // it as a peer. The respawn's bus expects every channel to start at
  // seq zero.
  std::vector<std::pair<EndpointId, EndpointId>> resets;
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    if (shards_[p]->lost) continue;
    resets.emplace_back(weaver_->shard_endpoints_[p], server_ep);
    resets.emplace_back(weaver_->shard_endpoints_[p], client_ep);
  }
  for (std::size_t h = 0; h < gk_states_.size(); ++h) {
    if (h == g || gk_states_[h]->lost) continue;
    resets.emplace_back(weaver_->gk_control_endpoints_[h], server_ep);
  }
  RunResetRound(resets);

  // REJOIN. No commit gate and no replay: gatekeepers hold no graph
  // state, and every commit the dead one acked was already applied (and
  // published to the kv store) parent-side before the ack went out.
  weaver_->bus_->ResetPeer(server_ep);
  weaver_->bus_->ResetPeer(client_ep);
  weaver_->bus_->ResetPeer(control_ep);
  weaver_->bus_->ReplaceRemote(server_ep, transport);
  weaver_->bus_->ReplaceRemote(client_ep, transport);
  weaver_->bus_->ReplaceRemote(control_ep, transport);
  weaver_->remote_gatekeeper_transports_[g] = transport;
  WireLink::Options lo;
  lo.bus = weaver_->bus_.get();
  lo.transport = transport;
  lo.decode = DecodePayload;
  lo.never_block = WireNeverBlock;
  lo.name = name + ".link";
  lo.on_down = [this, g](const Status&) { OnGatekeeperLinkDown(g); };
  weaver_->gatekeeper_links_[g] = std::make_unique<WireLink>(std::move(lo));

  st.pid = proc->pid;
  st.last_frames = 0;
  st.last_activity_us = NowMicros();
  st.pinged = false;
  weaver_->cluster_.MarkRecovered(name);
  gks_down_->Add(-1);
  gk_recoveries_->Add();
  const std::uint64_t elapsed_ns = NowNanos() - t0;
  recovery_latency_->Record(elapsed_ns);
  std::fprintf(stderr,
               "weaver-supervisor: %s respawned as pid %d (%.1f ms)\n",
               name.c_str(), static_cast<int>(proc->pid),
               static_cast<double>(elapsed_ns) / 1e6);
}

std::uint64_t ShardSupervisor::ReplayPartition(ShardId s, EndpointId ep) {
  constexpr std::size_t kBatch = 256;
  std::uint64_t replayed = 0;
  auto batch = std::make_shared<PartitionReplayMessage>();
  batch->shard = s;
  const auto flush = [&] {
    if (batch->vertices.empty()) return;
    (void)weaver_->bus_->Send(weaver_->coordinator_endpoint_, ep,
                              kMsgPartitionReplay, std::move(batch),
                              /*never_block=*/true);
    batch = std::make_shared<PartitionReplayMessage>();
    batch->shard = s;
  };
  // Same durable source boot-time recovery reads
  // (Weaver::RestoreFromBackingStore): commits publish vertex blobs to
  // the kv store before their slices go out, so the scan covers every
  // acknowledged write.
  for (const auto& [key, value] :
       weaver_->kv_->ScanPrefix(kv_keys::kVertexShardMapPrefix)) {
    const NodeId node_id = std::strtoull(
        key.substr(kv_keys::kVertexShardMapPrefix.size()).c_str(), nullptr,
        10);
    const ShardId owner =
        static_cast<ShardId>(std::strtoul(value.c_str(), nullptr, 10));
    if (owner != s) continue;
    auto blob = weaver_->kv_->Get(kv_keys::VertexData(node_id));
    if (!blob.ok()) continue;
    batch->vertices.emplace_back(node_id, std::move(*blob));
    ++replayed;
    if (batch->vertices.size() >= kBatch) flush();
  }
  flush();
  return replayed;
}

}  // namespace weaver
