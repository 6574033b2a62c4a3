#include "order/gatekeeper.h"

#include <algorithm>
#include <cassert>

#include "common/clock.h"
#include "core/messages.h"
#include "graph/graph_store.h"

namespace weaver {

namespace {

std::string SerializeTimestamp(const RefinableTimestamp& ts) {
  ByteWriter w;
  ts.Serialize(&w);
  return w.Take();
}

Status ParseTimestamp(std::string_view blob, RefinableTimestamp* ts) {
  ByteReader r(blob);
  return RefinableTimestamp::Deserialize(&r, ts);
}

/// The commit span being filled by the current ingress worker, if its
/// request was sampled. CommitTransaction runs synchronously on the
/// dispatching worker's thread, so a thread-local hands the span down
/// without threading a parameter through the executor interface.
thread_local obs::TraceSpan* t_active_commit_span = nullptr;

}  // namespace

Gatekeeper::Gatekeeper(Options options)
    : options_(std::move(options)),
      clock_(options_.num_gatekeepers) {
  if (options_.initial_epoch > 0) {
    clock_.AdvanceEpoch(options_.initial_epoch);
  }
  assert(options_.bus != nullptr);
  assert(options_.id < options_.num_gatekeepers);
  endpoint_ = options_.bus->RegisterHandler(
      "gk" + std::to_string(options_.id),
      [this](const BusMessage& msg) {
        if (msg.payload_tag == kMsgAnnounce) {
          auto ann = std::static_pointer_cast<AnnounceMessage>(msg.payload);
          OnAnnounce(ann->clock);
        }
      },
      options_.announce_capacity);
  // The client ingress endpoint only parks requests in lanes; the handler
  // runs on the sender's thread and must stay cheap.
  client_endpoint_ = options_.bus->RegisterHandler(
      "gk" + std::to_string(options_.id) + ".client",
      [this](const BusMessage& msg) { EnqueueClientRequest(msg); });
  ExportMetrics();
}

Gatekeeper::~Gatekeeper() {
  StopClientIngress();
  StopTimers();
  if (options_.metrics != nullptr) {
    commit_latency_ = nullptr;
    options_.metrics->DropPrefix("gk" + std::to_string(options_.id) + ".");
  }
}

void Gatekeeper::ExportMetrics() {
  if (options_.metrics == nullptr) return;
  obs::MetricsRegistry* reg = options_.metrics;
  const std::string prefix = "gk" + std::to_string(options_.id) + ".";
  // Callback instruments read stats_ atomics; the destructor drops the
  // prefix before stats_ dies.
  const auto counter = [&](const char* name,
                           const std::atomic<std::uint64_t>& v) {
    reg->AddCounterFn(prefix + name, [&v] {
      return v.load(std::memory_order_relaxed);
    });
  };
  counter("txs_committed", stats_.txs_committed);
  counter("txs_aborted_kv", stats_.txs_aborted_kv);
  counter("txs_aborted_last_update", stats_.txs_aborted_last_update);
  counter("announces_sent", stats_.announces_sent);
  counter("announces_received", stats_.announces_received);
  counter("nops_sent", stats_.nops_sent);
  counter("nops_skipped", stats_.nops_skipped);
  counter("slice_send_failures", stats_.slice_send_failures);
  counter("nop_send_failures", stats_.nop_send_failures);
  counter("programs_issued", stats_.programs_issued);
  counter("client_commits", stats_.client_commits);
  counter("client_programs", stats_.client_programs);
  counter("client_program_msgs", stats_.client_program_msgs);
  counter("client_batches", stats_.client_batches);
  counter("client_rejected", stats_.client_rejected);
  counter("busy_ns", stats_.busy_ns);
  reg->AddGaugeFn(prefix + "nop_backoff", [this] {
    return static_cast<std::int64_t>(
        nop_backoff_.load(std::memory_order_relaxed));
  });
  reg->AddGaugeFn(prefix + "inflight_programs", [this] {
    MutexLock lk(ingress_mu_);
    return static_cast<std::int64_t>(inflight_programs_);
  });
  reg->AddGaugeFn(prefix + "lane_depth", [this] {
    MutexLock lk(ingress_mu_);
    std::size_t depth = program_queue_.size();
    for (const auto& [sid, lane] : lanes_) depth += lane.q.size();
    return static_cast<std::int64_t>(depth);
  });
  commit_latency_ = reg->histogram(prefix + "commit_latency");
}

void Gatekeeper::SendCommitReply(EndpointId reply_to,
                                 std::uint64_t session_id,
                                 std::uint64_t request_id, Status status,
                                 const RefinableTimestamp& ts) {
  auto reply = std::make_shared<ClientCommitReplyMessage>();
  reply->session_id = session_id;
  reply->request_id = request_id;
  reply->status = std::move(status);
  reply->timestamp = ts;
  // A failed send means the requester detached (session closed): it
  // already failed its outstanding handles, so the reply is moot.
  (void)options_.bus->Send(client_endpoint_, reply_to, kMsgClientCommitReply,
                           std::move(reply));
}

void Gatekeeper::SendProgramReply(EndpointId reply_to,
                                  std::uint64_t session_id,
                                  std::uint64_t request_id,
                                  Result<ProgramResult> result) {
  auto reply = std::make_shared<ClientProgramReplyMessage>();
  reply->session_id = session_id;
  reply->request_id = request_id;
  reply->status = result.status();
  if (result.ok()) reply->result = std::move(result).value();
  (void)options_.bus->Send(client_endpoint_, reply_to,
                           kMsgClientProgramReply, std::move(reply));
}

void Gatekeeper::FailCommitRequest(const BusMessage& msg, Status status) {
  auto req = std::static_pointer_cast<ClientCommitMessage>(msg.payload);
  SendCommitReply(req->reply_to, req->session_id, req->request_id,
                  std::move(status), {});
}

void Gatekeeper::EnqueueClientRequest(const BusMessage& msg) {
  if (msg.payload_tag == kMsgClientProgram) {
    auto req = std::static_pointer_cast<ClientProgramMessage>(msg.payload);
    stats_.client_program_msgs.fetch_add(1, std::memory_order_relaxed);
    // Programs carry no ordering promise: a shared queue lets any free
    // worker serve them, so one session (or one batched message) can
    // have many in flight. Batches fan out into one entry per request.
    std::vector<std::uint64_t> rejected;
    bool stopped = false;
    {
      MutexLock lk(ingress_mu_);
      stopped = ingress_stopped_;
      for (std::size_t i = 0; i < req->requests.size(); ++i) {
        if (stopped ||
            (options_.client_lane_capacity > 0 &&
             program_queue_.size() >= options_.client_lane_capacity * 8)) {
          stats_.client_rejected.fetch_add(1, std::memory_order_relaxed);
          rejected.push_back(req->requests[i].request_id);
          continue;
        }
        program_queue_.push_back(ProgramWork{req, i});
        ingress_cv_.notify_one();
      }
    }
    for (const std::uint64_t rid : rejected) {
      SendProgramReply(
          req->reply_to, req->session_id, rid,
          stopped ? Status::Unavailable("gatekeeper client ingress is "
                                        "stopped")
                  : Status::ResourceExhausted(
                        "program queue over capacity; wait for in-flight "
                        "requests before submitting more"));
    }
    return;
  }
  if (msg.payload_tag != kMsgClientCommit) return;

  const std::uint64_t sid =
      std::static_pointer_cast<ClientCommitMessage>(msg.payload)->session_id;
  Status failure = Status::Ok();
  {
    MutexLock lk(ingress_mu_);
    if (ingress_stopped_) {
      failure = Status::Unavailable("gatekeeper client ingress is stopped");
    } else {
      SessionLane& lane = lanes_[sid];
      if (options_.client_lane_capacity > 0 &&
          lane.q.size() >= options_.client_lane_capacity) {
        stats_.client_rejected.fetch_add(1, std::memory_order_relaxed);
        failure = Status::ResourceExhausted(
            "session lane over capacity; wait for in-flight requests "
            "before submitting more");
      } else {
        lane.q.push_back(msg);
        if (!lane.busy) {
          lane.busy = true;
          ready_lanes_.push_back(sid);
          ingress_cv_.notify_one();
        }
      }
    }
  }
  if (!failure.ok()) FailCommitRequest(msg, std::move(failure));
}

void Gatekeeper::StartClientIngress() {
  MutexLock lk(ingress_mu_);
  if (!ingress_workers_.empty() || ingress_stopped_) return;
  const std::size_t workers = std::max<std::size_t>(1, options_.client_workers);
  ingress_workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    ingress_workers_.emplace_back([this] { ClientIngressLoop(); });
  }
}

void Gatekeeper::StopClientIngress() {
  std::vector<std::thread> workers;
  {
    MutexLock lk(ingress_mu_);
    ingress_stopped_ = true;
    workers.swap(ingress_workers_);
    ingress_cv_.notify_all();
  }
  for (auto& w : workers) w.join();
  // Workers are gone: every still-queued request fails now so waiters
  // unblock (shutdown semantics of Pending<T>::Wait()).
  std::vector<BusMessage> orphan_commits;
  std::vector<ProgramWork> orphan_programs;
  {
    MutexLock lk(ingress_mu_);
    for (auto& [sid, lane] : lanes_) {
      for (auto& msg : lane.q) orphan_commits.push_back(std::move(msg));
      lane.q.clear();
      lane.busy = false;
    }
    lanes_.clear();
    ready_lanes_.clear();
    for (auto& work : program_queue_) {
      orphan_programs.push_back(std::move(work));
    }
    program_queue_.clear();
  }
  const Status down =
      Status::Unavailable("deployment shut down before execution");
  for (const BusMessage& msg : orphan_commits) {
    FailCommitRequest(msg, down);
  }
  for (const ProgramWork& work : orphan_programs) {
    SendProgramReply(work.msg->reply_to, work.msg->session_id,
                     work.msg->requests[work.index].request_id, down);
  }
}

bool Gatekeeper::ProgramDispatchableLocked() const {
  // A program may only be seeded while a free in-flight slot exists
  // (execution is async, so the worker pool itself no longer bounds
  // concurrent traversals).
  return !program_queue_.empty() &&
         (options_.max_inflight_programs == 0 ||
          inflight_programs_ < options_.max_inflight_programs);
}

void Gatekeeper::ClientIngressLoop() {
  // Alternate between the commit lanes and the shared program queue so
  // neither starves the other under sustained load from one kind.
  bool prefer_programs = false;
  MutexLock lk(ingress_mu_);
  while (true) {
    while (!ingress_stopped_ && ready_lanes_.empty() &&
           !ProgramDispatchableLocked()) {
      ingress_cv_.wait(lk.native());
    }
    if (ingress_stopped_) return;

    const bool take_program = ProgramDispatchableLocked() &&
                              (ready_lanes_.empty() || prefer_programs);
    if (take_program) {
      prefer_programs = false;
      ProgramWork work = std::move(program_queue_.front());
      program_queue_.pop_front();
      ++inflight_programs_;  // released by OnProgramSettled
      lk.Unlock();
      stats_.client_programs.fetch_add(1, std::memory_order_relaxed);
      ProgramRequest& req = work.msg->requests[work.index];
      if (client_executor_.program) {
        // Async contract: the executor's completion path sends the reply
        // and calls OnProgramSettled() exactly once.
        client_executor_.program(*this, *work.msg, req);
      } else {
        SendProgramReply(work.msg->reply_to, work.msg->session_id,
                         req.request_id,
                         Status::Internal("no client executor installed"));
        OnProgramSettled();
      }
      lk.Lock();
      continue;
    }
    prefer_programs = true;

    const std::uint64_t sid = ready_lanes_.front();
    ready_lanes_.pop_front();
    SessionLane& lane = lanes_[sid];
    std::vector<BusMessage> batch;
    const std::size_t max_batch =
        std::max<std::size_t>(1, options_.client_batch);
    while (!lane.q.empty() && batch.size() < max_batch) {
      batch.push_back(std::move(lane.q.front()));
      lane.q.pop_front();
    }
    lk.Unlock();

    stats_.client_batches.fetch_add(1, std::memory_order_relaxed);
    // One simulated backing-store round trip covers the whole batch: the
    // first unpaid commit sleeps, its batchmates ride along (pipelined
    // submissions overlap their round trips; blocking submitters already
    // paid on their own thread).
    bool batch_delay_due = true;
    for (const BusMessage& msg : batch) {
      DispatchCommitRequest(msg, &batch_delay_due);
    }

    lk.Lock();
    // References into lanes_ survive inserts (unordered_map guarantees
    // pointer stability); only this worker may finish or erase the lane it
    // marked busy.
    if (!lane.q.empty()) {
      ready_lanes_.push_back(sid);  // stays busy: more arrived while away
      ingress_cv_.notify_one();
    } else {
      lanes_.erase(sid);  // empty lanes die so transient ids don't pile up
    }
  }
}

void Gatekeeper::DispatchCommitRequest(const BusMessage& msg,
                                       bool* batch_delay_due) {
  auto req = std::static_pointer_cast<ClientCommitMessage>(msg.payload);
  stats_.client_commits.fetch_add(1, std::memory_order_relaxed);
  const bool pay_delay = *batch_delay_due && !req->delay_paid;
  if (pay_delay) *batch_delay_due = false;

  obs::TraceSpan span;
  const bool sampled =
      options_.trace != nullptr && options_.trace->ShouldSample();
  if (sampled) {
    span.kind = obs::TraceSpan::Kind::kCommit;
    span.id = req->request_id;
    span.begin_ns = NowNanos();
    t_active_commit_span = &span;
  }
  const std::uint64_t start = NowNanos();
  if (client_executor_.commit) {
    // The executor replies through SendCommitReply.
    client_executor_.commit(*this, *req, pay_delay);
  } else {
    SendCommitReply(req->reply_to, req->session_id, req->request_id,
                    Status::Internal("no client executor installed"), {});
  }
  if (commit_latency_ != nullptr) {
    commit_latency_->Record(NowNanos() - start);
  }
  if (sampled) {
    t_active_commit_span = nullptr;
    span.replied_ns = NowNanos();
    options_.trace->Append(span);
  }
}

void Gatekeeper::OnProgramSettled() {
  {
    MutexLock lk(ingress_mu_);
    if (inflight_programs_ > 0) --inflight_programs_;
  }
  ingress_cv_.notify_one();
}

void Gatekeeper::StartTimers() {
  MutexLock lk(timer_mu_);
  if (timers_running_) return;
  timers_running_ = true;
  stop_timers_ = false;
  if (options_.tau_micros > 0) {
    announce_thread_ = std::thread([this] { AnnounceLoop(); });
  }
  if (options_.nop_period_micros > 0) {
    nop_thread_ = std::thread([this] { NopLoop(); });
  }
}

void Gatekeeper::StopTimers() {
  {
    MutexLock lk(timer_mu_);
    if (!timers_running_) return;
    stop_timers_ = true;
    timer_cv_.notify_all();
  }
  if (announce_thread_.joinable()) announce_thread_.join();
  if (nop_thread_.joinable()) nop_thread_.join();
  {
    MutexLock lk(timer_mu_);
    timers_running_ = false;
  }
}

void Gatekeeper::AnnounceLoop() {
  MutexLock lk(timer_mu_);
  while (!stop_timers_) {
    timer_cv_.wait_for(lk.native(),
                       std::chrono::microseconds(options_.tau_micros));
    if (stop_timers_) return;
    lk.Unlock();
    PumpAnnounce();
    lk.Lock();
  }
}

void Gatekeeper::NopLoop() {
  MutexLock lk(timer_mu_);
  while (!stop_timers_) {
    timer_cv_.wait_for(
        lk.native(), std::chrono::microseconds(
                         options_.nop_period_micros *
                         nop_backoff_.load(std::memory_order_relaxed)));
    if (stop_timers_) return;
    lk.Unlock();
    PumpNop();
    UpdateNopBackoff();
    lk.Lock();
  }
}

void Gatekeeper::UpdateNopBackoff() {
  // Adaptive NOP emission (ROADMAP backpressure item): when a destination
  // shard's inbox is over high water, double the emission period -- i.e.
  // skip rounds -- until the slowest shard drains; halve it back once
  // everyone is comfortably below. NOPs are still sent to EVERY shard at
  // the reduced rate: a NOP carries a freshly-merged vector clock, and
  // withholding them entirely leaves stale queue heads that are pairwise
  // concurrent, forcing every ordering decision through the oracle -- the
  // slowdown then outruns the drain and the deployment livelocks
  // (docs/client_api.md#backpressure).
  if (options_.nop_high_water == 0) return;
  // Staleness contract: for in-process shards QueueDepth is live; for a
  // shard in another process it is the depth from that process's last
  // MetricsReport (MessageBus::NoteRemoteDepth), refreshed by the
  // deployment's metrics poll -- so remote backpressure reacts at poll
  // granularity, and reads 0 before the first report arrives. Both lags
  // are safe here: the worst case is NOPs staying at full rate a little
  // longer (or backing off a little longer) than a live depth would
  // dictate, and the halving path re-probes every round.
  std::size_t max_depth = 0;
  for (EndpointId shard_ep : options_.shard_endpoints) {
    max_depth = std::max(max_depth, options_.bus->QueueDepth(shard_ep));
  }
  std::uint64_t backoff = nop_backoff_.load(std::memory_order_relaxed);
  if (max_depth > options_.nop_high_water) {
    backoff = std::min<std::uint64_t>(backoff * 2, kMaxNopBackoff);
    stats_.nops_skipped.fetch_add(backoff - 1, std::memory_order_relaxed);
  } else if (max_depth < options_.nop_high_water / 2 && backoff > 1) {
    backoff /= 2;
  }
  nop_backoff_.store(backoff, std::memory_order_relaxed);
}

RefinableTimestamp Gatekeeper::IssueTimestamp(bool want_slot,
                                              std::uint64_t* slot) {
  MutexLock clk(clock_mu_);
  const std::uint64_t seq = clock_.Tick(options_.id);
  RefinableTimestamp ts(clock_, options_.id, seq);
  if (want_slot) {
    MutexLock olk(out_mu_);
    *slot = next_slot_to_alloc_++;
  }
  return ts;
}

void Gatekeeper::ReleaseSlot(std::uint64_t slot,
                             std::function<void()> send_fn) {
  MutexLock lk(out_mu_);
  pending_releases_[slot] = std::move(send_fn);
  // Drain the contiguous prefix in slot order. Sends run under out_mu_, so
  // messages enter the per-shard channels in timestamp order -- the FIFO
  // property the shard queues rely on (paper §4.2).
  while (!pending_releases_.empty() &&
         pending_releases_.begin()->first == next_slot_to_release_) {
    auto fn = std::move(pending_releases_.begin()->second);
    pending_releases_.erase(pending_releases_.begin());
    ++next_slot_to_release_;
    if (fn) fn();
  }
}

void Gatekeeper::SendNop(const RefinableTimestamp& ts) {
  for (EndpointId shard_ep : options_.shard_endpoints) {
    auto payload = std::make_shared<NopMessage>();
    payload->ts = ts;
    const Status st =
        options_.bus->Send(endpoint_, shard_ep, kMsgNop, std::move(payload));
    if (!st.ok()) {
      // A down shard: harmless (the next NOP after recovery re-primes the
      // queue head), but counted so outages are visible in metrics.
      stats_.nop_send_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  stats_.nops_sent.fetch_add(1, std::memory_order_relaxed);
}

void Gatekeeper::PumpNop() {
  std::uint64_t slot = 0;
  const RefinableTimestamp ts = IssueTimestamp(true, &slot);
  ReleaseSlot(slot, [this, ts] { SendNop(ts); });
}

void Gatekeeper::PumpAnnounce() {
  VectorClock snapshot = SnapshotClock();
  for (EndpointId peer : options_.peer_endpoints) {
    auto payload = std::make_shared<AnnounceMessage>();
    payload->clock = snapshot;
    payload->from = options_.id;
    options_.bus->Send(endpoint_, peer, kMsgAnnounce, std::move(payload));
    stats_.announces_sent.fetch_add(1, std::memory_order_relaxed);
  }
}

void Gatekeeper::OnAnnounce(const VectorClock& peer_clock) {
  MutexLock lk(clock_mu_);
  clock_.Merge(peer_clock);
  stats_.announces_received.fetch_add(1, std::memory_order_relaxed);
}

VectorClock Gatekeeper::SnapshotClock() {
  MutexLock lk(clock_mu_);
  return clock_;
}

void Gatekeeper::AdvanceEpochLocked(std::uint32_t epoch) {
  clock_.AdvanceEpoch(epoch);
}

ApplyOutcome ApplyCommitToStore(
    KvTransaction* kvtx, const RefinableTimestamp& ts,
    const std::vector<GraphOp>& ops,
    const std::unordered_map<NodeId, ShardId>& placements,
    const RefinableTimestamp& watermark) {
  ApplyOutcome out;

  // Apply the write batch to the backing store through the OCC
  // transaction. Vertices are opaque blobs; each touched vertex is
  // deserialized once, mutated in memory, and written back.
  std::unordered_map<NodeId, Node> touched;
  auto load_node = [&](NodeId id) -> Result<Node*> {
    auto it = touched.find(id);
    if (it != touched.end()) return &it->second;
    auto blob = kvtx->Get(kv_keys::VertexData(id));
    if (!blob.ok()) return blob.status();
    auto node = GraphStore::DeserializeNode(*blob);
    if (!node.ok()) return node.status();
    auto [nit, _] = touched.emplace(id, std::move(node).value());
    return &nit->second;
  };

  // Per-vertex last-update check (paper §4.2): the new timestamp must be
  // strictly after the timestamp of the vertex's last committed write.
  std::unordered_set<NodeId> checked;
  auto check_last_update = [&](NodeId id) -> Status {
    if (!checked.insert(id).second) return Status::Ok();
    auto last_blob = kvtx->Get(kv_keys::VertexLastUpdate(id));
    if (!last_blob.ok()) return Status::Ok();  // new vertex
    RefinableTimestamp last;
    WEAVER_RETURN_IF_ERROR(ParseTimestamp(*last_blob, &last));
    if (last.Compare(ts) != ClockOrder::kBefore) {
      out.retry_timestamp = true;
      out.conflict_clock = last.clock;
      return Status::Aborted("last-update timestamp not before tx ts");
    }
    return Status::Ok();
  };

  std::unordered_set<NodeId> created;
  for (const GraphOp& op : ops) {
    if (op.type == GraphOpType::kCreateNode) {
      auto existing = kvtx->Get(kv_keys::VertexData(op.node));
      if (existing.ok()) {
        out.status = Status::AlreadyExists("node " + std::to_string(op.node));
        return out;
      }
      Node fresh;
      fresh.id = op.node;
      fresh.created = ts;
      fresh.last_update = ts;
      touched.emplace(op.node, std::move(fresh));
      created.insert(op.node);
      continue;
    }
    Status st = check_last_update(op.node);
    if (!st.ok()) {
      out.status = st;
      return out;
    }
    auto node = load_node(op.node);
    if (!node.ok()) {
      out.status = node.status();
      return out;
    }
    st = ApplyGraphOpToNode(*node, op, ts);
    if (!st.ok()) {
      out.status = st;
      return out;
    }
  }

  // Write back blobs, last-update stamps, and shard placements. Each
  // rewritten blob first drops the history no node program can read
  // (docs/storage.md, "What the backing store keeps"). Plain vector-clock
  // order, never the oracle or the same-issuer shortcut: every in-flight
  // or future program's clock dominates the watermark pointwise, so a
  // version deleted at a clock strictly below it is invisible to them all.
  static const OrderFn kClockOrder = [](const RefinableTimestamp& a,
                                        const RefinableTimestamp& b) {
    return a.clock.Compare(b.clock);
  };
  const std::string ts_blob = SerializeTimestamp(ts);
  for (auto& [id, node] : touched) {
    if (watermark.valid()) {
      out.versions_pruned += node.CollectBefore(watermark, kClockOrder);
    }
    kvtx->Put(kv_keys::VertexData(id), GraphStore::SerializeNode(node));
    kvtx->Put(kv_keys::VertexLastUpdate(id), ts_blob);
    if (created.count(id)) {
      auto pit = placements.find(id);
      const ShardId shard = pit == placements.end() ? 0 : pit->second;
      kvtx->Put(kv_keys::VertexShardMap(id), std::to_string(shard));
    }
  }

  out.status = kvtx->Commit();
  if (!out.status.ok()) out.kv_conflict = true;
  return out;
}

Status Gatekeeper::CommitTransaction(
    const CommitApplier& apply, const std::vector<GraphOp>& ops,
    const std::unordered_map<NodeId, ShardId>& placements,
    RefinableTimestamp* committed_ts) {
  const std::uint64_t busy_start = NowNanos();
  struct BusyGuard {
    Stats* stats;
    std::uint64_t start;
    ~BusyGuard() {
      stats->busy_ns.fetch_add(NowNanos() - start,
                               std::memory_order_relaxed);
    }
  } busy_guard{&stats_, busy_start};
  // A last-update conflict (paper §4.2) merges the conflicting clock and
  // retries with a fresh, strictly later timestamp. The paper pushes this
  // retry to the client; doing one bounded round here first saves the
  // round trip without changing semantics.
  constexpr int kMaxTimestampRetries = 4;
  Status last_status = Status::Aborted("timestamp retries exhausted");
  for (int attempt = 0; attempt < kMaxTimestampRetries; ++attempt) {
    std::uint64_t slot = 0;
    const RefinableTimestamp ts = IssueTimestamp(true, &slot);
    *committed_ts = ts;
    if (t_active_commit_span != nullptr) {
      // A retry overwrites the stamp: the span records the ordering that
      // actually committed.
      t_active_commit_span->ordered_ns = NowNanos();
    }

    // Any early return must still release the outbound slot (with no
    // sends), or the sequencer would stall every later transaction.
    auto release_empty = [&] { ReleaseSlot(slot, nullptr); };

    const ApplyOutcome outcome = apply(ts);
    if (!outcome.status.ok()) {
      release_empty();
      if (outcome.retry_timestamp) {
        // Last-update conflict: merge the conflicting clock so the next
        // issued timestamp is strictly later, then retry.
        {
          MutexLock lk(clock_mu_);
          clock_.Merge(outcome.conflict_clock);
        }
        stats_.txs_aborted_last_update.fetch_add(1,
                                                 std::memory_order_relaxed);
        last_status = outcome.status;
        continue;
      }
      if (outcome.kv_conflict) {
        stats_.txs_aborted_kv.fetch_add(1, std::memory_order_relaxed);
      }
      return outcome.status;
    }
    if (t_active_commit_span != nullptr) {
      t_active_commit_span->applied_ns = NowNanos();
    }

    // Committed on the backing store: forward per-shard slices. Every
    // shard receives a message for this timestamp (an empty slice advances
    // the queue head, like a NOP), released in timestamp order.
    const std::size_t num_shards = options_.shard_endpoints.size();
    auto slices = std::make_shared<std::vector<std::vector<GraphOp>>>();
    slices->resize(num_shards);
    for (const GraphOp& op : ops) {
      auto pit = placements.find(op.node);
      const ShardId shard = pit == placements.end() ? 0 : pit->second;
      if (shard < num_shards) (*slices)[shard].push_back(op);
    }
    ReleaseSlot(slot, [this, ts, slices] {
      for (std::size_t s = 0; s < options_.shard_endpoints.size(); ++s) {
        auto payload = std::make_shared<TxMessage>();
        payload->ts = ts;
        payload->ops = std::move((*slices)[s]);
        const Status st = options_.bus->Send(
            endpoint_, options_.shard_endpoints[s], kMsgTx,
            std::move(payload));
        if (!st.ok()) {
          // The shard endpoint is down. The commit is already durable in
          // the backing store (kvtx->Commit above), so nothing
          // acknowledged is lost: recovery replays this write from the
          // store. Count the drop -- it is the retry/replay work a chaos
          // run must see in the metrics.
          stats_.slice_send_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    stats_.txs_committed.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  return last_status;
}

RefinableTimestamp Gatekeeper::BeginProgram(const VectorClock* fence) {
  const std::uint64_t busy_start = NowNanos();
  if (fence != nullptr && fence->width() > 0) {
    // Read-your-writes fence: after the merge, the issued timestamp
    // dominates the fenced commit's clock component-wise (plus this
    // gatekeeper's tick), so it happens-after the commit and the shard
    // delay rule guarantees the commit executes before the program reads.
    MutexLock lk(clock_mu_);
    clock_.Merge(*fence);
  }
  // Issue and register under programs_mu_, so OldestActive never sees a
  // clock that has ticked past a program it does not yet list: that
  // watermark would let GC drop versions the program can still read.
  RefinableTimestamp ts;
  {
    MutexLock lk(programs_mu_);
    std::uint64_t unused = 0;
    ts = IssueTimestamp(false, &unused);
    active_programs_.emplace(ts.event_id(), ts);
  }
  stats_.programs_issued.fetch_add(1, std::memory_order_relaxed);
  stats_.busy_ns.fetch_add(NowNanos() - busy_start,
                           std::memory_order_relaxed);
  return ts;
}

void Gatekeeper::EndProgram(const RefinableTimestamp& ts) {
  MutexLock lk(programs_mu_);
  active_programs_.erase(ts.event_id());
}

RefinableTimestamp Gatekeeper::OldestActive() {
  MutexLock lk(programs_mu_);
  VectorClock snapshot = SnapshotClock();
  if (active_programs_.empty()) {
    return RefinableTimestamp(snapshot, options_.id,
                              snapshot.Component(options_.id));
  }
  // Pointwise minimum over active program clocks: nothing a live program
  // can still read precedes this synthetic watermark.
  std::vector<std::uint64_t> mins = snapshot.counters();
  std::uint32_t epoch = snapshot.epoch();
  for (const auto& [_, pts] : active_programs_) {
    epoch = std::min(epoch, pts.clock.epoch());
    for (std::size_t i = 0; i < mins.size() && i < pts.clock.width(); ++i) {
      mins[i] = std::min(mins[i], pts.clock.Component(i));
    }
  }
  VectorClock wm(epoch, std::move(mins));
  return RefinableTimestamp(wm, options_.id, wm.Component(options_.id));
}

}  // namespace weaver
