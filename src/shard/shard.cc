#include "shard/shard.h"

#include <algorithm>
#include <cassert>

#include "common/clock.h"

namespace weaver {

namespace {
/// Bound on the finished-program tombstone set (abort-race protection;
/// normal completion never needs it).
constexpr std::size_t kMaxFinishedTombstones = 4096;

/// Wraps an in-process oracle in a local-mode client (Options::oracle
/// form); null when the caller supplied its own client.
std::unique_ptr<OracleClient> MakeLocalClient(TimelineOracle* oracle) {
  if (oracle == nullptr) return nullptr;
  OracleClient::Options co;
  co.local = oracle;
  return std::make_unique<OracleClient>(co);
}
}  // namespace

Shard::Shard(Options options)
    : options_(std::move(options)),
      owned_oracle_client_(MakeLocalClient(options_.oracle)),
      resolver_(options_.oracle_client != nullptr ? options_.oracle_client
                                                  : owned_oracle_client_.get()),
      gk_queues_(options_.num_gatekeepers),
      last_channel_seq_(options_.num_gatekeepers + 64, 0) {
  assert(options_.bus != nullptr);
  assert(options_.oracle != nullptr || options_.oracle_client != nullptr);
  inbox_ = std::make_shared<BlockingQueue<BusMessage>>(options_.inbox_capacity);
  if (options_.reuse_endpoint != kNoEndpoint) {
    endpoint_ = options_.reuse_endpoint;
    options_.bus->ReattachInbox(endpoint_, inbox_);
  } else {
    endpoint_ = options_.bus->RegisterInbox(
        "shard" + std::to_string(options_.id), inbox_);
  }
  ExportMetrics();
}

Shard::~Shard() {
  Stop();
  // The loop thread is joined; the exported callbacks reading this
  // object must go before it does. (Shard recovery destroys + re-creates
  // a Shard with the same id, so the names re-register cleanly.)
  if (options_.metrics != nullptr) {
    options_.metrics->DropPrefix("shard" + std::to_string(options_.id) + ".");
  }
}

void Shard::ExportMetrics() {
  obs::MetricsRegistry* m = options_.metrics;
  if (m == nullptr) return;
  const std::string p = "shard" + std::to_string(options_.id) + ".";
  const auto counter = [&](const char* name,
                           const std::atomic<std::uint64_t>& v) {
    m->AddCounterFn(p + name, [&v] {
      return v.load(std::memory_order_relaxed);
    });
  };
  counter("txs_applied", stats_.txs_applied);
  counter("nops_processed", stats_.nops_processed);
  counter("op_apply_errors", stats_.op_apply_errors);
  counter("waves_executed", stats_.waves_executed);
  counter("wave_delays", stats_.wave_delays);
  counter("vertices_executed", stats_.vertices_executed);
  counter("hops_consumed", stats_.hops_consumed);
  counter("hops_forwarded", stats_.hops_forwarded);
  counter("hop_batches_sent", stats_.hop_batches_sent);
  counter("hops_coalesced", stats_.hops_coalesced);
  counter("hops_pruned", stats_.hops_pruned);
  counter("contexts_installed", stats_.contexts_installed);
  counter("gc_rounds", stats_.gc_rounds);
  counter("seq_violations", stats_.seq_violations);
  counter("oracle_stalls", stats_.oracle_stalls);
  counter("hop_budget_throttles", stats_.hop_budget_throttles);
  counter("busy_ns", stats_.busy_ns);
  counter("op_work_ns", stats_.op_work_ns);
  counter("hop_exec_ns", stats_.hop_exec_ns);
  m->AddGaugeFn(p + "inbox_depth", [this] {
    return static_cast<std::int64_t>(options_.bus->QueueDepth(endpoint_));
  });
  m->AddGaugeFn(p + "queued_txs", [this] {
    return static_cast<std::int64_t>(
        queued_txs_.load(std::memory_order_relaxed));
  });
  m->AddGaugeFn(p + "queue_high_water", [this] {
    return static_cast<std::int64_t>(
        queue_high_water_mark_.load(std::memory_order_relaxed));
  });
  m->AddGaugeFn(p + "live_contexts", [this] {
    return static_cast<std::int64_t>(
        live_contexts_.load(std::memory_order_relaxed));
  });
  m->AddGaugeFn(p + "live_state_tables", [this] {
    return static_cast<std::int64_t>(
        live_state_tables_.load(std::memory_order_relaxed));
  });
}

void Shard::NoteQueueDepth() {
  const std::size_t depth = QueuedTransactions();
  queued_txs_.store(depth, std::memory_order_relaxed);
  std::size_t seen = queue_high_water_mark_.load(std::memory_order_relaxed);
  while (depth > seen && !queue_high_water_mark_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

void Shard::OnMetricsRequest(const MetricsRequestMessage& req) {
  auto report = std::make_shared<MetricsReportMessage>();
  report->request_id = req.request_id;
  report->shard = options_.id;
  report->inbox_depth = inbox_->Size();
  if (options_.metrics != nullptr) {
    report->snapshot = options_.metrics->Snapshot();
  }
  // never_block: a scrape reply must not wedge the event loop behind a
  // congested reply path.
  (void)options_.bus->Send(endpoint_, req.reply_to, kMsgMetricsReport,
                           std::move(report), /*never_block=*/true);
}

void Shard::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  loop_thread_ = std::thread([this] { Loop(); });
}

void Shard::Stop() {
  if (!running_.exchange(false)) {
    inbox_->Close();
    if (loop_thread_.joinable()) loop_thread_.join();
    return;
  }
  inbox_->Close();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Shard::Loop() {
  while (true) {
    std::optional<BusMessage> msg;
    if (HasRunnableProgramWork()) {
      // A capped program cycle left hops pending: keep the loop hot
      // (TryPop) so the worklist drains even on an idle inbox, while
      // still routing whatever arrived (an EndProgram abort must be able
      // to interrupt).
      msg = inbox_->TryPop();
      if (!msg && inbox_->closed()) break;
    } else {
      msg = inbox_->Pop();
      if (!msg) break;  // closed and drained
    }
    const std::uint64_t t0 = NowNanos();
    if (msg) Route(*msg);
    // Drain whatever else is queued before doing ordering work: batches
    // amortize the head comparisons. Over high water the batch drain
    // pauses (the one Pop per iteration still guarantees progress), so
    // backlog shows up as inbox depth and NOP producers throttle.
    while (options_.queue_high_water == 0 ||
           QueuedTransactions() < options_.queue_high_water) {
      auto more = inbox_->TryPop();
      if (!more) break;
      Route(*more);
    }
    NoteQueueDepth();
    ProcessReady();
    stats_.busy_ns.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
  }
}

void Shard::ProcessUntilIdle() {
  const std::uint64_t t0 = NowNanos();
  do {
    while (auto msg = inbox_->TryPop()) Route(*msg);
    NoteQueueDepth();
    ProcessReady();
  } while (HasRunnableProgramWork());
  stats_.busy_ns.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
}

void Shard::Route(const BusMessage& msg) {
  switch (msg.payload_tag) {
    case kMsgTx: {
      auto tx = std::static_pointer_cast<TxMessage>(msg.payload);
      const GatekeeperId gk = tx->ts.gatekeeper;
      if (gk >= gk_queues_.size()) return;
      // FIFO channel check (paper §4.2): sequence numbers from one
      // gatekeeper must arrive in order.
      if (gk < last_channel_seq_.size()) {
        if (msg.channel_seq <= last_channel_seq_[gk] &&
            last_channel_seq_[gk] != 0) {
          stats_.seq_violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_channel_seq_[gk] = msg.channel_seq;
      }
      QueueEntry e;
      e.ts = tx->ts;
      e.ops = std::move(tx->ops);
      e.is_nop = e.ops.empty();
      e.arrival = arrival_counter_++;
      gk_queues_[gk].push_back(std::move(e));
      break;
    }
    case kMsgNop: {
      auto nop = std::static_pointer_cast<NopMessage>(msg.payload);
      const GatekeeperId gk = nop->ts.gatekeeper;
      if (gk >= gk_queues_.size()) return;
      QueueEntry e;
      e.ts = nop->ts;
      e.is_nop = true;
      e.arrival = arrival_counter_++;
      gk_queues_[gk].push_back(std::move(e));
      break;
    }
    case kMsgWaveHops: {
      auto batch = std::static_pointer_cast<WaveHopBatchMessage>(msg.payload);
      OnHopBatch(*batch);
      break;
    }
    case kMsgEndProgram: {
      auto end = std::static_pointer_cast<EndProgramMessage>(msg.payload);
      FinishProgram(end->program_id);
      break;
    }
    case kMsgGc: {
      auto gc = std::static_pointer_cast<GcMessage>(msg.payload);
      RunGc(gc->watermark);
      break;
    }
    case kMsgMetricsRequest: {
      auto req = std::static_pointer_cast<MetricsRequestMessage>(msg.payload);
      OnMetricsRequest(*req);
      break;
    }
    case kMsgShardReset: {
      // A peer process died and is being replaced: forget all wire
      // sequence state toward it. Handled on the event loop, so the
      // reset is serialized with this shard's own sends to the peer --
      // anything sent after the ack uses fresh sequence numbers.
      auto reset = std::static_pointer_cast<ShardResetMessage>(msg.payload);
      options_.bus->ResetPeer(reset->target);
      auto ack = std::make_shared<ShardResetAckMessage>();
      ack->shard = options_.id;
      ack->token = reset->token;
      (void)options_.bus->Send(endpoint_, reset->reply_to, kMsgShardResetAck,
                               std::move(ack), /*never_block=*/true);
      break;
    }
    case kMsgPartitionReplay: {
      // Recovery replay: install vertices of this shard's partition read
      // back from the durable store. The loop thread owns graph_, so
      // direct installation is safe; duplicates (a slice that landed
      // before the crash) overwrite with identical state.
      auto replay =
          std::static_pointer_cast<PartitionReplayMessage>(msg.payload);
      for (auto& [node, blob] : replay->vertices) {
        auto decoded = GraphStore::DeserializeNode(blob);
        if (!decoded.ok()) {
          stats_.op_apply_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        graph_.InstallNode(std::move(decoded).value());
      }
      break;
    }
    case kMsgStop:
      inbox_->Close();
      break;
    default:
      break;
  }
}

bool Shard::AllQueuesNonEmpty() const {
  for (const auto& q : gk_queues_) {
    if (q.empty()) return false;
  }
  return true;
}

std::size_t Shard::PickMinHead() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < gk_queues_.size(); ++i) {
    const QueueEntry& cand = gk_queues_[i].front();
    const QueueEntry& cur = gk_queues_[best].front();
    // Vector clocks only -- concurrent heads execute in arrival order
    // (paper §4.1: "the oracle will prefer arrival order") WITHOUT asking
    // the oracle to commit that order. Concurrent transactions can never
    // write the same vertex (the gatekeeper's last-update check forces
    // conflicting writes onto comparable timestamps), so their mutual
    // execution order is immaterial, and committing an oracle order per
    // concurrent head pair made a queue backlog O(n^2) oracle work: a NOP
    // flood could then outrun the drain rate for minutes (ordering
    // requests slow with DAG size). Program visibility still resolves
    // write-vs-read pairs through the oracle (VisibilityOrderFn).
    ClockOrder o = cur.ts.Compare(cand.ts);  // order of cur vs cand
    if (o == ClockOrder::kConcurrent) {
      o = cand.arrival < cur.arrival ? ClockOrder::kAfter
                                     : ClockOrder::kBefore;
    }
    if (o == ClockOrder::kAfter) best = i;
  }
  return best;
}

void Shard::ApplyEntry(const QueueEntry& entry) {
  if (entry.is_nop) {
    stats_.nops_processed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t t0 = NowNanos();
  for (const GraphOp& op : entry.ops) {
    const Status st = ApplyGraphOpToStore(&graph_, op, entry.ts);
    if (!st.ok()) {
      // Post-recovery duplicate application is possible and benign (the
      // backing store already validated the transaction); count it.
      stats_.op_apply_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
  stats_.txs_applied.fetch_add(1, std::memory_order_relaxed);
  stats_.op_work_ns.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
}

bool Shard::WaveEligible(const RefinableTimestamp& prog_ts) {
  // Delay rule (paper §4.1): every queue head must be ordered strictly
  // after the program. A concurrent NOP head (or empty slice) waits
  // WITHOUT asking the oracle: it carries no writes, so no order against
  // it changes what the program reads, and the gatekeeper's next NOP
  // after an announce dominates the program by clock. Concurrent
  // transaction heads resolve transaction-first in ONE batch: with a
  // remote oracle the cache misses share a single RPC round trip.
  std::vector<std::pair<RefinableTimestamp, RefinableTimestamp>> pairs;
  for (const auto& q : gk_queues_) {
    const QueueEntry& head = q.front();
    const ClockOrder o = head.ts.Compare(prog_ts);
    if (o == ClockOrder::kAfter) continue;
    if (o != ClockOrder::kConcurrent || head.is_nop) return false;
    pairs.emplace_back(head.ts, prog_ts);
  }
  if (pairs.empty()) return true;
  auto orders = resolver_.ResolveBatch(pairs, OrderPreference::kPreferFirst);
  if (!orders.ok()) {
    // Oracle unreachable (failover in progress): park the wave. No order
    // was established, so waiting is always sound, and eligibility is
    // re-checked every drain cycle -- the program resumes once the
    // respawned service answers again.
    stats_.oracle_stalls.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  for (const ClockOrder o : *orders) {
    if (o != ClockOrder::kAfter) return false;  // head <= prog: wait
  }
  return true;
}

void Shard::ProcessReady() {
  // Contexts whose eligibility already latched can run without queue
  // heads: the snapshot guarantee was established when they latched.
  RunEligiblePrograms();
  while (AllQueuesNonEmpty()) {
    // Promote waiting programs first: their timestamps precede every
    // queue head, so they read a snapshot no queued transaction can
    // still change.
    bool promoted = false;
    for (auto& [pid, ctx] : contexts_) {
      if (ctx.eligible || ctx.pending.empty()) continue;
      if (WaveEligible(ctx.ts)) {
        ctx.eligible = true;
        promoted = true;
      } else {
        stats_.wave_delays.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (promoted) RunEligiblePrograms();
    const std::size_t q = PickMinHead();
    ApplyEntry(gk_queues_[q].front());
    gk_queues_[q].pop_front();
  }
  RunEligiblePrograms();
}

ClockOrder Shard::ResolveVisibility(const RefinableTimestamp& write_ts,
                                    const RefinableTimestamp& read_ts) {
  // Writes win ties: a transaction concurrent with a node program is
  // ordered before it unless the oracle already knows otherwise (paper
  // §4.1 -- programs never miss committed writes).
  auto decided =
      resolver_.TryResolve(write_ts, read_ts, OrderPreference::kPreferFirst);
  if (decided.ok()) return *decided;
  // Oracle unreachable (failover in progress). Answer with the write-wins
  // order the oracle would have established, but flag the stall so
  // RunProgramCycle aborts this program with a retriable Unavailable -- a
  // fallback answer must never back an acknowledged result. Nothing
  // leaks: the resolver caches only authoritative decisions, and the
  // per-program order memo dies with the aborted context.
  stats_.oracle_stalls.fetch_add(1, std::memory_order_relaxed);
  oracle_stall_ = true;
  return ClockOrder::kBefore;
}

OrderFn Shard::VisibilityOrderFn() {
  constexpr EventId kNoEvent = ~EventId{0};
  return [this, last_event = kNoEvent, last_order = ClockOrder::kConcurrent,
          resolved = std::unordered_map<EventId, ClockOrder>()](
             const RefinableTimestamp& write_ts,
             const RefinableTimestamp& read_ts) mutable {
    const ClockOrder by_clock = write_ts.Compare(read_ts);
    if (by_clock != ClockOrder::kConcurrent) return by_clock;
    const EventId event = write_ts.event_id();
    if (event != last_event) {
      auto [it, fresh] = resolved.try_emplace(event, ClockOrder::kConcurrent);
      if (fresh) it->second = ResolveVisibility(write_ts, read_ts);
      last_event = event;
      last_order = it->second;
    }
    return last_order;
  };
}

void Shard::OnHopBatch(WaveHopBatchMessage& batch) {
  if (finished_.count(batch.program_id)) return;  // late batch post-abort
  auto it = contexts_.find(batch.program_id);
  if (it == contexts_.end()) {
    // First contact: intern everything per-hop execution needs -- the
    // registry lookup, the timestamp, the visibility order function --
    // once per (shard, program) instead of once per wave.
    ProgramContext ctx;
    ctx.ts = batch.ts;
    ctx.name = batch.program_name;
    ctx.program = options_.programs
                      ? options_.programs->Find(batch.program_name)
                      : nullptr;
    // Visibility order memoized per write event: the read side is
    // pinned to this program's ts, resolutions are committed (stable)
    // once made, and the context only ever runs on this shard's loop
    // thread, so no lock guards the memo. Every check compares vector
    // clocks first, which decides almost every pair; only a concurrent
    // pair reaches the memo. A vertex's versions mostly share a few write
    // events, so a one-entry memo on the last concurrent write answers
    // most repeats before the per-program map is hashed, and the map
    // asks the resolver once per event.
    ctx.order = VisibilityOrderFn();
    ctx.coordinator = batch.coordinator;
    ctx.states = &program_state_[batch.program_id];
    ctx.visit_once = batch.visit_once;
    it = contexts_.emplace(batch.program_id, std::move(ctx)).first;
    stats_.contexts_installed.fetch_add(1, std::memory_order_relaxed);
    live_contexts_.store(contexts_.size(), std::memory_order_relaxed);
    live_state_tables_.store(program_state_.size(),
                             std::memory_order_relaxed);
  }
  ProgramContext& ctx = it->second;
  // The sender counted every hop spawned; consume each pruned or
  // coalesced one on the spot so the coordinator's credit count still
  // balances.
  ctx.coalesced_credit += ClaimHops(ctx, batch.hops);
  for (NextHop& hop : batch.hops) {
    if (!QueueLocalHop(ctx, std::move(hop))) ctx.coalesced_credit++;
  }
  // A batch can coalesce/prune away entirely; with nothing pending no
  // cycle will run here, so the consumption credit must flow back now or
  // the coordinator never reaches quiescence. (Credit with pending
  // company rides the next cycle's delta instead.)
  if (ctx.coalesced_credit > 0 && ctx.pending.empty()) {
    auto acc = std::make_shared<WaveAccountingMessage>();
    acc->program_id = batch.program_id;
    acc->shard = options_.id;
    acc->hops_consumed = ctx.coalesced_credit;
    ctx.coalesced_credit = 0;
    (void)options_.bus->Send(endpoint_, ctx.coordinator, kMsgWaveAccounting,
                             std::move(acc), /*never_block=*/true);
  }
}

std::size_t Shard::ClaimHops(ProgramContext& ctx,
                             std::vector<NextHop>& hops) {
  // VisitOnce programs: the first hop to reach a vertex decides, so a hop
  // to a claimed vertex -- pending, visited or forwarded -- can never do
  // anything. This is where BFS-style fan-in stops costing a full
  // execution per in-edge.
  if (!ctx.visit_once) return 0;
  const std::size_t pruned = std::erase_if(
      hops, [&](const NextHop& hop) { return !ctx.claimed.insert(hop.node); });
  if (pruned != 0) {
    stats_.hops_pruned.fetch_add(pruned, std::memory_order_relaxed);
  }
  return pruned;
}

bool Shard::QueueLocalHop(ProgramContext& ctx, NextHop hop) {
  // VisitOnce hops arrive claimed (ClaimHops); their claim set already
  // covers every duplicate.
  if (ctx.visit_once) {
    ctx.pending.push_back(std::move(hop));
    return true;
  }
  auto& entries = ctx.pending_keys[hop.node];
  const std::size_t h = std::hash<std::string>{}(hop.params);
  for (const auto& [queued_hash, queued_params] : entries) {
    // Full compare on hash match only: coalescing must never drop a
    // distinct hop.
    if (queued_hash == h && *queued_params == hop.params) {
      stats_.hops_coalesced.fetch_add(1, std::memory_order_relaxed);
      return false;  // exact duplicate: coalesce
    }
  }
  ctx.pending.push_back(std::move(hop));
  entries.emplace_back(h, &ctx.pending.back().params);
  return true;
}

bool Shard::HasRunnableProgramWork() const {
  for (const auto& [pid, ctx] : contexts_) {
    if (ctx.eligible && !ctx.pending.empty()) return true;
  }
  return false;
}

bool Shard::RunEligiblePrograms() {
  if (contexts_.empty()) return false;
  bool ran = false;
  // Collect ids first: RunProgramCycle sends accounting inline, and the
  // coordinator's handler may complete the program on this thread -- but
  // context teardown always arrives as an EndProgram message through the
  // inbox, so contexts_ itself never mutates under us. Still, keep the
  // iteration robust against future reentrancy.
  std::vector<ProgramId> runnable;
  for (auto& [pid, ctx] : contexts_) {
    if (ctx.eligible && !ctx.pending.empty()) runnable.push_back(pid);
  }
  for (ProgramId pid : runnable) {
    auto it = contexts_.find(pid);
    if (it == contexts_.end() || !it->second.eligible ||
        it->second.pending.empty()) {
      continue;
    }
    RunProgramCycle(pid, it->second);
    ran = true;
  }
  return ran;
}

std::size_t Shard::AdaptiveHopBudget() {
  const std::size_t max_hops =
      std::max<std::size_t>(1, options_.max_hops_per_cycle);
  const std::size_t high_water = options_.queue_high_water;
  if (high_water == 0) return max_hops;  // throttling disabled
  const std::size_t depth = inbox_->Size();
  if (depth == 0) return max_hops;
  // Linear scale-down with inbox depth, clamped to a 1/16th floor: a
  // half-full inbox halves the budget, a full (or over-high-water) one
  // pins it at the floor. Programs still make progress every cycle --
  // the floor is never zero -- but transactional backlog drains sooner.
  const std::size_t floor_hops = std::max<std::size_t>(1, max_hops / 16);
  if (depth >= high_water) {
    stats_.hop_budget_throttles.fetch_add(1, std::memory_order_relaxed);
    return floor_hops;
  }
  const std::size_t scaled = max_hops - (max_hops * depth) / high_water;
  if (scaled >= max_hops) return max_hops;
  stats_.hop_budget_throttles.fetch_add(1, std::memory_order_relaxed);
  return std::max(floor_hops, scaled);
}

void Shard::RunProgramCycle(ProgramId pid, ProgramContext& ctx) {
  const std::uint64_t t0 = NowNanos();
  auto acc = std::make_shared<WaveAccountingMessage>();
  acc->program_id = pid;
  acc->shard = options_.id;
  acc->cycles = 1;
  acc->hops_consumed = ctx.coalesced_credit;
  ctx.coalesced_credit = 0;

  auto& states = *ctx.states;
  std::vector<std::vector<NextHop>> remote(shard_endpoints_.size());
  const std::size_t max_hops = AdaptiveHopBudget();
  std::size_t executed = 0;
  // One output buffer and one owner vector for the whole cycle: clearing
  // keeps the capacity, so a vertex's fan-out does not reallocate them.
  ProgramOutput out;
  std::vector<std::optional<ShardId>> owners;

  // Armed by ResolveVisibility when the oracle cannot be reached: the
  // cycle stops early and the program aborts retriably below.
  oracle_stall_ = false;

  while (!ctx.pending.empty() && executed < max_hops && !oracle_stall_) {
    // Unindex the head BEFORE popping (the index points at the live
    // deque element) so a later identical hop is NOT coalesced -- only
    // pending duplicates are provably redundant. Identity compare: this
    // exact element, no hashing on the pop path. VisitOnce programs keep
    // no index: their claims outlive the pop.
    if (!ctx.visit_once) {
      const NextHop& head = ctx.pending.front();
      auto key_it = ctx.pending_keys.find(head.node);
      if (key_it != ctx.pending_keys.end()) {
        auto& list = key_it->second;
        for (auto pit = list.begin(); pit != list.end(); ++pit) {
          if (pit->second == &head.params) {
            list.erase(pit);
            break;
          }
        }
        if (list.empty()) ctx.pending_keys.erase(key_it);
      }
    }
    NextHop hop = std::move(ctx.pending.front());
    ctx.pending.pop_front();
    ++executed;
    acc->hops_consumed++;

    const Node* node = graph_.FindNode(hop.node);
    NodeView view(node, ctx.ts, ctx.order);
    // A VisitOnce vertex runs once per execution, so its state is never
    // read back: a fresh scratch value stands in for the table entry.
    std::any scratch;
    std::any& state = ctx.visit_once ? scratch : states[hop.node];
    out.next_hops.clear();
    out.return_value.reset();
    if (ctx.program != nullptr) {
      ctx.program->Run(view, hop.params, &state, &out);
    }
    acc->vertices_visited++;
    if (out.return_value.has_value()) {
      acc->returns.emplace_back(hop.node, std::move(*out.return_value));
    }
    // Claim before routing: a hop to a vertex that is pending, visited or
    // already forwarded is pruned without an owner lookup, and each
    // peer-owned vertex crosses the bus at most once.
    ClaimHops(ctx, out.next_hops);
    if (options_.locator != nullptr) {
      options_.locator->LookupMany(out.next_hops, &owners);
    } else {
      owners.assign(out.next_hops.size(), options_.id);
    }
    for (std::size_t i = 0; i < out.next_hops.size(); ++i) {
      NextHop& next = out.next_hops[i];
      const std::optional<ShardId> owner = owners[i];
      if (!owner.has_value()) continue;  // unknown vertex: drop
      if (*owner == options_.id) {
        // Same shard: extend the local worklist -- a traversal that
        // stays here completes in this cycle without any messages. A
        // coalesced local hop is simply never spawned.
        if (QueueLocalHop(ctx, std::move(next))) acc->hops_spawned++;
      } else if (*owner < remote.size()) {
        remote[*owner].push_back(std::move(next));
        acc->hops_spawned++;
        stats_.hops_forwarded.fetch_add(1, std::memory_order_relaxed);
      }
      // else: owner beyond the endpoint table (shrunk redeployment): drop.
    }
  }

  std::uint64_t batches = 0;
  for (const auto& group : remote) {
    if (!group.empty()) ++batches;
  }
  acc->forwarded_batches = batches;
  stats_.waves_executed.fetch_add(1, std::memory_order_relaxed);
  stats_.hops_consumed.fetch_add(acc->hops_consumed,
                                 std::memory_order_relaxed);
  stats_.vertices_executed.fetch_add(acc->vertices_visited,
                                     std::memory_order_relaxed);
  stats_.hop_batches_sent.fetch_add(batches, std::memory_order_relaxed);
  const std::uint64_t hop_ns = NowNanos() - t0;
  stats_.hop_exec_ns.fetch_add(hop_ns, std::memory_order_relaxed);
  stats_.op_work_ns.fetch_add(hop_ns, std::memory_order_relaxed);

  // Accounting goes out BEFORE the hop batches: the coordinator must
  // register the spawn credits before any peer can report consuming
  // them, or it could observe a spurious consumed == spawned + starts.
  // The coordinator is an inline-handler endpoint, so this Send runs the
  // merge synchronously on this thread.
  const EndpointId coordinator = ctx.coordinator;
  const RefinableTimestamp ts = ctx.ts;
  const std::string program_name = ctx.name;
  const bool visit_once = ctx.visit_once;
  (void)options_.bus->Send(endpoint_, coordinator, kMsgWaveAccounting,
                           std::move(acc), /*never_block=*/true);

  // NOTE: `ctx` may not be referenced past this point. The accounting
  // send above can complete the program inline (coordinator handler on
  // this thread); teardown arrives as an EndProgram inbox message, so
  // the context is still alive today -- but keep the forwarding loop
  // independent of it so that invariant is not load-bearing.
  Status forward_error = Status::Ok();
  for (std::size_t s = 0; s < remote.size(); ++s) {
    if (remote[s].empty()) continue;
    auto batch = std::make_shared<WaveHopBatchMessage>();
    batch->program_id = pid;
    batch->ts = ts;
    batch->program_name = program_name;
    batch->coordinator = coordinator;
    batch->visit_once = visit_once;
    batch->hops = std::move(remote[s]);
    // never_block: peer shards push into each other from their event
    // loops; blocking on a full peer inbox could deadlock the pair.
    const Status sent =
        options_.bus->Send(endpoint_, shard_endpoints_[s], kMsgWaveHops,
                           std::move(batch), /*never_block=*/true);
    if (!sent.ok()) forward_error = sent;
  }
  if (!forward_error.ok() || oracle_stall_) {
    // A peer shard is down (the spawn credits just reported can never be
    // consumed), or a hop read a version through an oracle-fallback
    // order (the result may be wrong): tell the coordinator to abort the
    // program. The client re-runs it -- same retriable contract as the
    // old frontier liveness check.
    auto err = std::make_shared<WaveAccountingMessage>();
    err->program_id = pid;
    err->shard = options_.id;
    err->error =
        !forward_error.ok()
            ? Status::Unavailable("peer shard is down; re-run the program (" +
                                  forward_error.ToString() + ")")
            : Status::Unavailable(
                  "timeline oracle unreachable during visibility "
                  "resolution (failover in progress?); re-run the program");
    (void)options_.bus->Send(endpoint_, coordinator, kMsgWaveAccounting,
                             std::move(err), /*never_block=*/true);
  }
}

void Shard::FinishProgram(ProgramId pid) {
  contexts_.erase(pid);
  program_state_.erase(pid);
  live_contexts_.store(contexts_.size(), std::memory_order_relaxed);
  live_state_tables_.store(program_state_.size(), std::memory_order_relaxed);
  if (finished_.insert(pid).second) {
    finished_order_.push_back(pid);
    while (finished_order_.size() > kMaxFinishedTombstones) {
      finished_.erase(finished_order_.front());
      finished_order_.pop_front();
    }
  }
}

void Shard::RunGc(const RefinableTimestamp& watermark) {
  // GC visibility is conservative: only vector-clock-certain "before" is
  // collected; concurrent pairs are kept. No oracle commitments are made.
  OrderFn conservative = [](const RefinableTimestamp& a,
                            const RefinableTimestamp& b) {
    const ClockOrder o = a.Compare(b);
    return o == ClockOrder::kConcurrent ? ClockOrder::kAfter : o;
  };
  graph_.CollectBefore(watermark, conservative);
  resolver_.TrimBefore(watermark.clock);
  // Shard-server processes: the oracle view (local oracle or client
  // replica) is ours alone, and this watermark message is the only way
  // the parent's GC reaches it. The durable collect already happened at
  // the service (the parent's CollectService), so trimming the local
  // view is all that is left.
  if (options_.gc_oracle) {
    OracleClient* client = options_.oracle_client != nullptr
                               ? options_.oracle_client
                               : owned_oracle_client_.get();
    client->CollectBefore(watermark.clock);
  }
  stats_.gc_rounds.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Shard::QueuedTransactions() const {
  std::size_t total = 0;
  for (const auto& q : gk_queues_) total += q.size();
  return total;
}

}  // namespace weaver
