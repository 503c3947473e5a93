#include "src/runtime/live_node.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/alloc_tracker.h"
#include "src/common/check.h"
#include "src/common/cpu.h"
#include "src/common/cycles.h"
#include "src/runtime/live_rack.h"

namespace cckvs {
namespace {

// Inbound batches drained per pump before giving client ops a turn; keeps one
// flooded channel from starving the node's own sessions.  Counts batches, so
// a pump handles at most kPollBatch * coalesce_max_batch messages.
constexpr std::size_t kPollBatch = 256;

}  // namespace

LiveNode::LiveNode(LiveRack* rack, NodeId id, WorkloadGenerator gen)
    : rack_(rack),
      id_(id),
      ep_(&rack->transport().endpoint(id)),
      core_(CoreConfig(), ep_, this),
      gen_(std::move(gen)) {
  const LiveRackParams& p = rack->params();
  quota_ = p.ops_per_node;
  ranked_ = rack->ranked();
  coordinator_ = id == 0;
  tracer_ = rack->tracer(id);
  if (tracer_ != nullptr) {
    ep_->set_tracer(tracer_);  // batch-residence spans (coalescer.h)
  }
  record_history_ = p.record_history;
  busy_poll_ = p.busy_poll;
  lin_ = p.consistency == ConsistencyModel::kLin;
  track_allocs_ = p.track_allocs;
  if (p.profile) {
    pub_ = &rack->worker_counters(id);
  }
  if (coordinator_) {
    prev_counts_.resize(static_cast<std::size_t>(p.num_nodes));
  }

  PartitionConfig pc;
  // partition_buckets is a floor.  A prefilled shard holds its share of the
  // keyspace from the start, so it is sized for that many records; every rank
  // derives the same count from the same params.
  pc.buckets = p.partition_buckets;
  if (p.prefill_store) {
    const auto nodes = static_cast<std::uint64_t>(p.num_nodes);
    const std::uint64_t records = (p.workload.keyspace + nodes - 1) / nodes;
    pc.buckets = std::max(pc.buckets, Partition::BucketsFor(records));
  }
  pc.node_id = id;
  const std::uint32_t value_bytes = p.workload.value_bytes;
  pc.synthesize = [value_bytes](Key key) { return SynthesizeValue(key, value_bytes); };
  pc.synthesize_into = [value_bytes](Key key, Value* out) {
    SynthesizeValueInto(key, value_bytes, out);
  };
  partition_ = std::make_unique<Partition>(pc);

  sessions_.resize(static_cast<std::size_t>(p.window_per_node));
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    // Sessions are pinned to their node, as in the simulator.
    sessions_[s].id = static_cast<SessionId>(id) * 100000u + static_cast<SessionId>(s);
  }
  idle_sessions_ = sessions_.size();
  issue_batch_.reserve(sessions_.size());
  rpc_waiting_.assign(sessions_.size(), 0);
  parked_sc_writes_.Reset(sessions_.size());
  parked_gated_.Reset(sessions_.size());
}

NodeCoreConfig LiveNode::CoreConfig() {
  NodeCoreConfig c = NodeCoreConfig::From(rack_->params(), id_);
  LiveRack* rack = rack_;
  c.home_of = [rack](Key key) { return rack->HomeOf(key); };
  c.shard_of = [this](Key) -> Partition& { return *partition_; };
  // In a ranked rack a remote home shard lives in another address space,
  // reachable only over RPC.
  c.peek_home = [rack](Key key) -> const Partition* {
    return rack->IsLocal(rack->HomeOf(key)) ? &rack->PartitionOf(key) : nullptr;
  };
  return c;
}

SimTime LiveNode::NowTs() {
  SimTime t = rack_->clock_ns();
  if (t <= last_ts_) {
    t = last_ts_ + 1;
  }
  last_ts_ = t;
  return t;
}

void LiveNode::Run(StopToken stop) {
  const bool debug_state = std::getenv("CCKVS_DEBUG_STATE") != nullptr;
  // The same periodic node state feeds two sinks: the CCKVS_DEBUG_STATE
  // stderr dump (env-gated, human-readable) and — whenever tracing is armed —
  // a structured state_dump instant in the trace, so a stuck drain phase is
  // diagnosable from the trace file alone (docs/OBSERVABILITY.md).
  const bool dump_state = debug_state || tracer_ != nullptr;
  std::uint64_t last_dump_cycles = 0;
  std::uint64_t idle_spins = 0;
  // Force the rdtsc→ns calibration (a one-time ~10ms busy-wait behind a
  // function-local static) before the first op is stamped and before the
  // allocation window can open.
  CyclesPerNs();
  const std::uint64_t dump_interval_cycles =
      static_cast<std::uint64_t>(2e9 * CyclesPerNs());
  while (true) {
    if (dump_state) {
      const std::uint64_t now_cycles = CycleNow();
      if (now_cycles - last_dump_cycles > dump_interval_cycles) {
        last_dump_cycles = now_cycles;
        if (tracer_ != nullptr) {
          // arg0 = ops completed; arg1 packs the four queue depths a hang
          // diagnosis needs (16 bits each: gated, parked SC, RPCs out, idle).
          const std::uint64_t a1 =
              (static_cast<std::uint64_t>(parked_gated_.size()) & 0xffff) |
              ((static_cast<std::uint64_t>(parked_sc_writes_.size()) & 0xffff) << 16) |
              ((static_cast<std::uint64_t>(rpc_outstanding_) & 0xffff) << 32) |
              ((static_cast<std::uint64_t>(idle_sessions_) & 0xffff) << 48);
          tracer_->Instant(SpanKind::kStateDump, 0, 0, core_.completed(), a1);
        }
        if (debug_state) {
          // Credit-parked sends per peer, in a fixed buffer so the dump
          // allocates nothing (snprintf truncates a very wide rack).
          char parked[128] = "";
          for (NodeId peer = 0; peer < static_cast<NodeId>(rack_->params().num_nodes);
               ++peer) {
            const std::size_t len = std::strlen(parked);
            std::snprintf(parked + len, sizeof(parked) - len, peer == 0 ? "%zu" : ",%zu",
                          ep_->parked_sends(peer));
          }
          std::fprintf(stderr,
                       "[node %d] halted=%d halt=%d idle=%zu/%zu parked_sc=%zu gated=%zu "
                       "rpc_out=%zu parked_sends=[%s] quiesc=%d pending=%d engineq=%d "
                       "completed=%llu sent=%llu proc=%llu round=%u open=%d stat=%zu\n",
                       int{id_}, halted_, halt_, idle_sessions_, sessions_.size(),
                       parked_sc_writes_.size(), parked_gated_.size(),
                       rpc_outstanding_, parked,
                       LocallyQuiescent(), !ep_->NothingPending(),
                       core_.engine()->Quiescent(),
                       static_cast<unsigned long long>(core_.completed()),
                       static_cast<unsigned long long>(ep_->data_sent()),
                       static_cast<unsigned long long>(ep_->data_processed()),
                       term_round_, round_open_, round_status_.size());
        }
      }
    }
    if (rack_->transport().fabric().faulted()) {
      // A fabric fault (peer hangup mid-frame, undecodable frame) cannot heal;
      // bail out so the run reports the error instead of hanging on drain.
      break;
    }
    const std::size_t processed = PollInbound(kPollBatch);
    ep_->FlushPending();       // credits may have come back
    RetryParkedScWrites();
    MaybeRetryDeferred();      // protocol progress may have released evictions
    const bool gated_progress = RetryGatedOps();

    bool issued = false;
    if (!halted_) {
      if (stop.StopRequested() || core_.completed() >= quota_) {
        halted_ = true;
      } else {
        issued = FillIdleSessions();
      }
    }
    PollAllocWindow();
    if (owed_probe_ != 0 && halted_) {
      AnswerProbe();
    }

    // Op boundary: what this iteration left open — acks for the polled
    // invalidations, updates/invalidations/epoch traffic from the ops above,
    // minus what a Lin window break already shipped — ships now, one batch
    // per peer (or, under a flush deadline, once its hold expires).
    ep_->FlushBatches(FlushCause::kBoundary);

    if (StepTermination()) {
      break;  // the rack is globally quiescent: histories are sealed
    }

    PublishCounters();

    if (processed == 0 && !issued && !gated_progress) {
      if (busy_poll_) {
        // Busy-poll mode: spin on the inbound ring instead of parking.  The
        // expired-deadline poll preserves the flush policy the sleeping path
        // applies before parking (a held sub-cap batch still ships within its
        // deadline); the periodic yield keeps oversubscribed hosts — and
        // single-CPU CI — live.
        ep_->PollExpiredDeadlines();
        if (++idle_spins % 64 == 0) {
          std::this_thread::yield();
        }
        CpuRelax();
      } else {
        // Nothing to do right now.  Credit returns are silent (atomic adds),
        // so bound the sleep rather than waiting for a message that may not
        // come.
        ep_->WaitForTraffic(std::chrono::microseconds(LocallyQuiescent() ? 50 : 200));
      }
    }
  }
  // Whatever ended the loop, the report and the profiler's final sample see
  // everything this node did, the halt and the last flush included.
  counters_ = CollectCounters();
  if (pub_ != nullptr) {
    pub_->Store(counters_);
  }
}

void LiveNode::PollAllocWindow() {
  if (!track_allocs_ || alloc_window_done_) {
    return;
  }
  if (!alloc_window_open_) {
    // Warmup: the first quarter of the quota grows every buffer, pool and
    // freelist to its steady-state capacity; only what comes after counts.
    if (!halted_ && core_.completed() >= quota_ / 4) {
      alloc_window_open_ = true;
      alloc::ResetThread();
      alloc::EnableThread();
    }
    return;
  }
  if (halted_) {
    alloc::DisableThread();
    alloc_window_open_ = false;
    alloc_window_done_ = true;
    if (rack_->params().alloc_assert && alloc::TrackerAvailable()) {
      CCKVS_CHECK_EQ(alloc::ThreadCount(), 0u);
    }
  }
}

NodeCounters LiveNode::CollectCounters() const {
  NodeCounters c = core_.counters();
  c += counts_;
  c.msgs_sent = ep_->coalescer().messages_sent();
  c.batches_sent = ep_->coalescer().batches_sent();
  c.flushes_size = ep_->coalescer().flushes(FlushCause::kSize);
  c.flushes_boundary = ep_->coalescer().flushes(FlushCause::kBoundary);
  c.flushes_idle = ep_->coalescer().flushes(FlushCause::kIdle);
  c.flushes_deadline = ep_->coalescer().flushes(FlushCause::kDeadline);
  c.updates_sent = ep_->updates_sent();
  c.invalidations_sent = ep_->invalidations_sent();
  c.acks_sent = ep_->acks_sent();
  c.credit_updates_sent = ep_->credit_returns();
  c.epoch_msgs = ep_->epoch_msgs_sent();
  c.credit_parks = ep_->credit_parks();
  c.channel_messages = ep_->messages_received();
  c.channel_batches = ep_->batches_received();
  c.channel_full_waits = ep_->full_waits();
  c.wakeups = ep_->wakeups();
  c.updates_collapsed = ep_->updates_collapsed();
  c.inbound_depth = rack_->transport().fabric().InboundDepth(id_);
  c.store_read_retries = partition_->stats().read_retries;
  const SlabAllocator::Stats slab = partition_->slab_stats();
  c.slab_live_slots = slab.live_slots;
  c.slab_arena_bytes = slab.arena_bytes;
  c.hot_path_allocs = track_allocs_ ? alloc::ThreadCount() : 0;
  if (tracer_ != nullptr) {
    c.spans_recorded = tracer_->ring().recorded();
    c.spans_dropped = tracer_->ring().dropped();
  }
  return c;
}

void LiveNode::PublishCounters() {
  if (pub_ != nullptr) {
    pub_->Store(CollectCounters());
  }
}

std::size_t LiveNode::PollInbound(std::size_t max) {
  return ep_->Poll(max, [this](NodeId src, const WireBody& body) {
    if (const auto* upd = std::get_if<UpdateMsg>(&body)) {
      core_.OnUpdate(src, *upd);
    } else if (const auto* inv = std::get_if<InvalidateMsg>(&body)) {
      core_.OnInvalidate(src, *inv);
    } else if (const auto* ack = std::get_if<AckMsg>(&body)) {
      core_.OnAck(src, *ack);
    } else if (const auto* hot = std::get_if<HotSetAnnounceMsg>(&body)) {
      if (core_.hot_set_manager() != nullptr) {
        DriveAnnounceTraced(*hot);
      }
    } else if (const auto* fill = std::get_if<FillMsg>(&body)) {
      core_.ApplyFill(*fill);
      if (tracer_ != nullptr) {
        tracer_->Instant(SpanKind::kFillApplied, 0, 0, fill->key, fill->epoch);
      }
    } else if (const auto* installed = std::get_if<EpochInstalledMsg>(&body)) {
      if (HotSetManager* hot_mgr = core_.hot_set_manager(); hot_mgr != nullptr) {
        hot_mgr->DrivePeerInstalled(src, installed->epoch);
        if (tracer_ != nullptr) {
          tracer_->Instant(SpanKind::kPeerInstalled, 0, 0, installed->epoch, src);
          MaybeCloseBarrier();
        }
      }
    } else if (const auto* req = std::get_if<RpcRequest>(&body)) {
      ServeRpc(src, *req);
    } else if (const auto* resp = std::get_if<RpcResponse>(&body)) {
      OnRpcResponse(*resp);
    } else if (const auto* probe = std::get_if<TermProbeMsg>(&body)) {
      owed_probe_ = probe->round;  // answered by the run loop once halted
    } else if (const auto* status = std::get_if<TermStatusMsg>(&body)) {
      if (coordinator_ && round_open_ && status->round == term_round_) {
        round_status_.push_back(*status);
      }
    } else {
      CCKVS_CHECK(std::holds_alternative<TermHaltMsg>(body));
      halt_ = true;
    }
  });
}

// --- HotSetHost hooks: the live half of the shared transition machine ---

void LiveNode::PublishFills(const std::vector<FillMsg>& fills) {
  for (const FillMsg& fill : fills) {
    ep_->BroadcastFill(fill);
  }
}

void LiveNode::PublishInstalled(const EpochInstalledMsg& msg) {
  ep_->BroadcastEpochInstalled(msg);
  if (tracer_ != nullptr) {
    // The install that the announce opened is done on this node: close the
    // epoch_install span, then start waiting on the rack-wide barrier.
    if (install_start_cycles_ != 0 && msg.epoch >= install_epoch_) {
      tracer_->Emit(SpanKind::kEpochInstall, 0, tracer_->NewSpanId(), 0,
                    install_start_cycles_, CycleNow(), msg.epoch,
                    core_.hot_set_manager()->deferred_evictions());
      install_start_cycles_ = 0;
    }
    barrier_start_cycles_ = CycleNow();
    barrier_epoch_ = msg.epoch;
    MaybeCloseBarrier();  // peers may already have reported in
  }
}

void LiveNode::LiftGate(Key key) {
  core_.LiftGate(key);
  if (tracer_ != nullptr) {
    const auto it = gate_spans_.find(key);
    if (it != gate_spans_.end()) {
      tracer_->Emit(SpanKind::kGateClosed, 0, tracer_->NewSpanId(), 0,
                    it->second.first, CycleNow(), key, it->second.second);
      gate_spans_.erase(it);
    }
  }
}

void LiveNode::MaybeRetryDeferred() {
  if (core_.DriveDeferred()) {
    SyncGateSpans();  // deferred evictions can raise fresh gates
  }
}

void LiveNode::DriveAnnounceTraced(const HotSetAnnounceMsg& msg) {
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanKind::kAnnounce, 0, 0, msg.epoch, msg.keys.size());
    if (install_start_cycles_ == 0 && msg.epoch > install_epoch_) {
      install_start_cycles_ = CycleNow();
      install_epoch_ = msg.epoch;
    }
  }
  core_.ApplyAnnounce(msg);
  SyncGateSpans();
}

void LiveNode::SyncGateSpans() {
  const HotSetManager* hot_mgr = core_.hot_set_manager();
  if (tracer_ == nullptr || hot_mgr == nullptr) {
    return;
  }
  // pending_clear() holds every key homed here whose eviction awaits the
  // install barrier; a key not yet in gate_spans_ was gated just now.
  const std::uint64_t now = CycleNow();
  for (const auto& [key, epoch] : hot_mgr->pending_clear()) {
    gate_spans_.try_emplace(key, now, epoch);
  }
}

void LiveNode::MaybeCloseBarrier() {
  const HotSetManager* hot_mgr = core_.hot_set_manager();
  if (tracer_ == nullptr || hot_mgr == nullptr || barrier_start_cycles_ == 0) {
    return;
  }
  const int n = rack_->params().num_nodes;
  for (NodeId peer = 0; peer < static_cast<NodeId>(n); ++peer) {
    if (hot_mgr->peer_installed_epoch(peer) < barrier_epoch_) {
      return;
    }
  }
  tracer_->Emit(SpanKind::kBarrierWait, 0, tracer_->NewSpanId(), 0,
                barrier_start_cycles_, CycleNow(), barrier_epoch_, 0);
  barrier_start_cycles_ = 0;
}

bool LiveNode::RetryGatedOps() {
  if (parked_gated_.empty()) {
    return false;
  }
  retrying_gated_ = true;  // re-parks are not new gate encounters
  bool progress = false;
  const std::size_t n = parked_gated_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = parked_gated_.front();
    parked_gated_.pop_front();
    const std::size_t parked_before = parked_gated_.size();
    RouteOp(slot);  // may re-park at the back
    const bool reparked = parked_gated_.size() != parked_before;
    progress |= !reparked;
    // Un-parked into a path that won't reach CompleteOp soon (a fresh RPC, an
    // SC credit park): the gated wait is over now, so close its span here.
    // When RouteOp completed the op, CompleteOp already closed and cleared it.
    Session& sess = sessions_[slot];
    if (!reparked && sess.park_cycles != 0) {
      tracer_->Emit(SpanKind::kGatedWait, sess.trace_id, tracer_->NewSpanId(),
                    sess.op_span, sess.park_cycles, CycleNow(), sess.op.key, 0);
      sess.park_cycles = 0;
    }
  }
  retrying_gated_ = false;
  return progress;
}

bool LiveNode::FillIdleSessions() {
  if (idle_sessions_ == 0) {
    return false;
  }
  // Pass 1: draw each idle session's op (in slot order, so the generator's
  // sequence is the one a one-at-a-time loop would draw) and start fetching
  // its home bucket line.  Cache hits waste one prefetch; misses, the ops
  // that pay for memory, find their bucket in cache by pass 2.
  issue_batch_.clear();
  for (std::uint32_t s = 0; s < sessions_.size(); ++s) {
    Session& sess = sessions_[s];
    if (!sess.idle) {
      continue;
    }
    gen_.NextInto(&sess.op);  // reuses the slot's value capacity
    const NodeId home = rack_->HomeOf(sess.op.key);
    const Partition* shard =
        rack_->IsLocal(home) ? &rack_->node(home).partition() : nullptr;
    if (shard != nullptr) {
      shard->PrefetchBucket(sess.op.key);
    }
    issue_batch_.push_back(BatchEntry{s, shard});
  }
  // Pass 2: the bucket lines have landed (or are in flight); follow each
  // head slot to its record and start fetching that line too.
  for (const BatchEntry& e : issue_batch_) {
    if (e.home != nullptr) {
      e.home->PrefetchRecord(sessions_[e.slot].op.key);
    }
  }
  // Pass 3: issue in slot order.  Every drawn op is issued in this pass.
  // Under Lin, a write completes only after an invalidate -> ack -> update
  // round trip (§5.2), so its traffic must not wait out the rest of the
  // window (~32 issues, tens of µs).  While a session waits on the engine or
  // a batch is open, the window breaks after each issue: ship what is open
  // (a boundary flush, so a flush deadline still holds young batches) and
  // poll once before the next issue.  SC and read-only Lin never break.
  for (std::size_t i = 0; i < issue_batch_.size(); ++i) {
    IssueOp(issue_batch_[i].slot);
    if (lin_ && i + 1 < issue_batch_.size() &&
        (engine_waits_ != 0 || !ep_->coalescer().AllEmpty())) {
      ++counts_.window_breaks;
      ep_->FlushBatches(FlushCause::kBoundary);
      PollInbound(kPollBatch);
    }
  }
  return true;
}

void LiveNode::IssueOp(std::uint32_t slot) {
  Session& sess = sessions_[slot];
  CCKVS_DCHECK(sess.idle);
  // Latency is stamped here, immediately before routing; the batch's draw and
  // prefetch passes ran before the stamp, so they are not part of it.
  sess.invoke_cycles = CycleNow();
  if (tracer_ != nullptr && tracer_->SampleNext()) {
    // Deterministic 1-in-N op sampling: this op's whole lifecycle — including
    // any RPC legs served by a remote rank — shares this trace id.
    sess.trace_id = tracer_->NewTraceId();
    sess.op_span = tracer_->NewSpanId();
  }
  if (record_history_) {
    // The history clock is only consulted when a history is being recorded;
    // latency always comes from the per-op cycle stamps.
    sess.invoke = NowTs();
  }
  sess.idle = false;
  --idle_sessions_;
  HotSetManager* hot_mgr = core_.hot_set_manager();
  if (hot_mgr != nullptr && hot_mgr->coordinator() && hot_mgr->Sample(sess.op.key)) {
    const HotSetAnnounceMsg ann = hot_mgr->announcement();
    ep_->BroadcastHotSet(ann);
    DriveAnnounceTraced(ann);
  }
  RouteOp(slot);
}

void LiveNode::RouteOp(std::uint32_t slot) {
  Session& sess = sessions_[slot];
  Timestamp ts;
  switch (core_.RouteOp(sess.op, &read_scratch_, &ts,
                        [this, slot](const Value& v, Timestamp t) {
                          CompleteOp(slot, v, t, Route::kCache);
                        })) {
    case Route::kL1:
      if (sess.trace_id != 0) {
        tracer_->Instant(SpanKind::kL1Hit, sess.trace_id, sess.op_span, sess.op.key, 0);
      }
      CompleteOp(slot, read_scratch_, ts, Route::kL1);
      return;
    case Route::kCache:
      CompleteOp(slot, read_scratch_, ts, Route::kCache);
      return;
    case Route::kCacheBlocked:
      MarkEngineWait(slot);
      return;  // the parked-reader callback completes the op
    case Route::kCacheWrite:
      if (core_.engine()->model() == ConsistencyModel::kSc &&
          !ep_->AllPeersHaveCredit()) {
        // SC writes complete as soon as the update broadcast is posted, so
        // posting is the throttle point (§6.3): no credits, the op waits.
        ++counts_.sc_credit_stalls;
        if (sess.trace_id != 0 && sess.credit_park_cycles == 0) {
          sess.credit_park_cycles = CycleNow();
        }
        parked_sc_writes_.push_back(slot);
        return;
      }
      StartCacheWrite(slot);
      return;
    case Route::kMiss:
      RouteMissOp(slot);
      return;
  }
}

void LiveNode::RouteMissOp(std::uint32_t slot) {
  // Miss: the scale-out-ccNUMA data plane.  Access the home shard directly
  // through the CRCW seqlock path — a remote read is a lock-free copy-out, a
  // remote write takes only the bucket's writer lock.  During an epoch
  // transition the record's residency gate may be up (the hot set still owns
  // the key somewhere in the rack); such ops park and retry until the key is
  // either settled into the shard or admitted into this node's cache.
  Session& sess = sessions_[slot];
  const Key key = sess.op.key;
  if (ranked_ && rack_->HomeOf(key) != id_) {
    // Multi-process rack: the home shard lives in another address space, so
    // the direct load/store is out of reach — fall back to the §6.1 RPC path.
    SendRpc(slot);
    return;
  }
  Partition& home = rack_->PartitionOf(key);
  const std::uint64_t shard_start = sess.trace_id != 0 ? CycleNow() : 0;
  const bool is_get = sess.op.type == OpType::kGet;
  Timestamp ts;
  bool gated = false;
  if (is_get) {
    const bool ok = home.Get(key, &read_scratch_, &ts, &gated);
    CCKVS_CHECK(ok);  // the synthesizer guarantees every GET succeeds
  } else {
    gated = !home.TryPut(key, sess.op.value, &ts);
  }
  if (gated) {
    ParkGated(slot, shard_start);
    return;
  }
  if (shard_start != 0) {
    tracer_->Emit(is_get ? SpanKind::kShardRead : SpanKind::kShardWrite, sess.trace_id,
                  tracer_->NewSpanId(), sess.op_span, shard_start, CycleNow(), key, 0);
  }
  CompleteOp(slot, is_get ? read_scratch_ : sess.op.value, ts, Route::kMiss);
}

void LiveNode::ParkGated(std::uint32_t slot, std::uint64_t stamp) {
  if (!retrying_gated_) {
    ++counts_.gate_retries;
  }
  Session& sess = sessions_[slot];
  if (sess.trace_id != 0 && sess.park_cycles == 0) {
    sess.park_cycles = stamp;
  }
  parked_gated_.push_back(slot);
}

void LiveNode::StartCacheWrite(std::uint32_t slot) {
  Session& sess = sessions_[slot];
  if (sess.credit_park_cycles != 0) {
    // The SC write sat parked on broadcast credits; the park is over.
    tracer_->Emit(SpanKind::kCreditWait, sess.trace_id, tracer_->NewSpanId(),
                  sess.op_span, sess.credit_park_cycles, CycleNow(),
                  sess.op.key, 0);
    sess.credit_park_cycles = 0;
  }
  // [this, slot] fits std::function's small-buffer optimization; capturing
  // anything more would push the closure past it and heap-allocate per write.
  if (!core_.StartCacheWrite(sess.op.key, sess.op.value, [this, slot](Timestamp ts) {
        CompleteOp(slot, sessions_[slot].op.value, ts, Route::kCache);
      })) {
    // The key churned out of the hot set while this write sat parked on
    // credits; take the miss path instead.
    RouteMissOp(slot);
  } else if (!sess.idle) {
    MarkEngineWait(slot);  // a Lin write: its last ack completes it
  }
}

void LiveNode::MarkEngineWait(std::uint32_t slot) {
  sessions_[slot].engine_wait = true;
  ++engine_waits_;
}

void LiveNode::RetryParkedScWrites() {
  while (!parked_sc_writes_.empty() && ep_->AllPeersHaveCredit()) {
    const std::uint32_t slot = parked_sc_writes_.front();
    parked_sc_writes_.pop_front();
    StartCacheWrite(slot);
  }
}

// --- ranked (multi-process) mode ---

void LiveNode::SendRpc(std::uint32_t slot) {
  Session& sess = sessions_[slot];
  RpcRequest req;
  req.op_id = slot;  // session slots are stable until the response lands
  req.op = sess.op.type;
  req.key = sess.op.key;
  if (sess.op.type == OpType::kPut) {
    req.value = sess.op.value;
  }
  if (sess.trace_id != 0) {
    // Trace context piggybacks on the wire (wire_codec.h, append-only ABI);
    // the home rank's rpc_serve span stitches to ours through these ids.
    req.trace_id = sess.trace_id;
    req.parent_span = sess.op_span;
    sess.rpc_span = tracer_->NewSpanId();
    sess.rpc_cycles = CycleNow();
  }
  ep_->SendDirect(rack_->HomeOf(sess.op.key), WireBody{std::move(req)});
  rpc_waiting_[slot] = 1;
  ++rpc_outstanding_;
  ++counts_.rpcs_sent;
}

void LiveNode::ServeRpc(NodeId src, const RpcRequest& req) {
  // Same shard semantics as a local miss, except the residency gate bounces
  // instead of parking: the gate clears when the requester's own cache admits
  // the key (hot-set announce in flight), which only the requester can see.
  // Parking here would deadlock a halted rack whose final hot set keeps the
  // key resident forever.  The reply completes (or re-routes) the requester's
  // session; PUT responses echo the commit timestamp.
  CCKVS_DCHECK(rack_->HomeOf(req.key) == id_);
  const std::uint64_t serve_start =
      (tracer_ != nullptr && req.trace_id != 0) ? CycleNow() : 0;
  RpcResponse resp;
  resp.op_id = req.op_id;
  resp.trace_id = req.trace_id;  // echo: response joins the requester's trace
  if (req.op == OpType::kGet) {
    Value value;
    Timestamp ts;
    bool resident = false;
    const bool ok = partition_->Get(req.key, &value, &ts, &resident);
    CCKVS_CHECK(ok);
    if (resident) {
      resp.gated = true;
    } else {
      resp.value = std::move(value);
      resp.ts = ts;
    }
  } else {
    Timestamp ts;
    if (!partition_->TryPut(req.key, req.value, &ts)) {
      resp.gated = true;
    } else {
      // A peer just wrote our shard; the home is the one place that observes
      // it, so invalidate any private copy here.
      core_.OnServedWrite(req.key);
      resp.ts = ts;
    }
  }
  if (serve_start != 0) {
    // Home-side engine span: parented on the requester's op span (over the
    // wire), so the merged Chrome trace shows both halves of the miss joined
    // by trace id.  arg1 flags a residency-gate bounce.
    tracer_->Emit(SpanKind::kRpcServe, req.trace_id, tracer_->NewSpanId(),
                  req.parent_span, serve_start, CycleNow(), req.key,
                  resp.gated ? 1 : 0);
  }
  ep_->SendDirect(src, WireBody{std::move(resp)});
}

void LiveNode::OnRpcResponse(const RpcResponse& resp) {
  const std::uint32_t slot = resp.op_id;
  CCKVS_CHECK_LT(slot, sessions_.size());
  CCKVS_CHECK(rpc_waiting_[slot]);
  rpc_waiting_[slot] = 0;
  --rpc_outstanding_;
  Session& sess = sessions_[slot];
  if (sess.rpc_span != 0) {
    // Requester-side RPC leg: send stamp -> response landing.
    tracer_->Emit(SpanKind::kRpc, sess.trace_id, sess.rpc_span, sess.op_span,
                  sess.rpc_cycles, CycleNow(), sess.op.key,
                  resp.gated ? 1 : 0);
    sess.rpc_span = 0;
    sess.rpc_cycles = 0;
  }
  if (resp.gated) {
    // Home shard is behind the residency gate.  Park locally and re-route at
    // the next pump — RouteOp probes the cache first, so once the announce
    // and fill land the op completes as a hit; until then it re-RPCs, paced
    // by the run loop's idle sleep.  Same retry loop the single-process miss
    // path uses, stretched across the wire.
    ParkGated(slot, sess.trace_id != 0 ? CycleNow() : 0);
    return;
  }
  CompleteOp(slot,
             sess.op.type == OpType::kGet ? resp.value : sess.op.value,
             resp.ts, Route::kMiss);
}

bool LiveNode::LocallyQuiescent() const {
  // Outstanding client RPCs keep their sessions non-idle, so AllSessionsIdle
  // covers rpc_outstanding_ too; gated ops bounced back by a home owe a
  // re-route and count as local work.
  return halted_ && AllSessionsIdle() && parked_sc_writes_.empty() &&
         parked_gated_.empty() && ep_->NothingPending() && core_.engine()->Quiescent();
}

void LiveNode::AnswerProbe() {
  TermStatusMsg status;
  status.round = owed_probe_;
  status.rank = id_;
  status.done = LocallyQuiescent();
  status.sent = ep_->data_sent();
  status.processed = ep_->data_processed();
  ep_->SendDirect(0, WireBody{status});
  owed_probe_ = 0;
}

bool LiveNode::StepTermination() {
  if (halt_) {
    // The coordinator certified global quiescence: ship anything still open
    // (no later wakeup would), then exit.
    ep_->FlushBatchesNow();
    return true;
  }
  if (!coordinator_) {
    return false;
  }
  const int n = rack_->params().num_nodes;
  if (round_open_ && round_status_.size() == static_cast<std::size_t>(n)) {
    // Round complete: evaluate.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts(
        static_cast<std::size_t>(n));
    bool all_done = true;
    std::uint64_t sum_sent = 0;
    std::uint64_t sum_processed = 0;
    for (const TermStatusMsg& s : round_status_) {
      counts[static_cast<std::size_t>(s.rank)] = {s.sent, s.processed};
      all_done &= s.done;
      sum_sent += s.sent;
      sum_processed += s.processed;
    }
    const bool stable = prev_valid_ && counts == prev_counts_;
    prev_counts_ = counts;
    prev_valid_ = true;
    round_open_ = false;
    round_status_.clear();
    if (stable && all_done && sum_sent == sum_processed) {
      // Two identical rounds, everyone done, no data message unaccounted for:
      // the rack is globally quiescent.  Release the peers and exit.
      for (NodeId peer = 0; peer < static_cast<NodeId>(n); ++peer) {
        if (peer != id_) {
          ep_->SendDirect(peer, WireBody{TermHaltMsg{term_round_}});
        }
      }
      ep_->FlushBatchesNow();
      halt_ = true;
      return true;
    }
  }
  if (!round_open_ && LocallyQuiescent()) {
    const SimTime now = rack_->clock_ns();
    if (now - last_probe_ns_ > 200'000) {  // ≥200µs between rounds
      ++term_round_;
      round_open_ = true;
      last_probe_ns_ = now;
      // Seed our own status; peers answer the probe.
      TermStatusMsg self_status;
      self_status.round = term_round_;
      self_status.rank = id_;
      self_status.done = true;
      self_status.sent = ep_->data_sent();
      self_status.processed = ep_->data_processed();
      round_status_.push_back(self_status);
      for (NodeId peer = 1; peer < static_cast<NodeId>(n); ++peer) {
        ep_->SendDirect(peer, WireBody{TermProbeMsg{term_round_}});
      }
      ep_->FlushBatches(FlushCause::kBoundary);
    }
  }
  return false;
}

void LiveNode::CompleteOp(std::uint32_t slot, const Value& read_value, Timestamp ts,
                          Route route) {
  Session& sess = sessions_[slot];
  CCKVS_CHECK(!sess.idle);
  // Per-op latency from raw cycle stamps (rdtsc where available): immune to
  // the history clock's tie-breaking bumps and cheap enough to keep on in
  // busy-poll runs — the Fig 13c-comparable numbers come from this histogram.
  const std::uint64_t done_cycles = CycleNow();
  latency_.Record(CyclesToNs(done_cycles - sess.invoke_cycles));
  if (sess.trace_id != 0) {
    if (sess.park_cycles != 0) {
      tracer_->Emit(SpanKind::kGatedWait, sess.trace_id, tracer_->NewSpanId(),
                    sess.op_span, sess.park_cycles, done_cycles, sess.op.key, 0);
    }
    // The root span: issue -> completion.  arg1 packs op type and route.
    tracer_->Emit(SpanKind::kOp, sess.trace_id, sess.op_span, 0,
                  sess.invoke_cycles, done_cycles, sess.op.key,
                  (sess.op.type == OpType::kPut ? 1u : 0u) |
                      (route == Route::kCache ? 2u : 0u) |
                      (route == Route::kL1 ? 4u : 0u));
    sess.trace_id = 0;
    sess.op_span = 0;
    sess.rpc_span = 0;
    sess.rpc_cycles = 0;
    sess.park_cycles = 0;
    sess.credit_park_cycles = 0;
  }

  if (record_history_) {
    HistoryOp h;
    h.session = sess.id;
    h.type = sess.op.type;
    h.key = sess.op.key;
    h.value = sess.op.type == OpType::kPut ? sess.op.value : read_value;
    h.ts = ts;
    h.invoke = sess.invoke;
    h.complete = NowTs();
    history_.push_back(std::move(h));
  }
  // Counts and L1 upkeep (admission may copy a value) run outside the
  // measured latency, as the history stamp above.
  core_.CompleteOp(sess.op, route, read_value, ts);

  if (sess.engine_wait) {
    sess.engine_wait = false;
    --engine_waits_;
  }
  sess.idle = true;
  ++idle_sessions_;
  // Closed loop: the next op is issued by the run loop's FillIdleSessions(),
  // never from inside a completion callback (no recursion through the engine).
}

}  // namespace cckvs
