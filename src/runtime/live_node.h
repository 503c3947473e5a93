// One live rack node: a real thread owning its shard and its NodeCore (the
// cache, engine and L1 tier the simulator's nodes run too; cckvs/node_core.h).
//
// The node thread is the engine's single-threaded host (the contract in
// src/protocol/engine.h): every engine call — client ops and message
// deliveries — happens on this thread, interleaved by the run loop.  Other
// threads interact with the node in exactly two ways:
//
//   * posting protocol messages into its transport endpoint's channel, and
//   * reading/writing its store::Partition shard directly through the CRCW
//     seqlock path — the scale-out-ccNUMA data plane: a cache miss is served
//     by a plain load/store against the home shard, not an RPC.
//
// Client load is closed-loop: `window` sessions per node, each issuing its
// next operation as soon as the previous completes, from a per-thread
// WorkloadGenerator.  Completions are engine callbacks, so a Lin write or a
// blocked read simply leaves its session non-idle until the protocol fires.

#ifndef CCKVS_RUNTIME_LIVE_NODE_H_
#define CCKVS_RUNTIME_LIVE_NODE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cckvs/node_core.h"
#include "src/cckvs/rpc_messages.h"
#include "src/common/histogram.h"
#include "src/protocol/engine.h"
#include "src/runtime/control_messages.h"
#include "src/runtime/profiler.h"
#include "src/runtime/stop.h"
#include "src/runtime/tracing.h"
#include "src/runtime/transport.h"
#include "src/store/partition.h"
#include "src/verify/history.h"
#include "src/workload/workload.h"

namespace cckvs {

class LiveRack;

class LiveNode final : private HotSetHost {
 public:
  LiveNode(LiveRack* rack, NodeId id, WorkloadGenerator gen);
  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  // Installs + fills the symmetric hot set (before threads start).
  void PrefillHotSet(const std::vector<Key>& hot_keys) { core_.PrefillHotSet(hot_keys); }

  // Thread body.  Issues ops until the quota (or a stop request), then drains:
  // keeps pumping messages until node 0 certifies that every node is
  // quiescent and no message is in flight, so all histories seal.
  void Run(StopToken stop);

  // Shard access; the CRCW seqlock path makes this safe from any thread.
  Partition& partition() { return *partition_; }
  const Partition& partition() const { return *partition_; }

  // --- post-join introspection (owning thread has exited) ---
  // The node's table counters as its thread left Run (cckvs/counters.h).
  using Counters = NodeCounters;
  const Counters& counters() const { return counters_; }
  const Histogram& latency() const { return latency_; }
  const std::vector<HistoryOp>& history_ops() const { return history_; }
  const SymmetricCache& cache() const { return *core_.cache(); }
  // Private L1 tail, or nullptr when params.l1_capacity == 0.
  const L1TailCache* l1() const { return core_.l1(); }
  const CoherenceEngine& engine() const { return *core_.engine(); }
  const HotSetManager* hot_set_manager() const { return core_.hot_set_manager(); }

 private:
  using Route = NodeCore::Route;

  struct Session {
    Op op;
    SimTime invoke = 0;               // history clock (record_history runs)
    std::uint64_t invoke_cycles = 0;  // rdtsc stamp; feeds the latency histogram
    SessionId id = 0;
    bool idle = true;
    bool engine_wait = false;  // counted in engine_waits_ until CompleteOp
    // --- tracing context (runtime/tracing.h; all 0 when the op is unsampled) ---
    std::uint64_t trace_id = 0;
    std::uint64_t op_span = 0;            // root span; completes in CompleteOp
    std::uint64_t rpc_span = 0;           // open requester-side RPC leg
    std::uint64_t rpc_cycles = 0;         // its send stamp
    std::uint64_t park_cycles = 0;        // first gated-park stamp (gated_wait)
    std::uint64_t credit_park_cycles = 0; // SC credit-park stamp (credit_wait)
  };

  // Fixed-capacity FIFO of parked session slots.  A session is parked at most
  // once, so capacity == session count and push never allocates — the deque
  // it replaces would allocate chunks on the hot path.
  class SlotRing {
   public:
    void Reset(std::size_t capacity) {
      slots_.assign(capacity, 0);
      head_ = tail_ = 0;
    }
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
    std::uint32_t front() const { return slots_[head_ % slots_.size()]; }
    void pop_front() { ++head_; }
    void push_back(std::uint32_t slot) { slots_[tail_++ % slots_.size()] = slot; }

   private:
    std::vector<std::uint32_t> slots_;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
  };

  std::size_t PollInbound(std::size_t max);
  // --- ranked (multi-process) mode ---
  // Remote-homed miss: ship the op to the home rank over the §6.1 RPC path
  // (op_id = session slot); the response completes the session.
  void SendRpc(std::uint32_t slot);
  // Serve a peer's RPC against the local shard; parks behind the residency
  // gate exactly like a local miss would.
  void ServeRpc(NodeId src, const RpcRequest& req);
  void OnRpcResponse(const RpcResponse& resp);
  // True when this node can neither create nor owe any protocol message.
  // Recomputed on every probe: a late announce or a credit-parked send makes
  // a halted node busy again.
  bool LocallyQuiescent() const;
  // One step of the four-counter termination protocol (control_messages.h),
  // the drain rule of every rack.  Returns true when the run loop should
  // exit: node 0 saw two identical rounds with every node quiescent and the
  // sent/processed sums equal and broadcast the halt, or we received it.
  bool StepTermination();
  // Reports this node's counters to node 0 for round owed_probe_.  Called
  // only once the node has halted: a node still issuing ops is not done, so
  // no round could succeed sooner, and a reply sent then would re-seat a
  // batch slot inside the node's allocation window.
  void AnswerProbe();
  // Issue batch: draws an op for every idle session and prefetches each
  // miss's home bucket, then its record, then issues the ops in slot order, so
  // the shard stalls of a window overlap (MICA-style memory parallelism).
  bool FillIdleSessions();
  // Stamps and routes the slot's already-drawn op.
  void IssueOp(std::uint32_t slot);
  // Routes the slot's already-generated op through the node core's hit path
  // (L1, then the symmetric cache), else the direct-shard miss path (parking
  // on the residency gate if it is up).
  void RouteOp(std::uint32_t slot);
  void RouteMissOp(std::uint32_t slot);
  // Parks the op on the shard residency gate until RetryGatedOps re-routes
  // it; `stamp` opens its gated_wait span (sampled ops only).
  void ParkGated(std::uint32_t slot, std::uint64_t stamp);
  void StartCacheWrite(std::uint32_t slot);
  void RetryParkedScWrites();
  bool RetryGatedOps();
  void CompleteOp(std::uint32_t slot, const Value& read_value, Timestamp ts,
                  Route route);
  // The slot's op now waits on the engine: a Lin write awaiting acks, or a
  // read parked on a non-Valid entry.
  void MarkEngineWait(std::uint32_t slot);
  bool AllSessionsIdle() const { return idle_sessions_ == sessions_.size(); }
  // Strictly increasing per-thread history clock (ties would make the
  // checkers' per-session invoke sort ambiguous).
  SimTime NowTs();
  // Reads every counter source of this node into one NodeCounters: the
  // core's, the host's own, the endpoint's, the shard's, the allocation
  // audit's (a thread-local count, so only the node thread may call this).
  NodeCounters CollectCounters() const;
  // Refreshes this node's WorkerCounters block (relaxed stores; profiler.h).
  void PublishCounters();
  // Opens/closes the steady-state allocation window (track_allocs_ runs).
  void PollAllocWindow();
  // The node core's view of this node: its shard, and which home shards it
  // can peek (all of them in one process, only its own when ranked).
  NodeCoreConfig CoreConfig();

  // --- hot-set subsystem (online_topk runs) ---
  // HotSetHost: the live half of the shared transition machine in topk/.
  // The manager drives write-backs, gate+fill snapshots, publication and gate
  // lifts through these; parked shard ops are retried by the run loop.
  void ApplyWriteback(const SymmetricCache::Eviction& ev) override {
    core_.ApplyWriteback(ev);
  }
  FillSnapshot GateAndSnapshot(Key key) override { return core_.GateAndSnapshot(key); }
  void PublishFills(const std::vector<FillMsg>& fills) override;
  void PublishInstalled(const EpochInstalledMsg& msg) override;
  void LiftGate(Key key) override;
  void MaybeRetryDeferred();

  // --- transition timeline (runtime/tracing.h; no-ops when untraced) ---
  // DriveAnnounce with the timeline around it: an announce instant, the
  // epoch_install span open, and a gate-span sync after the manager ran.
  void DriveAnnounceTraced(const HotSetAnnounceMsg& msg);
  // Opens a gate_closed span for every newly gated key (pending_clear_ grew
  // during DriveAnnounce/DriveDeferred); LiftGate closes them.
  void SyncGateSpans();
  // Emits the barrier_wait span once every peer's install has been seen.
  void MaybeCloseBarrier();

  LiveRack* rack_;
  NodeId id_;
  LiveTransport::Endpoint* ep_;
  WorkerCounters* pub_ = nullptr;  // this node's block in the rack's vector
  Tracer* tracer_ = nullptr;       // rack-owned; null when tracing is off

  std::unique_ptr<Partition> partition_;
  NodeCore core_;
  WorkloadGenerator gen_;

  std::vector<Session> sessions_;
  std::size_t idle_sessions_ = 0;
  // Sessions waiting on the engine (MarkEngineWait).  Under Lin, these and
  // any open batch end the issue window early (FillIdleSessions, pass 3).
  std::size_t engine_waits_ = 0;
  bool lin_ = false;  // params.consistency == kLin
  // One FillIdleSessions pass: the drawn slots in slot order, each with its
  // home shard when that shard is in this address space (else nullptr: the
  // miss goes over RPC and there is nothing to prefetch).  Reserved to the
  // session count at construction, so a pass never allocates.
  struct BatchEntry {
    std::uint32_t slot;
    const Partition* home;
  };
  std::vector<BatchEntry> issue_batch_;
  SlotRing parked_sc_writes_;
  SlotRing parked_gated_;  // ops waiting out an epoch barrier
  bool retrying_gated_ = false;  // re-parks during RetryGatedOps are not counted
  std::uint64_t quota_ = 0;
  bool halted_ = false;  // stopped issuing new ops
  bool record_history_ = false;  // cached: skips history-clock reads when off
  bool busy_poll_ = false;

  // --- steady-state allocation window (params.track_allocs) ---
  // Opens once warmup is over (a quarter of the quota completed), closes when
  // the node halts; everything the thread allocates in between is a hot-path
  // allocation.  See common/alloc_tracker.h and docs/PERFORMANCE.md.
  bool track_allocs_ = false;
  bool alloc_window_open_ = false;
  bool alloc_window_done_ = false;

  // Reused read buffer for the miss path and cache-read path; the seqlock
  // copy-out and the synthesizer both resize into it, reusing its capacity.
  Value read_scratch_;

  // --- ranked-mode state ---
  bool ranked_ = false;
  std::vector<std::uint8_t> rpc_waiting_;  // per-slot: op is out on the wire
  std::size_t rpc_outstanding_ = 0;

  // --- termination state (control_messages.h) ---
  bool coordinator_ = false;  // node 0: runs the termination probe
  bool halt_ = false;         // TermHalt seen (or sent): exit after a flush
  std::uint32_t owed_probe_ = 0;  // round of a probe not yet answered (0: none)
  // Coordinator probe-round state: statuses collected this round, and the
  // previous round's (sent, processed) per node for the two-identical-rounds
  // stability test.
  std::uint32_t term_round_ = 0;
  bool round_open_ = false;
  std::vector<TermStatusMsg> round_status_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> prev_counts_;
  bool prev_valid_ = false;
  SimTime last_probe_ns_ = 0;

  // --- transition-timeline state (traced online_topk runs only; these maps
  // may allocate, which is fine: the zero-alloc audit runs epochs off) ---
  std::uint64_t install_start_cycles_ = 0;  // open epoch_install span
  std::uint64_t install_epoch_ = 0;
  std::uint64_t barrier_start_cycles_ = 0;  // open barrier_wait span
  std::uint64_t barrier_epoch_ = 0;
  std::unordered_map<Key, std::pair<std::uint64_t, std::uint64_t>>
      gate_spans_;  // gated key -> {raise stamp, epoch}

  NodeCounters counts_;    // the counters this host bumps itself
  NodeCounters counters_;  // CollectCounters() as the thread left Run
  Histogram latency_;
  std::vector<HistoryOp> history_;
  SimTime last_ts_ = 0;
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_LIVE_NODE_H_
