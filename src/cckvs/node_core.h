// The per-node ccKVS machine (§4-§5): the symmetric cache with its per-key
// SC/Lin coherence engine, the optional hot-set manager, and the node-private
// L1 tail with its admission sketch.
//
// RackNode (the sim, cckvs/rack.cc), LiveNode (runtime/live_node.cc) and the
// model checker (verify/model_checker.cc) each own one NodeCore per node and
// call it directly, so every rule that decides a per-key SC/Lin history is
// written once, and checked where it runs: the hit path, completion
// bookkeeping (counts, the PUT's second-shot L1 invalidation, L1 admission),
// inbound protocol apply, and the shard hooks of an epoch transition.  The
// hosts keep how work moves: sessions, clocks, latency/history recording,
// tracing, CPU cost, transports and credits, the miss path, gated parking and
// termination (docs/ARCHITECTURE.md, "Request flow through a ccKVS node").
//
// Synchronous and single-threaded, like the engine it owns: every call runs
// on the host's node thread.

#ifndef CCKVS_CCKVS_NODE_CORE_H_
#define CCKVS_CCKVS_NODE_CORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/cache/l1_tail.h"
#include "src/cache/symmetric_cache.h"
#include "src/cckvs/counters.h"
#include "src/common/types.h"
#include "src/protocol/engine.h"
#include "src/store/partition.h"
#include "src/topk/epoch_coordinator.h"
#include "src/topk/flat_space_saving.h"
#include "src/topk/hot_set_host.h"
#include "src/topk/hot_set_manager.h"
#include "src/workload/workload.h"

namespace cckvs {

struct NodeCoreConfig {
  NodeId self = 0;
  int num_nodes = 0;  // sharers the engine keeps coherent (1: one dedicated cache)
  // kNone: no cache tier (the Base baselines); the core only counts completions.
  ConsistencyModel consistency = ConsistencyModel::kNone;
  std::size_t cache_capacity = 0;
  std::uint32_t value_bytes = 0;
  std::size_t l1_capacity = 0;  // 0 = no L1 tail
  L1Policy l1_policy = L1Policy::kLru;
  bool online_topk = false;  // node 0 doubles as the epoch coordinator
  EpochCoordinatorConfig epoch;

  std::function<NodeId(Key)> home_of;
  std::function<Partition&(Key)> shard_of;  // this node's shard for a key homed here
  // The home shard of `key` if this host can read it directly, else nullptr.
  // Lin L1 hits revalidate against it, so Lin never admits an unpeekable key.
  std::function<const Partition*(Key)> peek_home;

  // The fields both RackParams and LiveRackParams carry under the same names.
  template <typename Params>
  static NodeCoreConfig From(const Params& p, NodeId self) {
    NodeCoreConfig c;
    c.self = self;
    c.num_nodes = p.num_nodes;
    c.consistency = p.consistency;
    c.cache_capacity = p.cache_capacity;
    c.value_bytes = p.workload.value_bytes;
    c.l1_capacity = p.l1_capacity;
    c.l1_policy = p.l1_policy;
    c.online_topk = p.online_topk;
    c.epoch.hot_set_size = p.cache_capacity;
    c.epoch.requests_per_epoch = p.topk_epoch_requests;
    c.epoch.sample_probability = p.topk_sample_probability;
    c.epoch.seed = p.seed ^ 0x70cull;
    c.epoch.adaptive = p.topk_adaptive_epochs;
    return c;
  }
};

class NodeCore {
 public:
  // Where an op is served.  Completions report kMiss, kCache or kL1 (the
  // last two count as hierarchy hits).
  enum class Route : std::uint8_t {
    kMiss,          // not cached: the host's miss path
    kCache,         // symmetric-cache hit; *value/*ts are filled
    kCacheBlocked,  // Lin read parked on a transient entry; its callback completes it
    kCacheWrite,    // PUT on a cached key: the host calls StartCacheWrite
    kL1,            // private L1 hit; *value/*ts are filled
  };

  // `sink` carries the engine's messages; `host` runs epoch transitions.
  NodeCore(NodeCoreConfig config, MessageSink* sink, HotSetHost* host);
  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  // Installs and fills the oracle hot set; under online_topk also raises the
  // residency gate of each prefilled key homed here, as an admission would.
  void PrefillHotSet(const std::vector<Key>& hot_keys);

  // --- hit path (inline: it runs on every op) ---
  // Routes an issued (or re-routed) op: a PUT drops the private copy first;
  // a GET tries the L1, then the symmetric cache.  `on_blocked` (a ReadDone
  // callable) completes a kCacheBlocked read.
  template <typename OnBlocked>
  Route RouteOp(const Op& op, Value* value, Timestamp* ts, OnBlocked&& on_blocked) {
    if (op.type == OpType::kPut) {
      // Write-through-invalidate: the private copy dies before the write is
      // even routed (and even if it later parks), so a later read by this
      // node cannot see the old value.
      InvalidateL1(op.key);
      return cache_->Probe(op.key) ? Route::kCacheWrite : Route::kMiss;
    }
    if (l1_ != nullptr && TryServeFromL1(op.key, value, ts)) {
      return Route::kL1;
    }
    if (!cache_->Probe(op.key)) {
      return Route::kMiss;
    }
    return CacheRead(op.key, value, ts, std::forward<OnBlocked>(on_blocked));
  }
  // Engine read of a key the symmetric cache holds: kCache or kCacheBlocked.
  template <typename OnBlocked>
  Route CacheRead(Key key, Value* value, Timestamp* ts, OnBlocked&& on_blocked) {
    return engine_->Read(key, value, ts, std::forward<OnBlocked>(on_blocked)) ==
                   CoherenceEngine::ReadResult::kHit
               ? Route::kCache
               : Route::kCacheBlocked;
  }
  // Starts the engine write of a cached key.  False when the key churned out
  // of the hot set since routing: the host takes the miss path instead.
  bool StartCacheWrite(Key key, const Value& value, CoherenceEngine::WriteDone done);

  // --- completion: counts, second-shot PUT invalidation, L1 admission ---
  void CompleteOp(const Op& op, Route route, const Value& read_value, Timestamp ts);

  // --- inbound protocol apply (all but acks drop the key's private copy) ---
  void OnUpdate(NodeId from, const UpdateMsg& msg);
  void OnInvalidate(NodeId from, const InvalidateMsg& msg);
  void OnAck(NodeId from, const AckMsg& msg);
  void ApplyFill(const FillMsg& fill);
  void ApplyAnnounce(const HotSetAnnounceMsg& msg);
  // Re-attempts deferred evictions; true when there were any.
  bool DriveDeferred();
  // This node's shard served a write (home-side TryPut, any requester).
  void OnServedWrite(Key key) { InvalidateL1(key); }

  // --- shard hooks of an epoch transition (HotSetHost delegates here) ---
  void ApplyWriteback(const SymmetricCache::Eviction& ev);
  HotSetHost::FillSnapshot GateAndSnapshot(Key key);
  void LiftGate(Key key);

  // --- introspection ---
  bool Caches(Key key) const { return cache_ != nullptr && cache_->Find(key) != nullptr; }
  std::uint64_t completed() const { return counts_.completed; }
  // The table counters this core owns: op completions, the L1 tier's and the
  // hot-set coordinator's.  The host adds its own (cckvs/counters.h).
  NodeCounters counters() const;
  const SymmetricCache* cache() const { return cache_.get(); }
  const CoherenceEngine* engine() const { return engine_.get(); }
  const HotSetManager* hot_set_manager() const { return hot_mgr_.get(); }
  HotSetManager* hot_set_manager() { return hot_mgr_.get(); }
  const L1TailCache* l1() const { return l1_.get(); }

 private:
  bool TryServeFromL1(Key key, Value* value, Timestamp* ts);
  void MaybeAdmitToL1(Key key, const Value& value, Timestamp ts);
  void InvalidateL1(Key key) {
    if (l1_ != nullptr) {
      l1_->Invalidate(key);
    }
  }

  NodeCoreConfig config_;
  std::unique_ptr<SymmetricCache> cache_;   // null under ConsistencyModel::kNone
  std::unique_ptr<CoherenceEngine> engine_;
  std::unique_ptr<HotSetManager> hot_mgr_;  // online_topk runs only
  // Node-private L1 tail (l1_capacity > 0), disjoint from the symmetric tier.
  std::unique_ptr<L1TailCache> l1_;
  std::unique_ptr<FlatSpaceSaving> l1_sketch_;
  std::uint64_t l1_offers_ = 0;  // drives the sketch decay cadence

  NodeCounters counts_;  // the completion counters CompleteOp bumps
};

}  // namespace cckvs

#endif  // CCKVS_CCKVS_NODE_CORE_H_
