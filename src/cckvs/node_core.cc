#include "src/cckvs/node_core.h"

#include <utility>

#include "src/common/check.h"

namespace cckvs {

NodeCore::NodeCore(NodeCoreConfig config, MessageSink* sink, HotSetHost* host)
    : config_(std::move(config)) {
  const NodeCoreConfig& c = config_;
  if (c.consistency == ConsistencyModel::kNone) {
    return;  // baseline node: no cache tier
  }
  cache_ = std::make_unique<SymmetricCache>(c.cache_capacity);
  if (c.consistency == ConsistencyModel::kLin) {
    engine_ = std::make_unique<LinEngine>(c.self, c.num_nodes, cache_.get(), sink);
  } else {
    CCKVS_CHECK(c.consistency == ConsistencyModel::kSc);
    engine_ = std::make_unique<ScEngine>(c.self, c.num_nodes, cache_.get(), sink);
  }
  engine_->PrewarmScratch(c.value_bytes);

  if (c.l1_capacity > 0) {
    l1_ = std::make_unique<L1TailCache>(c.l1_capacity, c.l1_policy, c.value_bytes);
    // The sketch needs headroom over the L1 so candidates can out-count
    // residents before one is admitted.
    l1_sketch_ = std::make_unique<FlatSpaceSaving>(c.l1_capacity * 2);
  }

  if (c.online_topk) {
    HotSetManagerConfig hc;
    hc.self = c.self;
    hc.num_nodes = c.num_nodes;
    hc.coordinator = c.self == 0;
    hc.epoch = c.epoch;
    hc.home_of = c.home_of;
    hot_mgr_ = std::make_unique<HotSetManager>(hc, cache_.get(), engine_.get(), host);
  }
}

void NodeCore::PrefillHotSet(const std::vector<Key>& hot_keys) {
  cache_->InstallHotSet(hot_keys);
  for (const Key key : hot_keys) {
    cache_->Fill(key, SynthesizeValue(key, config_.value_bytes), Timestamp{0, 0});
  }
  if (hot_mgr_ == nullptr) {
    return;
  }
  for (const Key key : hot_keys) {
    if (config_.home_of(key) == config_.self) {
      config_.shard_of(key).MarkCacheResident(key);
    }
  }
  if (hot_mgr_->coordinator()) {
    // Keys the first epoch drops from the oracle set must settle like any
    // published eviction before they are eligible for re-admission.
    hot_mgr_->SeedPublished(hot_keys);
  }
}

bool NodeCore::StartCacheWrite(Key key, const Value& value,
                               CoherenceEngine::WriteDone done) {
  if (cache_->Find(key) == nullptr) {
    return false;
  }
  engine_->Write(key, value, std::move(done));
  return true;
}

bool NodeCore::TryServeFromL1(Key key, Value* value, Timestamp* ts) {
  if (!l1_->Get(key, value, ts)) {
    return false;
  }
  if (config_.consistency == ConsistencyModel::kLin) {
    // Lin: a hit only counts if the home shard still holds the exact write we
    // cached — (clock, writer) uniquely identifies a write, so a timestamp
    // match means same value, and the peek instant is the linearization
    // point, exactly as a real shard Get would be.  A resident flag means the
    // symmetric tier owns the key now; either way the private copy dies and
    // the op falls through to the ordinary paths.  SC needs no validation: a
    // private copy only ever lags, which per-session timestamp monotonicity
    // allows (local writes invalidate synchronously).
    const Partition* home = config_.peek_home(key);
    CCKVS_CHECK(home != nullptr);  // admission only takes peekable keys
    Timestamp home_ts;
    bool resident = false;
    const bool ok = home->PeekTimestamp(key, &home_ts, &resident);
    CCKVS_CHECK(ok);  // the shard synthesizer makes every key peekable
    if (resident || !(home_ts == *ts)) {
      l1_->Invalidate(key);
      return false;
    }
  }
  return true;
}

NodeCounters NodeCore::counters() const {
  NodeCounters c = counts_;
  if (l1_ != nullptr) {
    c.l1_fills = l1_->stats().fills;
    c.l1_invalidations = l1_->stats().invalidations;
  }
  if (hot_mgr_ != nullptr) {
    c.epochs = hot_mgr_->epochs_closed();
    c.hot_set_churn = hot_mgr_->last_epoch_churn();
  }
  return c;
}

void NodeCore::CompleteOp(const Op& op, Route route, const Value& read_value,
                          Timestamp ts) {
  CCKVS_DCHECK(route == Route::kMiss || route == Route::kCache || route == Route::kL1);
  ++counts_.completed;
  if (route == Route::kMiss) {
    ++counts_.miss_completed;
  } else {
    ++counts_.hit_completed;
    if (route == Route::kL1) {
      ++counts_.l1_hits;
    }
  }
  if (l1_ == nullptr) {
    return;
  }
  if (op.type == OpType::kPut) {
    // Invalidate AGAIN at completion, not just at routing: a concurrent
    // session's in-flight GET may have read the shard before this write and
    // refilled the L1 after the routing-time invalidation.  Delivery is FIFO
    // per peer pair, so any such stale response was delivered — and its fill
    // applied — before this write's own response; dropping the key here
    // therefore kills every fill the write could have raced.
    l1_->Invalidate(op.key);
  } else if (route == Route::kMiss) {
    // The miss path just produced an authoritative (value, ts) — the only
    // kind of read the L1 admits.
    MaybeAdmitToL1(op.key, read_value, ts);
  }
}

void NodeCore::MaybeAdmitToL1(Key key, const Value& value, Timestamp ts) {
  if (config_.consistency == ConsistencyModel::kLin &&
      config_.peek_home(key) == nullptr) {
    return;  // Lin hits revalidate against the home shard; it must be readable
  }
  std::uint64_t guaranteed = 0;
  l1_sketch_->Offer(key, &guaranteed);
  if (++l1_offers_ % (l1_sketch_->capacity() * 8) == 0) {
    // Age the sketch so a key that WAS locally hot cannot squat on a counter
    // forever once per-node popularity drifts.
    l1_sketch_->DecayHalve();
  }
  if (guaranteed < 2) {
    // Gate on PROVEN sightings (count - error), not the estimate: a saturated
    // sketch hands every newcomer the evicted minimum as its estimate, and
    // admitting on that would fill the L1 with one-hit tail keys — churn that
    // evicts the genuinely hot-here entries and burns fill CPU for no reuse.
    return;
  }
  if (cache_->Find(key) != nullptr) {
    return;  // tier exclusivity: the symmetric tier already owns it
  }
  l1_->Fill(key, value, ts);
}

void NodeCore::OnUpdate(NodeId from, const UpdateMsg& msg) {
  // Write-through-invalidate: a consistency update proves the key was written
  // somewhere; the private copy must not outlive it.
  InvalidateL1(msg.key);
  if (cache_->Find(msg.key) != nullptr) {
    engine_->OnUpdate(from, msg);
  } else if (config_.home_of(msg.key) == config_.self) {
    // The key churned out of the hot set mid-write: complete the write-back
    // directly into the home shard.
    config_.shard_of(msg.key).Apply(msg.key, msg.value, msg.ts);
  } else if (hot_mgr_ != nullptr) {
    // Uncached and homed elsewhere: our membership lags an announce in
    // flight.  Remember the update so a stashed fill cannot resurrect an
    // older value (hot_set_manager.h, fill-vs-announce race).
    hot_mgr_->NoteUncachedUpdate(msg.key, msg.value, msg.ts);
  }
}

void NodeCore::OnInvalidate(NodeId from, const InvalidateMsg& msg) {
  InvalidateL1(msg.key);
  if (hot_mgr_ != nullptr && cache_->Find(msg.key) == nullptr) {
    hot_mgr_->NoteUncachedInvalidate(msg.key, msg.ts);
  }
  engine_->OnInvalidate(from, msg);  // acks unconditionally, even if cold
}

void NodeCore::OnAck(NodeId from, const AckMsg& msg) { engine_->OnAck(from, msg); }

void NodeCore::ApplyFill(const FillMsg& fill) {
  InvalidateL1(fill.key);  // the key is entering the symmetric tier
  if (hot_mgr_ != nullptr) {
    hot_mgr_->ApplyFill(fill);
  }
}

void NodeCore::ApplyAnnounce(const HotSetAnnounceMsg& msg) {
  if (hot_mgr_ == nullptr) {
    return;
  }
  // Tier exclusivity: any key the rack just promoted to the symmetric hot set
  // leaves the private tail (the symmetric copy becomes authoritative).
  for (const Key key : msg.keys) {
    InvalidateL1(key);
  }
  hot_mgr_->DriveAnnounce(msg);  // executes the transition via the host hooks
}

bool NodeCore::DriveDeferred() {
  if (hot_mgr_ == nullptr || !hot_mgr_->HasDeferred()) {
    return false;
  }
  hot_mgr_->DriveDeferred();
  return true;
}

void NodeCore::ApplyWriteback(const SymmetricCache::Eviction& ev) {
  // §4: "only the node containing the shard with the evicted key needs to ...
  // update the underlying KVS"; symmetric contents make the local copy
  // sufficient.  The write-back may carry a value newer than a private copy
  // taken while the key was still shard-resident.
  InvalidateL1(ev.key);
  config_.shard_of(ev.key).Apply(ev.key, ev.value, ev.ts);
}

HotSetHost::FillSnapshot NodeCore::GateAndSnapshot(Key key) {
  // Raise the shard residency gate and snapshot the fill atomically: any
  // direct shard write lands entirely before the snapshot or is refused after
  // it, so the cache era starts from an authoritative value.
  const Partition::ResidentSnapshot snap = config_.shard_of(key).MarkCacheResident(key);
  return HotSetHost::FillSnapshot{snap.value, snap.ts};
}

void NodeCore::LiftGate(Key key) { config_.shard_of(key).ClearCacheResident(key); }

}  // namespace cckvs
