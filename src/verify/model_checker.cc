#include "src/verify/model_checker.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/cckvs/node_core.h"
#include "src/common/check.h"
#include "src/store/partition.h"
#include "src/workload/workload.h"

namespace cckvs {
namespace {

// Initial values are the production synthesizer's, one byte wide: narrow
// values keep the canonical encodings (the visited set's keys) short.
constexpr std::uint32_t kValueBytes = 1;

// Encodings write values length-prefixed: synthesized bytes may contain the
// separators.
struct Prefixed {
  const Value& v;
};
std::ostream& operator<<(std::ostream& os, Prefixed p) {
  return os << p.v.size() << ':' << p.v;
}

// A core as the hosts configure one, without an L1 tail and with 1-byte values.
NodeCoreConfig CoreConfig(int self, int num_nodes, ConsistencyModel model,
                          std::size_t cache_capacity) {
  NodeCoreConfig c;
  c.self = static_cast<NodeId>(self);
  c.num_nodes = num_nodes;
  c.consistency = model;
  c.cache_capacity = cache_capacity;
  c.value_bytes = kValueBytes;
  return c;
}

template <typename... Args>
std::string Format(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

constexpr Key kKey = 0xcafe;

// An in-flight protocol message.  The fabric is modelled as a multiset: UD
// provides no ordering, so any in-flight message may be delivered next.
struct Msg {
  enum class Type : std::uint8_t { kInv = 0, kAck = 1, kUpd = 2 };
  Type type;
  NodeId from;
  NodeId to;
  Timestamp ts;
  std::string value;  // updates only

  // Canonical order, so action enumeration is deterministic across replays.
  friend bool operator<(const Msg& a, const Msg& b) {
    return std::tie(a.type, a.from, a.to, a.ts, a.value) <
           std::tie(b.type, b.from, b.to, b.ts, b.value);
  }
  friend bool operator==(const Msg&, const Msg&) = default;
};

struct Action {
  enum class Kind : std::uint8_t { kStartWrite, kDeliver };
  Kind kind;
  int arg;  // node id for kStartWrite; in-flight index for kDeliver
};

// The complete protocol world: N production NodeCores (Lin, one cached key,
// no hot-set manager), plus the in-flight message multiset and verification
// bookkeeping.
class World {
 public:
  using ActionType = Action;

  explicit World(const ModelCheckerConfig& config)
      : config_(config), writes_remaining_(config.total_writes) {
    for (int i = 0; i < config.num_nodes; ++i) {
      sinks_.push_back(std::make_unique<Sink>(this, static_cast<NodeId>(i)));
      // The key never leaves the cache, so the core needs no home shard.
      cores_.push_back(std::make_unique<NodeCore>(
          CoreConfig(i, config.num_nodes, ConsistencyModel::kLin, 1),
          sinks_.back().get(), nullptr));
      cores_.back()->PrefillHotSet({kKey});
      writes_issued_by_.push_back(0);
    }
    value_of_ts_[Timestamp{0, 0}] = SynthesizeValue(kKey, kValueBytes);
  }

  // --- Action enumeration (deterministic) ---
  std::vector<Action> EnabledActions() const {
    std::vector<Action> actions;
    if (writes_remaining_ > 0) {
      for (int i = 0; i < config_.num_nodes; ++i) {
        if (!Entry(i).write_in_flight) {
          actions.push_back(Action{Action::Kind::kStartWrite, i});
        }
      }
    }
    for (int m = 0; m < static_cast<int>(in_flight_.size()); ++m) {
      actions.push_back(Action{Action::Kind::kDeliver, m});
    }
    return actions;
  }

  // Applies one action; returns false (setting failure_) on invariant breach.
  bool Apply(const Action& action) {
    std::vector<Timestamp> before = SnapshotTimestamps();
    if (action.kind == Action::Kind::kStartWrite) {
      if (!StartWrite(static_cast<NodeId>(action.arg))) {
        return false;
      }
    } else {
      CCKVS_CHECK_LT(static_cast<std::size_t>(action.arg), in_flight_.size());
      const Msg msg = in_flight_[static_cast<std::size_t>(action.arg)];
      in_flight_.erase(in_flight_.begin() + action.arg);
      Deliver(msg);
    }
    // I2: per-node timestamp monotonicity across every transition.
    std::vector<Timestamp> after = SnapshotTimestamps();
    for (int i = 0; i < config_.num_nodes; ++i) {
      if (after[static_cast<std::size_t>(i)] < before[static_cast<std::size_t>(i)]) {
        failure_ = Format("I2 violation: node ", i, " timestamp regressed");
        return false;
      }
    }
    return CheckDataValueInvariant();
  }

  // I1: Valid (and Invalid) entries carry timestamps of known writes; Valid
  // entries hold exactly that write's value.
  bool CheckDataValueInvariant() {
    for (int i = 0; i < config_.num_nodes; ++i) {
      const CacheEntry& entry = Entry(i);
      auto it = value_of_ts_.find(entry.ts());
      if (it == value_of_ts_.end()) {
        failure_ = Format("I1 violation: node ", i, " holds unknown timestamp");
        return false;
      }
      if (entry.state() == CacheState::kValid && entry.value != it->second) {
        failure_ = Format("I1 violation: node ", i,
                          " Valid value does not match its timestamp's write");
        return false;
      }
    }
    return true;
  }

  // I5: terminal states must be fully converged.
  bool CheckTerminal() {
    if (!in_flight_.empty()) {
      failure_ = "I4 violation: messages in flight but no enabled action";
      return false;
    }
    if (completed_writes_ != total_started_) {
      failure_ = "I4 violation (deadlock): started writes never completed";
      return false;
    }
    Timestamp max_ts{0, 0};
    for (const auto& [ts, value] : value_of_ts_) {
      max_ts = std::max(max_ts, ts);
    }
    for (int i = 0; i < config_.num_nodes; ++i) {
      const CacheEntry& entry = Entry(i);
      if (entry.state() != CacheState::kValid) {
        failure_ = Format("I5 violation: node ", i, " not Valid at quiescence");
        return false;
      }
      if (entry.ts() != max_ts || entry.value != value_of_ts_[max_ts]) {
        failure_ = Format("I5 violation: node ", i, " did not converge to max write");
        return false;
      }
      if (!cores_[static_cast<std::size_t>(i)]->engine()->Quiescent()) {
        failure_ = Format("I5 violation: node ", i, " engine not quiescent");
        return false;
      }
    }
    return true;
  }

  // Canonical state encoding for the visited set.
  std::string Encode() const {
    std::ostringstream os;
    for (int i = 0; i < config_.num_nodes; ++i) {
      const CacheEntry& e = Entry(i);
      os << 'N' << e.header.version << ',' << static_cast<int>(e.header.last_writer)
         << ',' << static_cast<int>(e.header.state) << ','
         << static_cast<int>(e.header.ack_count) << ',' << e.write_in_flight << ','
         << e.superseded << ',' << e.has_shadow << ',' << Prefixed{e.value} << ','
         << e.pending_ts << ',' << Prefixed{e.pending_value} << ',' << e.shadow_ts
         << ',' << Prefixed{e.shadow_value} << ';'
         << writes_issued_by_[static_cast<std::size_t>(i)] << ';';
    }
    os << 'B' << writes_remaining_ << ';' << max_completed_ << ';';
    std::vector<Msg> sorted = in_flight_;
    std::sort(sorted.begin(), sorted.end());
    for (const Msg& m : sorted) {
      os << 'M' << static_cast<int>(m.type) << ',' << static_cast<int>(m.from) << ','
         << static_cast<int>(m.to) << ',' << m.ts << ',' << Prefixed{m.value} << ';';
    }
    return os.str();
  }

  const std::string& failure() const { return failure_; }

 private:
  class Sink final : public MessageSink {
   public:
    Sink(World* world, NodeId self) : world_(world), self_(self) {}
    void BroadcastUpdate(const UpdateMsg& msg) override {
      for (int j = 0; j < world_->config_.num_nodes; ++j) {
        if (j != self_) {
          world_->in_flight_.push_back(Msg{Msg::Type::kUpd, self_,
                                           static_cast<NodeId>(j), msg.ts, msg.value});
        }
      }
    }
    void BroadcastInvalidate(const InvalidateMsg& msg) override {
      for (int j = 0; j < world_->config_.num_nodes; ++j) {
        if (j != self_) {
          world_->in_flight_.push_back(
              Msg{Msg::Type::kInv, self_, static_cast<NodeId>(j), msg.ts, {}});
        }
      }
    }
    void SendAck(NodeId to, const AckMsg& msg) override {
      world_->in_flight_.push_back(Msg{Msg::Type::kAck, self_, to, msg.ts, {}});
    }

   private:
    World* world_;
    NodeId self_;
  };

  const CacheEntry& Entry(int node) const {
    return *cores_[static_cast<std::size_t>(node)]->cache()->Find(kKey);
  }

  std::vector<Timestamp> SnapshotTimestamps() const {
    std::vector<Timestamp> ts;
    for (int i = 0; i < config_.num_nodes; ++i) {
      ts.push_back(Entry(i).ts());
    }
    return ts;
  }

  // A client PUT, issued as LiveNode issues one: routed by the core, started
  // as a cache write, completed through the core's bookkeeping.
  bool StartWrite(NodeId node) {
    CCKVS_CHECK_GT(writes_remaining_, 0);
    --writes_remaining_;
    ++total_started_;
    const int idx = writes_issued_by_[node]++;
    const Op op{OpType::kPut, kKey, Format("w", static_cast<int>(node), ":", idx)};
    NodeCore& core = *cores_[node];
    Value unused;
    Timestamp unused_ts;
    CCKVS_CHECK(core.RouteOp(op, &unused, &unused_ts, [](const Value&, Timestamp) {}) ==
                NodeCore::Route::kCacheWrite);
    CCKVS_CHECK(core.StartCacheWrite(op.key, op.value, [this, node, op](Timestamp ts) {
      cores_[node]->CompleteOp(op, NodeCore::Route::kCache, op.value, ts);
      max_completed_ = std::max(max_completed_, ts);
      ++completed_writes_;
    }));
    const Timestamp assigned = Entry(node).pending_ts;
    // I3: real-time ordering — a write issued now must be timestamped above
    // every already-completed write.
    if (!(assigned > max_completed_)) {
      failure_ = Format("I3 violation: node ", static_cast<int>(node),
                        " issued ts not above a completed write's ts");
      return false;
    }
    if (assigned.clock > static_cast<std::uint32_t>(config_.max_clock)) {
      failure_ = "timestamp bound exceeded";
      return false;
    }
    CCKVS_CHECK(value_of_ts_.emplace(assigned, op.value).second);
    return true;
  }

  void Deliver(const Msg& msg) {
    NodeCore& core = *cores_[msg.to];
    switch (msg.type) {
      case Msg::Type::kInv:
        core.OnInvalidate(msg.from, InvalidateMsg{kKey, msg.ts});
        break;
      case Msg::Type::kAck:
        core.OnAck(msg.from, AckMsg{kKey, msg.ts});
        break;
      case Msg::Type::kUpd:
        core.OnUpdate(msg.from, UpdateMsg{kKey, msg.value, msg.ts});
        break;
    }
  }

  struct TimestampHash {
    std::size_t operator()(const Timestamp& t) const {
      return (static_cast<std::size_t>(t.clock) << 8) | t.writer;
    }
  };

  ModelCheckerConfig config_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::unique_ptr<NodeCore>> cores_;
  std::vector<Msg> in_flight_;
  std::vector<int> writes_issued_by_;
  int writes_remaining_ = 0;
  int total_started_ = 0;
  int completed_writes_ = 0;
  Timestamp max_completed_{0, 0};
  std::unordered_map<Timestamp, std::string, TimestampHash> value_of_ts_;
  std::string failure_;
};

// ===========================================================================
// Epoch-transition scope (§4 machinery under the §5.2 method)
// ===========================================================================

// Two keys: kKeyOut is hot in epoch 0 and evicted by the scope's announce;
// kKeyIn is admitted.  home_of(key) = key % num_nodes, so kKeyOut homes at
// node 0 and kKeyIn at node 1.
constexpr Key kKeyOut = 0;
constexpr Key kKeyIn = 1;

// One message on a per-(src,dst) FIFO lane.  Both production transports are
// FIFO per peer pair across every class (the live channel by construction,
// the simulated fabric because all classes share the same four stations), and
// the install barrier depends on exactly that; lanes interleave freely.
struct TMsg {
  enum class Type : std::uint8_t { kInv = 0, kAck, kUpd, kFill, kInstalled };
  Type type;
  Key key = 0;
  Timestamp ts{};
  std::string value;        // updates and fills
  std::uint64_t epoch = 0;  // fills and install confirmations
};

struct TAction {
  enum class Kind : std::uint8_t { kAnnounce, kDeliver, kStart, kRetry };
  Kind kind;
  int a = 0;  // node (kAnnounce), src (kDeliver), op index (kStart/kRetry)
  int b = 0;  // dst (kDeliver)
};

// N production NodeCores (cache, engine and hot-set manager each) over N
// store::Partition shards, driven as LiveNode drives its core: inbound
// messages through the core's apply calls, client ops through its RouteOp,
// epoch transitions through the HotSetHost hooks.  The world keeps only host
// code: the lanes, the direct-shard miss path with gate parking, and the
// verification bookkeeping.
class TransitionWorld {
 public:
  using ActionType = TAction;

  explicit TransitionWorld(const TransitionScopeConfig& config)
      : config_(config),
        announce_{1, {kKeyIn}},
        lanes_(static_cast<std::size_t>(config.num_nodes) *
               static_cast<std::size_t>(config.num_nodes)) {
    CCKVS_CHECK_GE(config.num_nodes, 2);
    CCKVS_CHECK_LE(config.puts, 4);
    CCKVS_CHECK_LE(config.gets, 4);
    const int n = config.num_nodes;
    for (int i = 0; i < n; ++i) {
      PartitionConfig pc;
      pc.buckets = 16;
      pc.node_id = static_cast<NodeId>(i);
      pc.synthesize = [](Key key) { return SynthesizeValue(key, kValueBytes); };
      partitions_.push_back(std::make_unique<Partition>(pc));
      hosts_.push_back(std::make_unique<NodeHost>(this, static_cast<NodeId>(i)));
      NodeCoreConfig c = CoreConfig(i, n, config.model, 2);
      // Node 0 also holds the coordinator role; the scope injects the
      // announce itself, so only its member role is exercised.
      c.online_topk = true;
      c.epoch.hot_set_size = c.cache_capacity;  // as NodeCoreConfig::From sizes it
      c.home_of = [this](Key key) { return HomeOf(key); };
      Partition* shard = partitions_.back().get();
      c.shard_of = [shard](Key) -> Partition& { return *shard; };
      cores_.push_back(
          std::make_unique<NodeCore>(c, hosts_.back().get(), hosts_.back().get()));
      // Epoch-0 steady state: kKeyOut cached everywhere, its shard gate up at
      // its home, exactly as both hosts prefill a hot set.
      cores_.back()->PrefillHotSet({kKeyOut});
    }
    announce_pending_.assign(static_cast<std::size_t>(n), true);
    value_of_[{kKeyOut, Timestamp{0, 0}}] = SynthesizeValue(kKeyOut, kValueBytes);
    value_of_[{kKeyIn, Timestamp{0, 0}}] = SynthesizeValue(kKeyIn, kValueBytes);

    // Client op templates, spread across nodes and both keys.  Which path an
    // op takes (cache, shard, or parked-on-the-gate) depends on when the
    // exploration starts it relative to the transition — that is the point.
    for (int t = 0; t < config.puts; ++t) {
      OpRec rec;
      rec.node = static_cast<NodeId>((n - 1 + t) % n);
      rec.op = Op{OpType::kPut, t % 2 == 0 ? kKeyOut : kKeyIn,
                  Format("p", t, "@n", static_cast<int>(rec.node))};
      recs_.push_back(std::move(rec));
    }
    for (int t = 0; t < config.gets; ++t) {
      OpRec rec;
      rec.node = static_cast<NodeId>((n - 1 + t) % n);
      rec.op = Op{OpType::kGet, t % 2 == 0 ? kKeyOut : kKeyIn, {}};
      recs_.push_back(std::move(rec));
    }
  }

  std::vector<TAction> EnabledActions() const {
    std::vector<TAction> actions;
    for (int i = 0; i < config_.num_nodes; ++i) {
      if (announce_pending_[static_cast<std::size_t>(i)]) {
        actions.push_back(TAction{TAction::Kind::kAnnounce, i, 0});
      }
    }
    for (int src = 0; src < config_.num_nodes; ++src) {
      for (int dst = 0; dst < config_.num_nodes; ++dst) {
        if (src != dst && !Lane(src, dst).empty()) {
          actions.push_back(TAction{TAction::Kind::kDeliver, src, dst});
        }
      }
    }
    for (int idx = 0; idx < static_cast<int>(recs_.size()); ++idx) {
      const OpRec& rec = recs_[static_cast<std::size_t>(idx)];
      if (rec.st == OpRec::St::kReady) {
        actions.push_back(TAction{TAction::Kind::kStart, idx, 0});
      } else if (rec.st == OpRec::St::kParked && RetryEnabled(rec)) {
        actions.push_back(TAction{TAction::Kind::kRetry, idx, 0});
      }
    }
    return actions;
  }

  bool Apply(const TAction& action) {
    const std::vector<Timestamp> before = SnapshotCacheTimestamps();
    switch (action.kind) {
      case TAction::Kind::kAnnounce:
        announce_pending_[static_cast<std::size_t>(action.a)] = false;
        cores_[static_cast<std::size_t>(action.a)]->ApplyAnnounce(announce_);
        break;
      case TAction::Kind::kDeliver: {
        auto& lane = Lane(action.a, action.b);
        CCKVS_CHECK(!lane.empty());
        const TMsg msg = lane.front();
        lane.pop_front();
        Deliver(static_cast<NodeId>(action.a), static_cast<NodeId>(action.b), msg);
        break;
      }
      case TAction::Kind::kStart:
      case TAction::Kind::kRetry:
        RouteOp(action.a);
        break;
    }
    if (!failure_.empty()) {
      return false;
    }
    return CheckInvariants(before);
  }

  bool CheckTerminal() {
    for (const auto& lane : lanes_) {
      if (!lane.empty()) {
        failure_ = "deadlock: messages in flight but no enabled action";
        return false;
      }
    }
    for (std::size_t idx = 0; idx < recs_.size(); ++idx) {
      if (recs_[idx].st != OpRec::St::kDone) {
        failure_ = Format("deadlock: op ", idx, " never completed (",
                          recs_[idx].st == OpRec::St::kParked
                              ? "parked on a gate that never lifted"
                              : "blocked in the protocol",
                          ")");
        return false;
      }
    }
    const Timestamp want_in = MaxWriteTs(kKeyIn);
    for (int i = 0; i < config_.num_nodes; ++i) {
      const NodeCore& core = *cores_[static_cast<std::size_t>(i)];
      const HotSetManager& mgr = *core.hot_set_manager();
      if (!core.engine()->Quiescent()) {
        failure_ = Format("node ", i, " engine not quiescent at termination");
        return false;
      }
      if (mgr.HasDeferred()) {
        failure_ = Format("node ", i, " still holds deferred evictions");
        return false;
      }
      if (mgr.installed_epoch() != announce_.epoch) {
        failure_ = Format("node ", i, " never installed the epoch");
        return false;
      }
      if (mgr.ShardGated(kKeyOut) || mgr.ShardGated(kKeyIn)) {
        failure_ = Format("node ", i, " barrier never settled (gate still pending)");
        return false;
      }
      if (core.Caches(kKeyOut)) {
        failure_ = Format("node ", i, " still caches the evicted key");
        return false;
      }
      const CacheEntry* e = core.cache()->Find(kKeyIn);
      if (e == nullptr || e->state() != CacheState::kValid) {
        failure_ = Format("node ", i, " admitted key not Valid at quiescence");
        return false;
      }
      if (e->ts() != want_in || e->value != value_of_[{kKeyIn, want_in}]) {
        failure_ = Format("node ", i, " did not converge to the admitted key's ",
                          "maximal write");
        return false;
      }
    }
    // The evicted key's shard is authoritative again: gate down, value = the
    // maximal write any era produced.
    {
      Value v;
      Timestamp ts;
      bool resident = false;
      CCKVS_CHECK(partitions_[HomeOf(kKeyOut)]->Get(kKeyOut, &v, &ts, &resident));
      if (resident) {
        failure_ = "evicted key's residency gate still up at quiescence";
        return false;
      }
      const Timestamp want_out = MaxWriteTs(kKeyOut);
      if (ts != want_out || v != value_of_[{kKeyOut, want_out}]) {
        failure_ = "evicted key's shard did not converge to its maximal write";
        return false;
      }
    }
    // The admitted key's cached era is active: its shard gate must be up.
    {
      Value v;
      Timestamp ts;
      bool resident = false;
      CCKVS_CHECK(partitions_[HomeOf(kKeyIn)]->Get(kKeyIn, &v, &ts, &resident));
      if (!resident) {
        failure_ = "admitted key's residency gate not raised at quiescence";
        return false;
      }
    }
    return true;
  }

  std::string Encode() const {
    std::ostringstream os;
    for (int i = 0; i < config_.num_nodes; ++i) {
      const NodeCore& core = *cores_[static_cast<std::size_t>(i)];
      os << 'N' << i << ':';
      for (const Key key : {kKeyOut, kKeyIn}) {
        const CacheEntry* e = core.cache()->Find(key);
        if (e == nullptr) {
          os << "-;";
          continue;
        }
        os << e->header.version << ',' << static_cast<int>(e->header.last_writer)
           << ',' << static_cast<int>(e->header.state) << ','
           << static_cast<int>(e->header.ack_count) << ',' << e->write_in_flight
           << ',' << e->superseded << ',' << e->has_shadow << ',' << Prefixed{e->value}
           << ',' << e->value_ts << ',' << e->pending_ts << ','
           << Prefixed{e->pending_value} << ',' << e->shadow_ts << ','
           << Prefixed{e->shadow_value} << ';';
      }
      const HotSetManager& mgr = *core.hot_set_manager();
      os << 'M' << mgr.target_epoch() << ',' << mgr.deferred_evictions() << ','
         << mgr.ShardGated(kKeyOut) << ',' << mgr.ShardGated(kKeyIn) << ',';
      for (int j = 0; j < config_.num_nodes; ++j) {
        os << mgr.peer_installed_epoch(static_cast<NodeId>(j)) << '/';
      }
      for (const FillMsg& f : mgr.StashedFills()) {
        os << 'S' << f.key << ',' << f.ts << ',' << Prefixed{f.value} << ',' << f.epoch
           << ';';
      }
      for (const HotSetManager::AheadTraffic& a : mgr.SeenAheadTraffic()) {
        os << 'T' << a.key << ',' << a.inv_ts << ',' << a.upd_ts << ','
           << Prefixed{a.upd_value} << ';';
      }
      os << 'A' << announce_pending_[static_cast<std::size_t>(i)] << ';';
    }
    for (const Key key : {kKeyOut, kKeyIn}) {
      Value v;
      Timestamp ts;
      bool resident = false;
      const Partition& home = *partitions_[HomeOf(key)];
      CCKVS_CHECK(home.Get(key, &v, &ts, &resident));
      os << 'P' << key << ':' << home.Contains(key) << ',' << Prefixed{v} << ',' << ts
         << ',' << resident << ';';
    }
    for (int src = 0; src < config_.num_nodes; ++src) {
      for (int dst = 0; dst < config_.num_nodes; ++dst) {
        if (src == dst) {
          continue;
        }
        os << 'L' << src << '>' << dst << ':';
        for (const TMsg& m : Lane(src, dst)) {
          os << static_cast<int>(m.type) << ',' << m.key << ',' << m.ts << ','
             << Prefixed{m.value} << ',' << m.epoch << '|';
        }
        os << ';';
      }
    }
    for (const OpRec& rec : recs_) {
      os << 'O' << static_cast<int>(rec.st) << ',' << rec.invoked << ','
         << rec.ts_known << ',' << rec.ts << ',' << rec.watermark << ';';
    }
    return os.str();
  }

  const std::string& failure() const { return failure_; }

 private:
  struct OpRec {
    NodeId node = 0;
    Op op;  // puts carry the unique value written
    enum class St : std::uint8_t { kReady, kParked, kInFlight, kDone };
    St st = St::kReady;
    Timestamp ts{};         // assigned (put) / observed (get)
    bool ts_known = false;
    bool invoked = false;
    Timestamp watermark{};  // per-key completed-op watermark at invocation
  };

  // Lanes + HotSetHost + MessageSink of one node; the shard hooks delegate to
  // the node's core, as LiveNode's do.
  class NodeHost final : public MessageSink, public HotSetHost {
   public:
    NodeHost(TransitionWorld* world, NodeId self) : world_(world), self_(self) {}

    void BroadcastUpdate(const UpdateMsg& msg) override {
      world_->PushToPeers(self_,
                          TMsg{TMsg::Type::kUpd, msg.key, msg.ts, msg.value, 0});
    }
    void BroadcastInvalidate(const InvalidateMsg& msg) override {
      world_->PushToPeers(self_, TMsg{TMsg::Type::kInv, msg.key, msg.ts, {}, 0});
    }
    void SendAck(NodeId to, const AckMsg& msg) override {
      world_->Push(self_, to, TMsg{TMsg::Type::kAck, msg.key, msg.ts, {}, 0});
    }

    void ApplyWriteback(const SymmetricCache::Eviction& ev) override {
      core().ApplyWriteback(ev);
    }
    FillSnapshot GateAndSnapshot(Key key) override { return core().GateAndSnapshot(key); }
    void PublishFills(const std::vector<FillMsg>& fills) override {
      for (const FillMsg& f : fills) {
        world_->PushToPeers(self_,
                            TMsg{TMsg::Type::kFill, f.key, f.ts, f.value, f.epoch});
      }
    }
    void PublishInstalled(const EpochInstalledMsg& msg) override {
      world_->PushToPeers(self_,
                          TMsg{TMsg::Type::kInstalled, 0, Timestamp{}, {}, msg.epoch});
    }
    void LiftGate(Key key) override { core().LiftGate(key); }

   private:
    NodeCore& core() { return *world_->cores_[self_]; }

    TransitionWorld* world_;
    NodeId self_;
  };
  friend class NodeHost;

  NodeId HomeOf(Key key) const {
    return static_cast<NodeId>(key %
                               static_cast<std::uint64_t>(config_.num_nodes));
  }

  std::deque<TMsg>& Lane(int src, int dst) {
    return lanes_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(config_.num_nodes) +
                  static_cast<std::size_t>(dst)];
  }
  const std::deque<TMsg>& Lane(int src, int dst) const {
    return lanes_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(config_.num_nodes) +
                  static_cast<std::size_t>(dst)];
  }

  void Push(NodeId src, NodeId dst, TMsg msg) {
    Lane(src, dst).push_back(std::move(msg));
  }
  void PushToPeers(NodeId src, const TMsg& msg) {
    for (int j = 0; j < config_.num_nodes; ++j) {
      if (j != src) {
        Push(src, static_cast<NodeId>(j), msg);
      }
    }
  }

  void Deliver(NodeId src, NodeId dst, const TMsg& msg) {
    NodeCore& core = *cores_[dst];
    switch (msg.type) {
      case TMsg::Type::kInv:
        core.OnInvalidate(src, InvalidateMsg{msg.key, msg.ts});
        break;
      case TMsg::Type::kAck:
        core.OnAck(src, AckMsg{msg.key, msg.ts});
        break;
      case TMsg::Type::kUpd:
        core.OnUpdate(src, UpdateMsg{msg.key, msg.value, msg.ts});
        break;
      case TMsg::Type::kFill:
        core.ApplyFill(FillMsg{msg.key, msg.value, msg.ts, msg.epoch});
        break;
      case TMsg::Type::kInstalled:
        core.hot_set_manager()->DrivePeerInstalled(src, msg.epoch);
        break;
    }
    // Hosts retry deferred evictions on every pump after protocol progress.
    core.DriveDeferred();
  }

  // True when re-routing a parked shard op can make progress: the key entered
  // this node's cache, or the home shard's gate is down.  (The live run loop
  // retries unconditionally and re-parks; enabling only productive retries
  // keeps the state space free of self-loops without losing interleavings.)
  bool RetryEnabled(const OpRec& rec) const {
    if (cores_[rec.node]->Caches(rec.op.key)) {
      return true;
    }
    Value v;
    Timestamp ts;
    bool resident = false;
    CCKVS_CHECK(partitions_[HomeOf(rec.op.key)]->Get(rec.op.key, &v, &ts, &resident));
    return !resident;
  }

  // Routes an op as LiveNode::RouteOp does: the core serves cache hits and
  // starts cache writes; everything else takes the miss path.
  void RouteOp(int idx) {
    OpRec& rec = recs_[static_cast<std::size_t>(idx)];
    if (!rec.invoked) {
      rec.invoked = true;
      rec.watermark = MaxCompletedTs(rec.op.key);
    }
    rec.st = OpRec::St::kInFlight;
    NodeCore& core = *cores_[rec.node];
    Value v;
    Timestamp ts;
    const NodeCore::Route route =
        core.RouteOp(rec.op, &v, &ts, [this, idx](const Value& rv, Timestamp rt) {
          CompleteRead(idx, rv, rt, NodeCore::Route::kCache);
        });
    switch (route) {
      case NodeCore::Route::kCache:
      case NodeCore::Route::kL1:
        CompleteRead(idx, v, ts, route);
        return;
      case NodeCore::Route::kCacheBlocked:
        return;  // the parked-reader callback completes the op
      case NodeCore::Route::kCacheWrite:
        // Routed and started in one step: the key cannot churn out between.
        CCKVS_CHECK(core.StartCacheWrite(
            rec.op.key, rec.op.value,
            [this, idx](Timestamp t) { CompletePut(idx, t, NodeCore::Route::kCache); }));
        SweepStartedPuts();  // capture the started write's timestamp
        return;
      case NodeCore::Route::kMiss:
        break;
    }
    // Direct shard access through the residency gate, as the hosts' miss
    // paths do: a gated op parks until RetryEnabled.
    Partition& home = *partitions_[HomeOf(rec.op.key)];
    if (rec.op.type == OpType::kPut) {
      if (!home.TryPut(rec.op.key, rec.op.value, &ts)) {
        rec.st = OpRec::St::kParked;
        return;
      }
      AssignPutTs(idx, ts);
      if (failure_.empty()) {
        CompletePut(idx, ts, NodeCore::Route::kMiss);
      }
      return;
    }
    bool resident = false;
    CCKVS_CHECK(home.Get(rec.op.key, &v, &ts, &resident));
    if (resident) {
      rec.st = OpRec::St::kParked;
      return;
    }
    CompleteRead(idx, v, ts, NodeCore::Route::kMiss);
  }

  void AssignPutTs(int idx, Timestamp ts) {
    OpRec& rec = recs_[static_cast<std::size_t>(idx)];
    rec.ts = ts;
    rec.ts_known = true;
    if (ts.clock > static_cast<std::uint32_t>(config_.max_clock)) {
      failure_ = "timestamp bound exceeded";
      return;
    }
    if (!value_of_.emplace(std::make_pair(rec.op.key, ts), rec.op.value).second) {
      failure_ = Format("duplicate timestamp assigned to key ", rec.op.key,
                        " (two writes share a Lamport timestamp)");
    }
  }

  // `ts` is the write's timestamp (the engine's done callback supplies it).
  void CompletePut(int idx, Timestamp ts, NodeCore::Route route) {
    OpRec& rec = recs_[static_cast<std::size_t>(idx)];
    if (!rec.ts_known) {
      AssignPutTs(idx, ts);
      if (!failure_.empty()) {
        return;
      }
    }
    rec.st = OpRec::St::kDone;
    cores_[rec.node]->CompleteOp(rec.op, route, rec.op.value, rec.ts);
    if (config_.model == ConsistencyModel::kLin && !(rec.ts > rec.watermark)) {
      failure_ = Format("linearizability violation: put ", idx,
                        " serialized at/below the key's completed watermark");
      return;
    }
    NoteCompleted(rec.op.key, rec.ts);
  }

  void CompleteRead(int idx, const Value& v, Timestamp ts, NodeCore::Route route) {
    OpRec& rec = recs_[static_cast<std::size_t>(idx)];
    rec.st = OpRec::St::kDone;
    rec.ts = ts;
    rec.ts_known = true;
    cores_[rec.node]->CompleteOp(rec.op, route, v, ts);
    const auto it = value_of_.find({rec.op.key, ts});
    if (it == value_of_.end()) {
      failure_ = Format("read ", idx, " observed an unknown write");
      return;
    }
    if (it->second != v) {
      failure_ = Format("write atomicity violation: read ", idx,
                        " returned a value not matching its timestamp's write");
      return;
    }
    if (config_.model == ConsistencyModel::kLin && ts < rec.watermark) {
      failure_ = Format("linearizability violation: read ", idx,
                        " observed below the key's completed watermark");
      return;
    }
    NoteCompleted(rec.op.key, ts);
  }

  Timestamp MaxCompletedTs(Key key) const {
    auto it = max_completed_.find(key);
    return it == max_completed_.end() ? Timestamp{0, 0} : it->second;
  }
  void NoteCompleted(Key key, Timestamp ts) {
    Timestamp& cur = max_completed_[key];
    cur = std::max(cur, ts);
  }
  Timestamp MaxWriteTs(Key key) const {
    Timestamp best{0, 0};
    for (const auto& [key_ts, value] : value_of_) {
      if (key_ts.first == key) {
        best = std::max(best, key_ts.second);
      }
    }
    return best;
  }

  // Lin started writes pick up their timestamp when the engine actually
  // starts them (a queued write starts inside a fill/update/ack delivery).
  void SweepStartedPuts() {
    for (int idx = 0; idx < static_cast<int>(recs_.size()); ++idx) {
      const OpRec& rec = recs_[static_cast<std::size_t>(idx)];
      if (rec.st != OpRec::St::kInFlight || rec.op.type != OpType::kPut ||
          rec.ts_known) {
        continue;
      }
      const CacheEntry* e = cores_[rec.node]->cache()->Find(rec.op.key);
      if (e != nullptr && e->write_in_flight && e->pending_value == rec.op.value) {
        AssignPutTs(idx, e->pending_ts);
        if (!failure_.empty()) {
          return;
        }
      }
    }
  }

  std::vector<Timestamp> SnapshotCacheTimestamps() const {
    std::vector<Timestamp> ts;
    for (const auto& core : cores_) {
      for (const Key key : {kKeyOut, kKeyIn}) {
        const CacheEntry* e = core->cache()->Find(key);
        // Absent and kFilling entries are exempt (a re-admission restarts the
        // visible clock at the fill); sentinel max() marks them.
        ts.push_back(e == nullptr || e->state() == CacheState::kFilling
                         ? Timestamp{0xffffffffu, 0xff}
                         : e->ts());
      }
    }
    return ts;
  }

  bool CheckInvariants(const std::vector<Timestamp>& before) {
    SweepStartedPuts();
    if (!failure_.empty()) {
      return false;
    }
    const std::vector<Timestamp> after = SnapshotCacheTimestamps();
    const Timestamp sentinel{0xffffffffu, 0xff};
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (before[i] != sentinel && after[i] != sentinel && after[i] < before[i]) {
        failure_ = "cache timestamp regressed across a transition";
        return false;
      }
    }
    for (int i = 0; i < config_.num_nodes; ++i) {
      for (const Key key : {kKeyOut, kKeyIn}) {
        const CacheEntry* e = cores_[static_cast<std::size_t>(i)]->cache()->Find(key);
        if (e == nullptr || e->state() == CacheState::kFilling) {
          continue;
        }
        if (value_of_.find({key, e->ts()}) == value_of_.end()) {
          failure_ = Format("node ", i, " cache holds an unknown timestamp");
          return false;
        }
        if (e->state() == CacheState::kValid &&
            e->value != value_of_[{key, e->value_ts}]) {
          failure_ = Format("data-value violation: node ", i,
                            " Valid value does not match its timestamp's write");
          return false;
        }
      }
    }
    for (const Key key : {kKeyOut, kKeyIn}) {
      Value v;
      Timestamp ts;
      CCKVS_CHECK(partitions_[HomeOf(key)]->Get(key, &v, &ts));
      const auto it = value_of_.find({key, ts});
      if (it == value_of_.end()) {
        failure_ = Format("shard of key ", key, " holds an unknown timestamp");
        return false;
      }
      if (v != it->second) {
        failure_ = Format("data-value violation: shard of key ", key,
                          " does not match its timestamp's write");
        return false;
      }
    }
    return true;
  }

  TransitionScopeConfig config_;
  HotSetAnnounceMsg announce_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<std::unique_ptr<NodeHost>> hosts_;
  std::vector<std::unique_ptr<NodeCore>> cores_;
  std::vector<std::deque<TMsg>> lanes_;  // (src * n + dst) FIFO channels
  std::vector<bool> announce_pending_;
  std::vector<OpRec> recs_;
  std::map<std::pair<Key, Timestamp>, std::string> value_of_;
  std::map<Key, Timestamp> max_completed_;
  std::string failure_;
};

// BFS over canonical states; paths are replayed, so the production engines
// never need to be copyable.  Shared by both scopes: a world provides
// ActionType, EnabledActions, Apply, CheckTerminal, Encode and failure().
template <typename WorldT>
ModelCheckerResult ExhaustiveExplore(
    const std::function<std::unique_ptr<WorldT>()>& make_world) {
  using ActionT = typename WorldT::ActionType;
  ModelCheckerResult result;

  std::unordered_set<std::string> visited;
  std::deque<std::vector<ActionT>> frontier;

  {
    auto root = make_world();
    visited.insert(root->Encode());
    frontier.push_back({});
    result.states_explored = 1;
  }

  while (!frontier.empty()) {
    const std::vector<ActionT> path = std::move(frontier.front());
    frontier.pop_front();
    result.max_depth = std::max(result.max_depth,
                                static_cast<std::uint64_t>(path.size()));

    // Rebuild the state at `path` once to enumerate its actions.
    auto base = make_world();
    for (const ActionT& a : path) {
      if (!base->Apply(a)) {
        result.failure = base->failure();
        return result;
      }
    }
    const std::vector<ActionT> actions = base->EnabledActions();
    if (actions.empty()) {
      ++result.terminal_states;
      if (!base->CheckTerminal()) {
        result.failure = base->failure();
        return result;
      }
      continue;
    }

    for (const ActionT& action : actions) {
      ++result.transitions;
      auto world = make_world();
      bool ok = true;
      for (const ActionT& a : path) {
        if (!world->Apply(a)) {
          ok = false;
          break;
        }
      }
      if (ok && !world->Apply(action)) {
        ok = false;
      }
      if (!ok) {
        result.failure = world->failure();
        return result;
      }
      std::string encoded = world->Encode();
      if (visited.insert(std::move(encoded)).second) {
        ++result.states_explored;
        std::vector<ActionT> next = path;
        next.push_back(action);
        frontier.push_back(std::move(next));
      }
    }
  }

  result.ok = true;
  return result;
}

}  // namespace

ModelCheckerResult CheckLinProtocol(const ModelCheckerConfig& config) {
  return ExhaustiveExplore<World>(
      [&config]() { return std::make_unique<World>(config); });
}

ModelCheckerResult CheckEpochTransition(const TransitionScopeConfig& config) {
  return ExhaustiveExplore<TransitionWorld>(
      [&config]() { return std::make_unique<TransitionWorld>(config); });
}

}  // namespace cckvs
