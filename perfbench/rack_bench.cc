// rack_bench: the C++ half of the repo benchmark (perfbench/run.py drives it).
//
// Two modes, each printing exactly one JSON object as its last stdout line:
//
//   rack_bench rack --workload W --seed N --ops-per-node Q
//                   [--setup-reps R] [--history] [--trace PATH]
//     Builds the workload's 4-node LiveRack R times (each construction timed;
//     all but the last torn down), runs the last one, and reports the
//     LiveReport plus the per-run invariants.  --history records and checks
//     the per-key SC/Lin and write-atomicity histories (the untimed
//     correctness pass); --trace arms the existing tracer.
//
//   rack_bench layers --workload W --seed N [--batch B]
//     Times each layer's public entry points in isolation, replaying the
//     workload's own key stream at the rack's real sizes (B = messages per
//     coalesced batch, taken from a rack run of the same workload).
//
// Workload configurations live here only; run.py knows them by name.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/cache/l1_tail.h"
#include "src/cache/symmetric_cache.h"
#include "src/protocol/engine.h"
#include "src/runtime/coalescer.h"
#include "src/runtime/live_rack.h"
#include "src/runtime/wire_codec.h"
#include "src/store/partition.h"
#include "src/store/partitioner.h"
#include "src/topk/epoch_coordinator.h"
#include "src/topk/flat_space_saving.h"
#include "src/workload/workload.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// Workloads (docs: perfbench/README.md)
// ---------------------------------------------------------------------------

// Shared load shape: 4 nodes x 32 closed-loop sessions, busy-poll, coalescing
// on, prefilled store (misses pay a real shard lookup), 1000-key symmetric
// cache (0.1% of the 1M-key datasets) seeded with the static oracle hot set.
bool MakeWorkload(const std::string& name, std::uint64_t seed, LiveRackParams* p) {
  p->num_nodes = 4;
  p->window_per_node = 32;
  p->busy_poll = true;
  p->coalescing = true;
  p->prefill_store = true;
  p->prefill_hot_set = true;
  p->cache_capacity = 1'000;
  p->seed = seed;
  p->workload.keyspace = 1'000'000;
  p->workload.zipf_alpha = 0.99;
  p->workload.value_bytes = 40;
  if (name == "read_zipf") {
    p->consistency = ConsistencyModel::kSc;
    p->workload.write_ratio = 0.0;
  } else if (name == "lin_write") {
    p->consistency = ConsistencyModel::kLin;
    p->workload.write_ratio = 0.05;
    p->workload.value_bytes = 256;
    p->transport.kind = TransportKind::kShm;
    p->transport.shm_name = "/cckvs_perfbench_" + std::to_string(getpid());
  } else if (name == "skew_l1") {
    p->consistency = ConsistencyModel::kSc;
    p->workload.write_ratio = 0.05;
    p->workload.keyspace = 100'000;
    p->workload.node_rank_stride = p->workload.keyspace / 16;
    p->l1_capacity = 4096;
    p->l1_policy = L1Policy::kLru;
  } else if (name == "drift_epochs") {
    p->consistency = ConsistencyModel::kSc;
    p->workload.write_ratio = 0.01;
    p->online_topk = true;
    p->topk_sample_probability = 1.0;
    p->topk_epoch_requests = 50'000;
    p->workload.drift_period_ops = 400'000;
    p->workload.drift_rank_shift = 100;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Minimal JSON emission (flat object, numbers and strings)
// ---------------------------------------------------------------------------

class JsonLine {
 public:
  void Num(const char* key, double v) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
  }
  void Int(const char* key, std::uint64_t v) {
    Key(key);
    out_ += std::to_string(v);
  }
  void Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  void NumList(const char* key, const std::vector<double>& vs) {
    Key(key);
    out_ += '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", vs[i]);
      out_ += buf;
    }
    out_ += ']';
  }
  void Print() {
    std::printf("{%s}\n", out_.c_str());
    std::fflush(stdout);
  }

 private:
  void Key(const char* key) {
    if (!out_.empty()) {
      out_ += ',';
    }
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
  std::string out_;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// rack mode
// ---------------------------------------------------------------------------

int RunRack(LiveRackParams p, int setup_reps, bool history, const std::string& trace) {
  p.record_history = history;
  p.trace_path = trace;
  std::vector<double> setup_s;
  std::unique_ptr<LiveRack> rack;
  for (int r = 0; r < setup_reps; ++r) {
    rack.reset();  // teardown of the previous build is not set-up time
    const auto t0 = std::chrono::steady_clock::now();
    rack = std::make_unique<LiveRack>(p);
    setup_s.push_back(SecondsSince(t0));
  }
  const LiveReport rep = rack->Run();

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t completed = 0;
  for (int i = 0; i < p.num_nodes; ++i) {
    const LiveNode::Counters& c = rack->node(static_cast<NodeId>(i)).counters();
    hits += c.hit_completed;
    misses += c.miss_completed;
    completed += c.completed;
  }

  // Report invariants; any violation fails the run.
  std::vector<std::string> violations;
  if (hits + misses != rep.completed || completed != rep.completed) {
    violations.push_back("hits + misses != completed");
  }
  if (rep.rack.l1_hits > hits) {
    violations.push_back("l1_hits > hits");
  }
  if (rep.channel_full_waits != 0) {
    violations.push_back("channel_full_waits != 0");
  }
  if (!rep.transport_error.empty()) {
    violations.push_back("transport_error: " + rep.transport_error);
  }
  const std::uint64_t quota = p.ops_per_node * static_cast<std::uint64_t>(p.num_nodes);
  if (rep.completed < quota) {
    violations.push_back("completed below quota");
  }
  if (history) {
    std::string err = p.consistency == ConsistencyModel::kLin
                          ? rack->history().CheckPerKeyLinearizability()
                          : rack->history().CheckPerKeySequentialConsistency();
    if (!err.empty()) {
      violations.push_back(std::string(ToString(p.consistency)) + " checker: " + err);
    }
    err = rack->history().CheckWriteAtomicity();
    if (!err.empty()) {
      violations.push_back("write atomicity: " + err);
    }
  }
  std::string violation_text;
  for (const std::string& v : violations) {
    violation_text += (violation_text.empty() ? "" : "; ") + v.substr(0, 300);
  }

  JsonLine j;
  j.Bool("ok", violations.empty());
  j.Str("violations", violation_text);
  j.NumList("setup_s", setup_s);
  j.Num("wall_s", rep.wall_seconds);
  j.Int("attempted", quota);
  j.Int("completed", rep.completed);
  j.Int("hits", hits);
  j.Int("misses", misses);
  j.Num("mops", static_cast<double>(rep.completed) / rep.wall_seconds / 1e6);
  j.Num("p50_us", rep.rack.p50_latency_us);
  j.Num("p99_us", rep.rack.p99_latency_us);
  j.Num("hit_rate", rep.rack.hit_rate);
  j.Int("l1_hits", rep.rack.l1_hits);
  j.Int("l1_fills", rep.rack.l1_fills);
  j.Int("l1_invalidations", rep.rack.l1_invalidations);
  j.Int("epochs", rep.rack.epochs);
  j.Int("hot_set_churn", rep.rack.hot_set_churn);
  j.Int("epoch_msgs", rep.epoch_msgs);
  j.Int("gate_retries", rep.gate_retries);
  j.Int("writes", rep.engine_totals.writes);
  j.Int("updates_sent", rep.rack.updates_sent);
  j.Int("invalidations_sent", rep.rack.invalidations_sent);
  j.Int("acks_sent", rep.rack.acks_sent);
  j.Int("channel_messages", rep.channel_messages);
  j.Int("channel_batches", rep.channel_batches);
  j.Num("batch_mean", rep.batch_sizes.Mean());
  j.Int("flushes_size", rep.flushes_size);
  j.Int("flushes_boundary", rep.flushes_boundary);
  j.Int("flushes_idle", rep.flushes_idle);
  j.Int("flushes_deadline", rep.flushes_deadline);
  j.Int("wakeups", rep.wakeups);
  j.Int("credit_parks", rep.credit_parks);
  j.Int("sc_credit_stalls", rep.sc_credit_stalls);
  j.Int("channel_full_waits", rep.channel_full_waits);
  j.Int("store_read_retries", rep.store_read_retries);
  j.Int("slab_arena_bytes", rep.slab_arena_bytes);
  j.Int("keyspace", p.workload.keyspace);
  j.Int("value_bytes", p.workload.value_bytes);
  j.Int("num_nodes", static_cast<std::uint64_t>(p.num_nodes));
  j.Int("spans_recorded", rep.spans_recorded);
  j.Str("trace_error", rep.trace_error);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j.Int("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  j.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// layers mode
// ---------------------------------------------------------------------------

// Folded into the output so the optimizer cannot drop timed calls.
std::uint64_t g_sink = 0;

constexpr int kRounds = 7;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median over kRounds of the mean ns per call of `body(i)` for i in [0, n),
// with an untimed `prepare()` before each round.  One extra untimed round
// runs first to warm caches and lazy state.
template <typename Prepare, typename Body>
double NsPerCallPrepared(std::size_t n, Prepare&& prepare, Body&& body) {
  if (n == 0) {
    return 0;
  }
  std::vector<double> per_call;
  for (int r = -1; r < kRounds; ++r) {
    prepare();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    if (r >= 0) {
      per_call.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(n));
    }
  }
  return Median(per_call);
}

template <typename Body>
double NsPerCall(std::size_t n, Body&& body) {
  return NsPerCallPrepared(n, [] {}, body);
}

// Message m of a batch in the model's mix: SC sends only updates; a Lin write
// costs one invalidation, one ack and one update per peer, so Lin cycles
// through the three.  `append` receives the typed message.
template <typename Append>
void AppendMixed(bool lin, std::size_t m, Key key, UpdateMsg* upd, Append&& append) {
  if (lin && m % 3 == 0) {
    append(InvalidateMsg{key, Timestamp{1, 0}});
  } else if (lin && m % 3 == 1) {
    append(AckMsg{key, Timestamp{1, 0}});
  } else {
    upd->key = key;
    append(*upd);
  }
}

// A MessageSink that discards traffic, remembering only the last invalidation
// (whose timestamp the Lin acks must echo), so the engines run without a
// transport.
class RecordingSink final : public MessageSink {
 public:
  void BroadcastUpdate(const UpdateMsg& msg) override { g_sink += msg.ts.clock; }
  void BroadcastInvalidate(const InvalidateMsg& msg) override { last_invalidate = msg; }
  void SendAck(NodeId to, const AckMsg& msg) override { g_sink += to + msg.ts.clock; }
  InvalidateMsg last_invalidate;
};

// Splits `keys` into consecutive batches of distinct keys (a key may appear
// once per batch), preserving stream order.
std::vector<std::vector<Key>> DistinctBatches(const std::vector<Key>& keys,
                                              std::size_t batch) {
  std::vector<std::vector<Key>> out;
  std::unordered_set<Key> seen;
  out.emplace_back();
  for (const Key k : keys) {
    if (!seen.insert(k).second) {
      continue;
    }
    out.back().push_back(k);
    if (out.back().size() == batch) {
      out.emplace_back();
      seen.clear();
    }
  }
  if (out.back().empty()) {
    out.pop_back();
  }
  return out;
}

int RunLayers(const LiveRackParams& p, std::size_t batch_msgs) {
  constexpr std::size_t kStreamOps = 1 << 18;
  const WorkloadConfig& wc = p.workload;
  const std::uint32_t vb = wc.value_bytes;
  const int n = p.num_nodes;
  JsonLine j;

  // --- workload/: node 1's generator (its rank offset is nonzero under
  // node_rank_stride, so its local hot keys differ from the global set).
  WorkloadGenerator gen(wc, /*writer_tag=*/1, PerThreadSeed(p.seed, 1));
  std::vector<Key> stream(kStreamOps);
  std::vector<OpType> types(kStreamOps);
  Op op;
  for (std::size_t i = 0; i < kStreamOps; ++i) {  // the keys every layer replays
    gen.NextInto(&op);
    stream[i] = op.key;
    types[i] = op.type;
  }
  j.Num("workload.next_ns", NsPerCall(kStreamOps, [&](std::size_t) {
          gen.NextInto(&op);
          g_sink += op.key;
        }));

  // --- cache/symmetric_cache: the rack's oracle hot set at its real capacity.
  WorkloadGenerator oracle(wc, /*writer_tag=*/0, /*seed=*/0);
  const std::vector<Key> hot = oracle.HottestKeys(p.cache_capacity);
  SymmetricCache cache(p.cache_capacity);
  cache.InstallHotSet(hot);
  for (const Key k : hot) {
    cache.Fill(k, SynthesizeValue(k, vb), Timestamp{0, 0});
  }
  std::vector<Key> hit_keys;
  std::vector<Key> miss_keys;      // every op that reaches the shard tier
  std::vector<Key> miss_get_keys;  // GETs among them (the L1's candidates)
  for (std::size_t i = 0; i < kStreamOps; ++i) {
    if (cache.Probe(stream[i])) {
      hit_keys.push_back(stream[i]);
    } else {
      miss_keys.push_back(stream[i]);
      if (types[i] == OpType::kGet) {
        miss_get_keys.push_back(stream[i]);
      }
    }
  }
  j.Num("cache.probe_hit_ns", NsPerCall(hit_keys.size(), [&](std::size_t i) {
          g_sink += cache.Probe(hit_keys[i]);
        }));
  j.Num("cache.probe_miss_ns", NsPerCall(miss_keys.size(), [&](std::size_t i) {
          g_sink += cache.Probe(miss_keys[i]);
        }));

  // --- store/: the whole prefilled store (one Partition per node, configured
  // as LiveNode configures its shard), filled through the public calls.
  {
    const ModuloPartitioner partitioner(n);
    std::vector<std::unique_ptr<Partition>> shards;
    for (int i = 0; i < n; ++i) {
      PartitionConfig pc;
      pc.buckets = p.partition_buckets;
      pc.node_id = static_cast<NodeId>(i);
      pc.synthesize = [vb](Key key) { return SynthesizeValue(key, vb); };
      pc.synthesize_into = [vb](Key key, Value* out) { SynthesizeValueInto(key, vb, out); };
      shards.push_back(std::make_unique<Partition>(pc));
    }
    auto shard = [&](Key k) -> Partition& { return *shards[partitioner.HomeOf(k)]; };
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0; k < wc.keyspace; ++k) {
      shard(k).Apply(k, SynthesizeValue(k, vb), Timestamp{0, 0});
    }
    j.Num("store.fill_ns_per_key", SecondsSince(t0) * 1e9 / static_cast<double>(wc.keyspace));
    Value value;
    Timestamp ts;
    j.Num("store.get_ns", NsPerCall(miss_keys.size(), [&](std::size_t i) {
            g_sink += shard(miss_keys[i]).Get(miss_keys[i], &value, &ts);
          }));
    const Value write = MakeWriteValue(1, 1, vb);
    std::uint32_t clock = 1;
    j.Num("store.apply_ns", NsPerCall(miss_keys.size(), [&](std::size_t i) {
            g_sink += shard(miss_keys[i]).Apply(miss_keys[i], write, Timestamp{++clock, 1});
          }));
  }

  // --- cache/l1_tail + replacement + topk/flat_space_saving (L1 workloads
  // only; zero elsewhere).  Warm-up replays LiveNode's admission rule: offer
  // every L1 GET miss, age every capacity*8 offers, admit on guaranteed >= 2.
  double l1_get_hit = 0, l1_get_miss = 0, l1_fill = 0, l1_inval = 0, offer = 0;
  if (p.l1_capacity > 0) {
    L1TailCache l1(p.l1_capacity, p.l1_policy, vb);
    FlatSpaceSaving sketch(p.l1_capacity * 2);
    Value value = SynthesizeValue(0, vb);
    Timestamp ts;
    std::uint64_t offers = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Key k : miss_get_keys) {
        if (l1.Get(k, &value, &ts)) {
          continue;
        }
        std::uint64_t guaranteed = 0;
        sketch.Offer(k, &guaranteed);
        if (++offers % (sketch.capacity() * 8) == 0) {
          sketch.DecayHalve();
        }
        if (guaranteed >= 2) {
          l1.Fill(k, SynthesizeValue(k, vb), Timestamp{0, 0});
        }
      }
    }
    std::vector<Key> resident;
    std::vector<Key> absent;
    for (const Key k : miss_get_keys) {
      (l1.Contains(k) ? resident : absent).push_back(k);
    }
    l1_get_hit = NsPerCall(resident.size(), [&](std::size_t i) {
      g_sink += l1.Get(resident[i], &value, &ts);
    });
    l1_get_miss = NsPerCall(absent.size(), [&](std::size_t i) {
      g_sink += l1.Get(absent[i], &value, &ts);
    });
    const std::vector<Key> resident_set = l1.Keys();
    l1_inval = NsPerCallPrepared(
        resident_set.size(),
        [&] {
          for (const Key k : resident_set) {
            l1.Fill(k, value, ts);
          }
        },
        [&](std::size_t i) { g_sink += l1.Invalidate(resident_set[i]); });
    l1_fill = NsPerCall(absent.size(), [&](std::size_t i) { l1.Fill(absent[i], value, ts); });
    FlatSpaceSaving fresh(p.l1_capacity * 2);
    offer = NsPerCall(miss_get_keys.size(), [&](std::size_t i) {
      g_sink += fresh.Offer(miss_get_keys[i]);
    });
  }
  j.Num("l1.get_hit_ns", l1_get_hit);
  j.Num("l1.get_miss_ns", l1_get_miss);
  j.Num("l1.fill_ns", l1_fill);
  j.Num("l1.invalidate_ns", l1_inval);
  j.Num("l1_sketch.offer_ns", offer);

  // --- topk/epoch_coordinator at the workload's hot-set size and epoch
  // length, sampling every request (the summary-update cost).
  {
    EpochCoordinatorConfig ec;
    ec.hot_set_size = p.cache_capacity;
    ec.requests_per_epoch = p.topk_epoch_requests;
    ec.sample_probability = 1.0;
    ec.seed = p.seed ^ 0x70cull;
    EpochCoordinator coord(ec);
    j.Num("coordinator.on_request_ns", NsPerCall(kStreamOps, [&](std::size_t i) {
            g_sink += coord.OnRequest(stream[i]);
          }));
  }

  // --- protocol/: the workload's engine on its hot set, fed the stream's
  // cache-hit keys in batches of distinct keys, through a recording sink.
  {
    SymmetricCache ecache(p.cache_capacity);
    ecache.InstallHotSet(hot);
    for (const Key k : hot) {
      ecache.Fill(k, SynthesizeValue(k, vb), Timestamp{0, 0});
    }
    RecordingSink sink;
    const std::vector<std::vector<Key>> batches = DistinctBatches(hit_keys, 256);
    const Value write = MakeWriteValue(1, 1, vb);
    std::uint32_t remote_clock = 1u << 24;  // remote traffic always newer
    std::size_t b = 0;
    const auto next_batch = [&]() -> const std::vector<Key>& {
      return batches[b++ % batches.size()];
    };
    double write_ns = 0, upd_ns = 0, inv_ns = 0, ack_ns = 0;
    if (!batches.empty()) {
      std::vector<double> wr, up, in, ak;
      if (p.consistency == ConsistencyModel::kSc) {
        ScEngine engine(0, n, &ecache, &sink);
        engine.PrewarmScratch(vb);
        for (int r = -1; r < kRounds; ++r) {
          const std::vector<Key>& keys = next_batch();
          auto t0 = std::chrono::steady_clock::now();
          for (const Key k : keys) {
            engine.Write(k, write, nullptr);
          }
          const double w = SecondsSince(t0) * 1e9 / static_cast<double>(keys.size());
          UpdateMsg upd{0, write, Timestamp{}};
          t0 = std::chrono::steady_clock::now();
          for (const Key k : keys) {
            upd.key = k;
            upd.ts = Timestamp{++remote_clock, 1};
            engine.OnUpdate(1, upd);
          }
          const double u = SecondsSince(t0) * 1e9 / static_cast<double>(keys.size());
          if (r >= 0) {
            wr.push_back(w);
            up.push_back(u);
          }
        }
      } else {
        LinEngine engine(0, n, &ecache, &sink);
        engine.PrewarmScratch(vb);
        std::vector<InvalidateMsg> pending;
        for (int r = -1; r < kRounds; ++r) {
          const std::vector<Key>& keys = next_batch();
          pending.clear();
          auto t0 = std::chrono::steady_clock::now();
          for (const Key k : keys) {
            engine.Write(k, write, nullptr);
            pending.push_back(sink.last_invalidate);
          }
          const double w = SecondsSince(t0) * 1e9 / static_cast<double>(keys.size());
          t0 = std::chrono::steady_clock::now();
          for (const InvalidateMsg& inv : pending) {
            for (int peer = 1; peer < n; ++peer) {
              engine.OnAck(static_cast<NodeId>(peer), AckMsg{inv.key, inv.ts});
            }
          }
          const double a = SecondsSince(t0) * 1e9 /
                           static_cast<double>(keys.size() * static_cast<std::size_t>(n - 1));
          std::vector<Timestamp> remote(keys.size());
          for (Timestamp& t : remote) {
            t = Timestamp{++remote_clock, 1};
          }
          t0 = std::chrono::steady_clock::now();
          for (std::size_t i = 0; i < keys.size(); ++i) {
            engine.OnInvalidate(1, InvalidateMsg{keys[i], remote[i]});
          }
          const double iv = SecondsSince(t0) * 1e9 / static_cast<double>(keys.size());
          UpdateMsg upd{0, write, Timestamp{}};
          t0 = std::chrono::steady_clock::now();
          for (std::size_t i = 0; i < keys.size(); ++i) {
            upd.key = keys[i];
            upd.ts = remote[i];
            engine.OnUpdate(1, upd);
          }
          const double u = SecondsSince(t0) * 1e9 / static_cast<double>(keys.size());
          if (r >= 0) {
            wr.push_back(w);
            ak.push_back(a);
            in.push_back(iv);
            up.push_back(u);
          }
        }
      }
      write_ns = Median(wr);
      upd_ns = Median(up);
      inv_ns = Median(in);
      ack_ns = Median(ak);
    }
    const bool lin = p.consistency == ConsistencyModel::kLin;
    j.Num("engine.sc_write_ns", lin ? 0.0 : write_ns);
    j.Num("engine.lin_write_ns", lin ? write_ns : 0.0);
    j.Num("engine.on_update_ns", upd_ns);
    j.Num("engine.on_invalidate_ns", inv_ns);
    j.Num("engine.on_ack_ns", ack_ns);
  }

  // --- runtime/ coalescer and wire codec, at the rack's mean batch size with
  // the model's message mix (SC: updates; Lin: invalidation, ack, update).
  {
    const std::size_t msgs = std::clamp<std::size_t>(
        batch_msgs, 1, static_cast<std::size_t>(p.coalesce_max_batch));
    const std::vector<Key>& keys = hit_keys.empty() ? stream : hit_keys;
    const bool lin = p.consistency == ConsistencyModel::kLin;
    UpdateMsg upd{0, MakeWriteValue(1, 1, vb), Timestamp{1, 0}};
    std::size_t next_key = 0;
    const auto key_at = [&] { return keys[next_key++ % keys.size()]; };

    WireBatchPool pool;
    pool.Prewarm(64, static_cast<std::size_t>(p.coalesce_max_batch), vb);
    CoalescerConfig cc;
    cc.self = 0;
    cc.num_peers = n;
    cc.enabled = true;
    cc.max_batch = p.coalesce_max_batch;
    cc.pool = &pool;
    cc.warm_slots = static_cast<std::size_t>(p.coalesce_max_batch);
    cc.warm_value_bytes = vb;
    SendCoalescer coalescer(cc);
    constexpr std::size_t kBatches = 4096;
    // Appends and takes alternate, so each is timed per batch; every such
    // interval also holds one clock read, measured here and subtracted.
    double clock_s = 0;
    for (std::size_t b = 0; b < kBatches; ++b) {
      const auto t0 = std::chrono::steady_clock::now();
      clock_s += SecondsSince(t0);
    }
    const double clock_ns = clock_s * 1e9 / static_cast<double>(kBatches);
    std::vector<double> app, take;
    for (int r = -1; r < kRounds; ++r) {
      double append_s = 0;
      double take_s = 0;
      for (std::size_t b = 0; b < kBatches; ++b) {
        const NodeId to = static_cast<NodeId>(1 + b % static_cast<std::size_t>(n - 1));
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t m = 0; m < msgs; ++m) {
          AppendMixed(lin, m, key_at(), &upd,
                      [&](const auto& msg) { g_sink += coalescer.AppendTyped(to, msg); });
        }
        append_s += SecondsSince(t0);
        t0 = std::chrono::steady_clock::now();
        WireBatch taken = coalescer.Take(to, FlushCause::kBoundary);
        take_s += SecondsSince(t0);
        g_sink += taken.size();
        pool.Recycle(std::move(taken));
      }
      if (r >= 0) {
        app.push_back((append_s * 1e9 / static_cast<double>(kBatches) - clock_ns) /
                      static_cast<double>(msgs));
        take.push_back(take_s * 1e9 / static_cast<double>(kBatches) - clock_ns);
      }
    }
    j.Num("coalescer.append_ns", Median(app));
    j.Num("coalescer.take_ns", Median(take));

    WireBatch batch;
    batch.src = 0;
    for (std::size_t m = 0; m < msgs; ++m) {
      AppendMixed(lin, m, key_at(), &upd, [&](const auto& msg) { batch.Append(msg); });
    }
    Buffer frame;
    j.Num("wire.encode_ns", NsPerCall(kBatches, [&](std::size_t) {
            frame.clear();
            SerializeWireBatch(batch, &frame);
            g_sink += frame.size();
          }));
    WireBatch decoded;
    bool decode_ok = true;
    j.Num("wire.decode_ns", NsPerCall(kBatches, [&](std::size_t) {
            decode_ok &= TryDeserializeWireBatch(frame, &decoded);
            g_sink += decoded.size();
          }));
    j.Int("wire.batch_msgs", msgs);
    j.Bool("ok", decode_ok && decoded.size() == msgs);
  }
  j.Int("sink", g_sink & 1);
  j.Print();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rack_bench rack|layers --workload W --seed N "
               "[--ops-per-node Q] [--setup-reps R] [--history] [--trace PATH] "
               "[--batch B]\n");
  return 2;
}

}  // namespace
}  // namespace cckvs

int main(int argc, char** argv) {
  using namespace cckvs;
  if (argc < 2) {
    return Usage();
  }
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t ops_per_node = 100'000;
  int setup_reps = 1;
  bool history = false;
  std::string trace;
  std::size_t batch = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--ops-per-node" && has_value) {
      ops_per_node = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--setup-reps" && has_value) {
      setup_reps = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--history") {
      history = true;
    } else if (a == "--trace" && has_value) {
      trace = argv[++i];
    } else if (a == "--batch" && has_value) {
      batch = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }
  LiveRackParams p;
  if (!MakeWorkload(workload, seed, &p)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  p.ops_per_node = ops_per_node;
  if (mode == "rack") {
    return RunRack(p, setup_reps, history, trace);
  }
  if (mode == "layers") {
    return RunLayers(p, batch);
  }
  return Usage();
}
