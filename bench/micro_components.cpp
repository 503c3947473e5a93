// google-benchmark microbenches for the data-plane components: the MICA-like
// store (single- and multi-threaded CRCW, and batched Gets with and without
// prefetch hints), seqlocks, the Zipf sampler, the symmetric cache probe path,
// the Space-Saving sketch and a transport-fabric ping-pong per backend.
//
// These measure the real (wall-clock) cost of the concurrent data structures —
// the part of the system that runs as genuine multithreaded code rather than
// under the deterministic simulator.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>

#include "src/cache/symmetric_cache.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/runtime/transport.h"
#include "src/store/partition.h"
#include "src/store/seqlock.h"
#include "src/topk/flat_space_saving.h"
#include "src/workload/workload.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

// Args: records held, index buckets.  The two 250k-record variants are one
// live-rack shard of a 1M-key, 4-node run (perfbench's read_zipf): indexed
// with the default partition_buckets floor, and sized by BucketsFor as
// LiveNode sizes a prefilled shard.
void BM_StoreGetHit(benchmark::State& state) {
  const auto keys = static_cast<std::uint64_t>(state.range(0));
  PartitionConfig pc;
  pc.buckets = static_cast<std::size_t>(state.range(1));
  Partition part(pc);
  for (Key k = 0; k < keys; ++k) {
    part.Put(k, SynthesizeValue(k, 40));
  }
  Rng rng(1);
  Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.Get(rng.NextBounded(keys), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreGetHit)
    ->ArgNames({"records", "buckets"})
    ->Args({100'000, 1 << 16})
    ->Args({250'000, 1 << 12})
    ->Args({250'000, static_cast<std::int64_t>(Partition::BucketsFor(250'000))});

void BM_StorePut(benchmark::State& state) {
  PartitionConfig pc;
  pc.buckets = 1 << 16;
  Partition part(pc);
  const int keys = 100'000;
  Rng rng(2);
  const Value v = SynthesizeValue(7, 40);
  for (auto _ : state) {
    part.Put(rng.NextBounded(keys), v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorePut);

void BM_StoreGetSynthesized(benchmark::State& state) {
  PartitionConfig pc;
  pc.buckets = 1 << 12;
  pc.synthesize = [](Key key) { return SynthesizeValue(key, 40); };
  Partition part(pc);
  Rng rng(3);
  Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.Get(rng.Next(), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreGetSynthesized);

// The live node's issue batch in isolation: 32 random Gets on one read_zipf
// shard (250k records, indexed by BucketsFor), issued plain (arg 0) or after a
// PrefetchBucket pass and a PrefetchRecord pass over the whole batch (arg 1),
// so the batch's bucket and record misses overlap.  get_time is the cost of
// one Get, prefetches included.
void BM_StoreGetBatch(benchmark::State& state) {
  constexpr int kBatch = 32;
  constexpr std::uint64_t kRecords = 250'000;
  const bool prefetch = state.range(0) != 0;
  PartitionConfig pc;
  pc.buckets = Partition::BucketsFor(kRecords);
  Partition part(pc);
  for (Key k = 0; k < kRecords; ++k) {
    part.Put(k, SynthesizeValue(k, 40));
  }
  Rng rng(4);
  Key keys[kBatch];
  Value v;
  for (auto _ : state) {
    for (Key& k : keys) {
      k = rng.NextBounded(kRecords);
    }
    if (prefetch) {
      for (Key k : keys) {
        part.PrefetchBucket(k);
      }
      for (Key k : keys) {
        part.PrefetchRecord(k);
      }
    }
    for (Key k : keys) {
      benchmark::DoNotOptimize(part.Get(k, &v));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  // Seconds per Get (printed with an SI prefix, e.g. "60ns").
  using benchmark::Counter;
  state.counters["get_time"] =
      Counter(kBatch, Counter::kIsIterationInvariantRate | Counter::kInvert);
}
BENCHMARK(BM_StoreGetBatch)->ArgName("prefetch")->Arg(0)->Arg(1);

// CRCW: concurrent readers with a 5% writer mix, the §6.2 concurrency model.
void BM_StoreCrcwMixed(benchmark::State& state) {
  static Partition* part = nullptr;
  if (state.thread_index() == 0) {
    PartitionConfig pc;
    pc.buckets = 1 << 16;
    part = new Partition(pc);
    for (Key k = 0; k < 100'000; ++k) {
      part->Put(k, SynthesizeValue(k, 40));
    }
  }
  Rng rng(100 + static_cast<std::uint64_t>(state.thread_index()));
  Value v;
  const Value w = SynthesizeValue(9, 40);
  for (auto _ : state) {
    const Key k = rng.NextBounded(100'000);
    if (rng.NextBool(0.05)) {
      part->Put(k, w);
    } else {
      benchmark::DoNotOptimize(part->Get(k, &v));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete part;
    part = nullptr;
  }
}
BENCHMARK(BM_StoreCrcwMixed)->Threads(1)->Threads(2)->Threads(4);

// ---------------------------------------------------------------------------
// Seqlock
// ---------------------------------------------------------------------------

void BM_SeqlockReadUncontended(benchmark::State& state) {
  Seqlock lock;
  std::uint64_t data = 42;
  for (auto _ : state) {
    std::uint32_t v;
    std::uint64_t copy;
    do {
      v = lock.ReadBegin();
      copy = data;
    } while (lock.ReadRetry(v));
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_SeqlockReadUncontended);

void BM_SeqlockWrite(benchmark::State& state) {
  Seqlock lock;
  std::uint64_t data = 0;
  for (auto _ : state) {
    SeqlockWriteGuard guard(lock);
    benchmark::DoNotOptimize(++data);
  }
}
BENCHMARK(BM_SeqlockWrite);

// ---------------------------------------------------------------------------
// Zipf sampling
// ---------------------------------------------------------------------------

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler sampler(250'000'000, 0.99);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_KeyScramble(benchmark::State& state) {
  KeyScrambler scrambler(250'000'000, 9);
  std::uint64_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scrambler.RankToKey(r++ % 250'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyScramble);

void BM_WorkloadNext(benchmark::State& state) {
  WorkloadConfig cfg;
  cfg.keyspace = 250'000'000;
  cfg.write_ratio = 0.01;
  WorkloadGenerator gen(cfg, 1, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadNext);

// ---------------------------------------------------------------------------
// Symmetric cache + top-k
// ---------------------------------------------------------------------------

// Hit and miss probe the same 1000-entry cache, so the two differ only in
// the probe's outcome, not in how much of the cache stays resident in CPU
// caches.
void BM_CacheProbeHit(benchmark::State& state) {
  SymmetricCache cache(1000);
  std::vector<Key> keys;
  for (Key k = 0; k < 1000; ++k) {
    keys.push_back(k);
  }
  cache.InstallHotSet(keys);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Probe(rng.NextBounded(1000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeHit);

void BM_CacheProbeMiss(benchmark::State& state) {
  SymmetricCache cache(1000);
  std::vector<Key> keys;
  for (Key k = 0; k < 1000; ++k) {
    keys.push_back(k);
  }
  cache.InstallHotSet(keys);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Probe(1'000'000 + rng.Next() % 1'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeMiss);

void BM_SpaceSavingOffer(benchmark::State& state) {
  FlatSpaceSaving ss(4096);
  ZipfSampler sampler(1'000'000, 0.99);
  Rng rng(10);
  for (auto _ : state) {
    ss.Offer(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingOffer);

// ---------------------------------------------------------------------------
// Transport fabric
// ---------------------------------------------------------------------------

// One batch round trip between two endpoint threads, all in one process: this
// thread ships a coalesced batch of two or three UpdateMsgs to node 1, whose
// thread echoes a batch of the same size back.  Arg: the backend
// (TransportKind: 0 inproc, 1 shm, 2 socket).  Both threads busy-poll, so the
// time per iteration is the send + deliver + drain + dispatch path twice over,
// without wakeups.
void BM_FabricPingPong(benchmark::State& state) {
  const auto kind = static_cast<TransportKind>(state.range(0));
  LiveTransport::Config c;
  c.num_nodes = 2;
  c.coalescing = true;
  c.channel_capacity = 256;
  c.transport.kind = kind;
  c.transport.shm_name = "/cckvs_bench_pingpong_" + std::to_string(getpid());
  c.transport.shm_ring_bytes = 1 << 16;
  LiveTransport t(c);
  if (!t.ok()) {
    state.SkipWithError(t.init_error().c_str());
    return;
  }
  const auto ignore = [](NodeId, const WireBody&) {};
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    LiveTransport::Endpoint& ep = t.endpoint(1);
    UpdateMsg reply{0, std::string(40, 'r'), Timestamp{0, 1}};
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t n = ep.Poll(16, ignore);
      for (std::size_t m = 0; m < n; ++m) {
        reply.key = m;
        ++reply.ts.clock;
        ep.BroadcastUpdate(reply);
      }
      ep.FlushBatches(FlushCause::kBoundary);
    }
  });
  LiveTransport::Endpoint& ep = t.endpoint(0);
  UpdateMsg msg{0, std::string(40, 'v'), Timestamp{0, 0}};
  for (auto _ : state) {
    const std::size_t k = 2 + msg.ts.clock % 2;
    for (std::size_t m = 0; m < k; ++m) {
      msg.key = m;
      ++msg.ts.clock;
      ep.BroadcastUpdate(msg);
    }
    ep.FlushBatches(FlushCause::kBoundary);
    for (std::size_t got = 0; got < k;) {
      got += ep.Poll(16, ignore);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  echo.join();
  state.SetLabel(ToString(kind));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricPingPong)->Arg(0)->Arg(1)->Arg(2)->UseRealTime();

}  // namespace
}  // namespace cckvs

BENCHMARK_MAIN();
