// Unit tests for the MICA-like store: seqlocks, slab allocation, partition
// operations, concurrency (real threads) and sharding.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/store/partition.h"
#include "src/store/partitioner.h"
#include "src/store/seqlock.h"
#include "src/store/slab.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// Seqlock
// ---------------------------------------------------------------------------

TEST(Seqlock, ReadSeesNoWriterMeansNoRetry) {
  Seqlock lock;
  const std::uint32_t v = lock.ReadBegin();
  EXPECT_FALSE(lock.ReadRetry(v));
}

TEST(Seqlock, WriteForcesRetry) {
  Seqlock lock;
  const std::uint32_t v = lock.ReadBegin();
  {
    SeqlockWriteGuard guard(lock);
  }
  EXPECT_TRUE(lock.ReadRetry(v));
}

TEST(Seqlock, VersionIsEvenWhenUnlocked) {
  Seqlock lock;
  EXPECT_EQ(lock.version() % 2, 0u);
  lock.WriteLock();
  EXPECT_EQ(lock.version() % 2, 1u);
  lock.WriteUnlock();
  EXPECT_EQ(lock.version() % 2, 0u);
}

TEST(Seqlock, ConcurrentReadersNeverSeeTornData) {
  // The canonical seqlock test: a writer alternates two complementary patterns;
  // readers must always observe one of them, never a mix.
  Seqlock lock;
  std::uint64_t data[4] = {0, 0, 0, 0};
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread writer([&] {
    std::uint64_t pattern = 0;
    for (int i = 0; i < 200000; ++i) {
      pattern = ~pattern;
      lock.WriteLock();
      for (auto& d : data) {
        d = pattern;
      }
      lock.WriteUnlock();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t copy[4];
        std::uint32_t v;
        do {
          v = lock.ReadBegin();
          std::memcpy(copy, data, sizeof(copy));
        } while (lock.ReadRetry(v));
        if (!(copy[0] == copy[1] && copy[1] == copy[2] && copy[2] == copy[3])) {
          torn.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0);
}

// ---------------------------------------------------------------------------
// SlabAllocator
// ---------------------------------------------------------------------------

TEST(Slab, ClassSizing) {
  EXPECT_EQ(SlabAllocator::ClassFor(1), 0);
  EXPECT_EQ(SlabAllocator::ClassFor(32), 0);
  EXPECT_EQ(SlabAllocator::ClassFor(33), 1);
  EXPECT_EQ(SlabAllocator::ClassFor(64), 1);
  EXPECT_EQ(SlabAllocator::ClassBytes(0), 32u);
  EXPECT_EQ(SlabAllocator::ClassBytes(3), 256u);
}

TEST(SlabDeathTest, OversizeRecordAborts) {
  EXPECT_DEATH(SlabAllocator::ClassFor(1 << 20), "CHECK");
}

TEST(Slab, AllocateWriteReadBack) {
  SlabAllocator slab;
  const auto ref = slab.Allocate(100);
  std::memset(slab.Data(ref), 0xab, 100);
  EXPECT_EQ(static_cast<unsigned char>(slab.Data(ref)[99]), 0xabu);
  EXPECT_EQ(slab.allocated_slots(), 1u);
}

TEST(Slab, FreeReusesSlots) {
  SlabAllocator slab;
  const auto a = slab.Allocate(40);
  slab.Free(a);
  const auto b = slab.Allocate(40);
  EXPECT_EQ(a, b);  // LIFO freelist reuse
  EXPECT_EQ(slab.freed_slots(), 1u);
}

TEST(Slab, DistinctClassesDistinctArenas) {
  SlabAllocator slab;
  const auto small = slab.Allocate(10);
  const auto large = slab.Allocate(1000);
  EXPECT_NE(small.cls, large.cls);
  EXPECT_NE(slab.Data(small), slab.Data(large));
}

TEST(Slab, TryDataRejectsGarbageRefs) {
  SlabAllocator slab;
  SlabAllocator::Ref bogus;
  bogus.cls = 200;  // out of range
  EXPECT_EQ(slab.TryData(bogus), nullptr);
  bogus.cls = 0;
  bogus.idx = 0xffffff00;  // unmapped chunk
  EXPECT_EQ(slab.TryData(bogus), nullptr);
  const auto real = slab.Allocate(8);
  EXPECT_NE(slab.TryData(real), nullptr);
}

TEST(Slab, ConcurrentAllocFree) {
  SlabAllocator slab;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> ops{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&slab, &ops, t] {
      Rng rng(static_cast<std::uint64_t>(t));
      std::vector<SlabAllocator::Ref> mine;
      for (int i = 0; i < 20000; ++i) {
        if (mine.empty() || rng.NextBool(0.5)) {
          mine.push_back(slab.Allocate(16 + rng.NextBounded(200)));
        } else {
          slab.Free(mine.back());
          mine.pop_back();
        }
        ops.fetch_add(1, std::memory_order_relaxed);
      }
      for (const auto& ref : mine) {
        slab.Free(ref);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(slab.allocated_slots(), slab.freed_slots());
}

// Arena chunks start on a cache line, so a record of 64 B or more begins on a
// line boundary and a 32 B record never straddles two lines.  The two smallest
// classes get three chunks each, so later chunks are checked too.
TEST(Slab, SlabRecordsAreLineAligned) {
  SlabAllocator slab;
  for (int cls = 0; cls < SlabAllocator::kNumClasses; ++cls) {
    const std::size_t bytes = SlabAllocator::ClassBytes(cls);
    const int records = bytes <= 64 ? 3000 : 4;
    for (int i = 0; i < records; ++i) {
      const auto addr = reinterpret_cast<std::uintptr_t>(slab.Data(slab.Allocate(bytes)));
      if (bytes >= 64) {
        ASSERT_EQ(addr % 64, 0u) << "class " << bytes << " B, record " << i;
      } else {
        ASSERT_EQ(addr / 64, (addr + bytes - 1) / 64)
            << "class " << bytes << " B, record " << i << " straddles a line";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

PartitionConfig SmallConfig() {
  PartitionConfig pc;
  pc.buckets = 64;
  pc.node_id = 3;
  return pc;
}

TEST(Partition, GetMissWithoutSynthesizer) {
  Partition part(SmallConfig());
  Value v;
  EXPECT_FALSE(part.Get(42, &v));
  EXPECT_EQ(part.stats().misses, 1u);
}

TEST(Partition, PutThenGet) {
  Partition part(SmallConfig());
  const Timestamp ts = part.Put(42, "hello");
  EXPECT_EQ(ts, (Timestamp{1, 3}));
  Value v;
  Timestamp got_ts;
  ASSERT_TRUE(part.Get(42, &v, &got_ts));
  EXPECT_EQ(v, "hello");
  EXPECT_EQ(got_ts, ts);
  EXPECT_EQ(part.size(), 1u);
}

TEST(Partition, PutBumpsClockMonotonically) {
  Partition part(SmallConfig());
  EXPECT_EQ(part.Put(1, "a").clock, 1u);
  EXPECT_EQ(part.Put(1, "b").clock, 2u);
  EXPECT_EQ(part.Put(1, "c").clock, 3u);
  Value v;
  part.Get(1, &v);
  EXPECT_EQ(v, "c");
  EXPECT_EQ(part.size(), 1u);
}

TEST(Partition, ValueResizeAcrossSizeClasses) {
  Partition part(SmallConfig());
  part.Put(7, "tiny");
  part.Put(7, std::string(500, 'x'));
  Value v;
  ASSERT_TRUE(part.Get(7, &v));
  EXPECT_EQ(v.size(), 500u);
  part.Put(7, "small-again");
  ASSERT_TRUE(part.Get(7, &v));
  EXPECT_EQ(v, "small-again");
}

TEST(Partition, ApplyRespectsTimestamps) {
  Partition part(SmallConfig());
  EXPECT_TRUE(part.Apply(9, "v5", Timestamp{5, 1}));
  EXPECT_FALSE(part.Apply(9, "v3", Timestamp{3, 2}));  // stale
  EXPECT_FALSE(part.Apply(9, "v5b", Timestamp{5, 1}));  // equal is stale too
  EXPECT_TRUE(part.Apply(9, "v5c", Timestamp{5, 2}));   // writer id breaks tie
  Value v;
  Timestamp ts;
  part.Get(9, &v, &ts);
  EXPECT_EQ(v, "v5c");
  EXPECT_EQ(ts, (Timestamp{5, 2}));
  EXPECT_EQ(part.stats().stale_applies, 2u);
}

TEST(Partition, PutAfterApplyContinuesClock) {
  Partition part(SmallConfig());
  part.Apply(4, "flushed", Timestamp{42, 7});
  const Timestamp ts = part.Put(4, "fresh");
  EXPECT_EQ(ts.clock, 43u);
  EXPECT_EQ(ts.writer, 3);
}

TEST(Partition, EraseRemovesAndFreesSlab) {
  Partition part(SmallConfig());
  part.Put(11, "gone-soon");
  EXPECT_TRUE(part.Erase(11));
  EXPECT_FALSE(part.Erase(11));
  Value v;
  EXPECT_FALSE(part.Get(11, &v));
  EXPECT_EQ(part.size(), 0u);
}

TEST(Partition, SynthesizerServesColdReads) {
  PartitionConfig pc = SmallConfig();
  pc.synthesize = [](Key key) { return "synth-" + std::to_string(key); };
  Partition part(pc);
  Value v;
  Timestamp ts;
  ASSERT_TRUE(part.Get(123, &v, &ts));
  EXPECT_EQ(v, "synth-123");
  EXPECT_EQ(ts, (Timestamp{0, 0}));
  EXPECT_EQ(part.stats().synthesized_gets, 1u);
  EXPECT_EQ(part.size(), 0u);  // synthesis does not materialize
  // A write materializes and then wins over synthesis.
  part.Put(123, "real");
  ASSERT_TRUE(part.Get(123, &v, &ts));
  EXPECT_EQ(v, "real");
}

TEST(Partition, ManyKeysForceOverflowChains) {
  // 64 buckets x 7 ways = 448 direct slots; 5000 keys exercise the chains.
  Partition part(SmallConfig());
  for (Key k = 0; k < 5000; ++k) {
    part.Put(k, "v" + std::to_string(k));
  }
  EXPECT_EQ(part.size(), 5000u);
  for (Key k = 0; k < 5000; ++k) {
    Value v;
    ASSERT_TRUE(part.Get(k, &v)) << "key " << k;
    ASSERT_EQ(v, "v" + std::to_string(k));
  }
}

TEST(Partition, EraseFromOverflowChain) {
  Partition part(SmallConfig());
  for (Key k = 0; k < 3000; ++k) {
    part.Put(k, "x");
  }
  for (Key k = 0; k < 3000; k += 3) {
    EXPECT_TRUE(part.Erase(k));
  }
  for (Key k = 0; k < 3000; ++k) {
    EXPECT_EQ(part.Contains(k), k % 3 != 0) << "key " << k;
  }
}

static_assert(Partition::BucketBytes() == 64 && Partition::BucketAlign() == 64,
              "an index bucket must be exactly one cache line");

// Bucket counts are used exactly, not rounded to a power of two.  Each count
// gets twice its inline capacity in keys, so every path below also walks
// overflow chains.
class PartitionBucketCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionBucketCountTest, EveryOperationRoundTrips) {
  PartitionConfig pc = SmallConfig();
  pc.buckets = GetParam();
  Partition part(pc);
  EXPECT_EQ(part.bucket_count(), GetParam());
  const Key keys = static_cast<Key>(GetParam() * 7 * 2 + 100);
  auto val = [](const char* prefix, Key k) { return prefix + std::to_string(k); };

  for (Key k = 0; k < keys; ++k) {
    ASSERT_EQ(part.Put(k, val("put-", k)), (Timestamp{1, 3}));
  }
  EXPECT_EQ(part.size(), keys);
  EXPECT_GT(part.overflow_buckets(), 0u);

  Value v;
  Timestamp ts;
  bool resident = true;
  for (Key k = 0; k < keys; ++k) {
    ASSERT_TRUE(part.Get(k, &v, &ts, &resident)) << "key " << k;
    ASSERT_EQ(v, val("put-", k));
    ASSERT_FALSE(resident);
    ASSERT_TRUE(part.TryPut(k, val("try-", k), &ts));
    ASSERT_EQ(ts, (Timestamp{2, 3}));
    ASSERT_TRUE(part.Apply(k, val("apply-", k), Timestamp{10, 5}));
    ASSERT_FALSE(part.Apply(k, val("stale-", k), Timestamp{9, 5}));
  }

  for (Key k = 0; k < keys; k += 4) {
    const Partition::ResidentSnapshot snap = part.MarkCacheResident(k);
    ASSERT_EQ(snap.value, val("apply-", k));
    ASSERT_EQ(snap.ts, (Timestamp{10, 5}));
    ASSERT_FALSE(part.TryPut(k, val("refused-", k), &ts));
  }
  for (Key k = 0; k < keys; ++k) {
    ASSERT_TRUE(part.Get(k, &v, &ts, &resident));
    ASSERT_EQ(v, val("apply-", k)) << "key " << k;
    ASSERT_EQ(resident, k % 4 == 0) << "key " << k;
  }
  for (Key k = 0; k < keys; k += 4) {
    part.ClearCacheResident(k);
    ASSERT_TRUE(part.TryPut(k, val("after-", k), &ts));
    ASSERT_EQ(ts, (Timestamp{11, 3}));
  }

  for (Key k = 0; k < keys; k += 3) {
    ASSERT_TRUE(part.Erase(k));
  }
  for (Key k = 0; k < keys; ++k) {
    ASSERT_EQ(part.Contains(k), k % 3 != 0) << "key " << k;
    if (k % 3 != 0) {
      ASSERT_TRUE(part.Get(k, &v));
      ASSERT_EQ(v, val(k % 4 == 0 ? "after-" : "apply-", k));
    }
  }
  EXPECT_EQ(part.size(), keys - (keys + 2) / 3);
}

INSTANTIATE_TEST_SUITE_P(NonPowerOfTwo, PartitionBucketCountTest,
                         ::testing::Values(1, 3, 1000, 4097));

TEST(Partition, BucketsForKeepsKeysInTheirHeadBucket) {
  EXPECT_EQ(Partition::BucketsFor(0), 1u);
  EXPECT_EQ(Partition::BucketsFor(5), 1u);
  EXPECT_EQ(Partition::BucketsFor(6), 2u);
  EXPECT_EQ(Partition::BucketsFor(250'000), 50'000u);

  // Filled to the count it was sized for, a shard chains few overflow buckets.
  constexpr std::size_t kRecords = 20'000;
  PartitionConfig pc = SmallConfig();
  pc.buckets = Partition::BucketsFor(kRecords);
  Partition part(pc);
  for (Key k = 0; k < kRecords; ++k) {
    part.Apply(k, "v", Timestamp{1, 0});
  }
  EXPECT_EQ(part.bucket_count(), 4'000u);
  EXPECT_LT(part.overflow_buckets(), part.bucket_count() / 4);
}

TEST(Partition, ConcurrentReadersWithWriter) {
  // CRCW: one writer updates two keys with matching values; readers must never
  // observe a value inconsistent with the key (copy integrity under seqlock).
  Partition part(SmallConfig());
  part.Put(1, "val-0000");
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    for (int i = 1; i <= 50000; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "val-%04d", i % 10000);
      part.Put(1, buf);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Value v;
      while (!stop.load(std::memory_order_relaxed)) {
        if (part.Get(1, &v)) {
          if (v.size() != 8 || v.compare(0, 4, "val-") != 0) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(Partition, ConcurrentWritersDistinctKeys) {
  Partition part(SmallConfig());
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&part, t] {
      for (int i = 0; i < 10000; ++i) {
        part.Put(static_cast<Key>(t * 100000 + i % 500), std::to_string(i));
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(part.size(), 4u * 500u);
}

// ---------------------------------------------------------------------------
// Prefetch hints
// ---------------------------------------------------------------------------

void ExpectSameStats(const PartitionStats& a, const PartitionStats& b) {
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.synthesized_gets, b.synthesized_gets);
  EXPECT_EQ(a.read_retries, b.read_retries);
  EXPECT_EQ(a.stale_applies, b.stale_applies);
}

// The hints read nothing a Get would report and write nothing at all: every
// kind of key — present in its head bucket, present down an overflow chain,
// cache-resident, absent and synthesized, absent with no synthesizer — reads
// back the same, and no counter moves.
TEST(Partition, PrefetchHintsHaveNoSideEffects) {
  PartitionConfig pc = SmallConfig();
  pc.synthesize = [](Key key) { return "synth-" + std::to_string(key); };
  Partition part(pc);
  Partition bare(SmallConfig());  // no synthesizer: an absent key is a miss
  // 64 buckets x 7 ways hold 448 keys inline; the rest sit in overflow chains.
  constexpr Key kKeys = 2'000;
  for (Key k = 0; k < kKeys; ++k) {
    part.Put(k, std::to_string(k));
    bare.Put(k, std::to_string(k));
  }
  ASSERT_GT(part.overflow_buckets(), 0u);
  for (Key k = 0; k < kKeys; k += 10) {
    part.MarkCacheResident(k);
  }
  std::vector<Key> probes;
  for (Key k = 0; k < kKeys + 500; ++k) {  // the last 500 are absent
    probes.push_back(k);
  }

  struct Read {
    bool ok = false;
    Value value;
    Timestamp ts;
    bool resident = false;
  };
  auto read_all = [&probes](const Partition& p) {
    std::vector<Read> out(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      out[i].ok = p.Get(probes[i], &out[i].value, &out[i].ts, &out[i].resident);
    }
    return out;
  };
  const std::vector<Read> before = read_all(part);
  const std::vector<Read> bare_before = read_all(bare);
  const PartitionStats stats = part.stats();
  const PartitionStats bare_stats = bare.stats();
  const SlabAllocator::Stats slab = part.slab_stats();
  const std::size_t size = part.size();

  for (Key k : probes) {
    part.PrefetchBucket(k);
    part.PrefetchRecord(k);
    bare.PrefetchBucket(k);
    bare.PrefetchRecord(k);
  }
  ExpectSameStats(part.stats(), stats);
  ExpectSameStats(bare.stats(), bare_stats);
  EXPECT_EQ(part.slab_stats().live_slots, slab.live_slots);
  EXPECT_EQ(part.slab_stats().arena_bytes, slab.arena_bytes);
  EXPECT_EQ(part.size(), size);

  const std::vector<Read> after = read_all(part);
  const std::vector<Read> bare_after = read_all(bare);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(after[i].ok, before[i].ok) << "key " << probes[i];
    ASSERT_EQ(after[i].value, before[i].value) << "key " << probes[i];
    ASSERT_EQ(after[i].ts, before[i].ts) << "key " << probes[i];
    ASSERT_EQ(after[i].resident, before[i].resident) << "key " << probes[i];
    ASSERT_EQ(bare_after[i].ok, bare_before[i].ok) << "key " << probes[i];
    ASSERT_EQ(bare_after[i].value, bare_before[i].value) << "key " << probes[i];
  }
  EXPECT_TRUE(before[10].resident);
  EXPECT_EQ(before[kKeys].value, "synth-" + std::to_string(kKeys));
  EXPECT_FALSE(bare_before[kKeys].ok);
}

// PrefetchRecord peeks slots with no seqlock while writers move records
// between size classes (freeing and reusing slab slots) and erase and
// re-insert keys.  The hint must stay race-free (TSan runs this) and the Gets
// interleaved with it must never see a torn value.
TEST(Partition, PrefetchRecordUnderWriterChurn) {
  Partition part(SmallConfig());
  constexpr Key kKeys = 600;  // past the 448 inline slots: chains churn too
  for (Key k = 0; k < kKeys; ++k) {
    part.Put(k, std::string(8, 'a'));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    Rng rng(11);
    for (int i = 0; i < 40'000; ++i) {
      const Key k = rng.NextBounded(kKeys);
      if (rng.NextBool(0.1)) {
        part.Erase(k);
      }
      // One fill byte repeated over 8..200 B: crosses three size classes.
      const auto len = static_cast<std::size_t>(8 + rng.NextBounded(193));
      part.Put(k, std::string(len, static_cast<char>('a' + i % 26)));
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<std::uint64_t>(100 + r));
      Value v;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = rng.NextBounded(kKeys);
        part.PrefetchBucket(k);
        part.PrefetchRecord(k);
        if (part.Get(k, &v) && (v.empty() || v.find_first_not_of(v[0]) != Value::npos)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------------
// Cache-residency gate (hot-set epoch machinery)
// ---------------------------------------------------------------------------

TEST(Partition, MarkCacheResidentSnapshotsAndGates) {
  Partition part(SmallConfig());
  const Timestamp wts = part.Put(42, "hot-value");

  const Partition::ResidentSnapshot snap = part.MarkCacheResident(42);
  EXPECT_EQ(snap.value, "hot-value");
  EXPECT_EQ(snap.ts, wts);

  // Reads still succeed but report residency inside the same snapshot.
  Value v;
  Timestamp ts;
  bool resident = false;
  ASSERT_TRUE(part.Get(42, &v, &ts, &resident));
  EXPECT_TRUE(resident);
  EXPECT_EQ(v, "hot-value");

  // Direct writes are refused while the hot set owns the key.
  EXPECT_FALSE(part.TryPut(42, "bypass", &ts));
  ASSERT_TRUE(part.Get(42, &v, nullptr, nullptr));
  EXPECT_EQ(v, "hot-value");

  part.ClearCacheResident(42);
  ASSERT_TRUE(part.Get(42, &v, &ts, &resident));
  EXPECT_FALSE(resident);
  ASSERT_TRUE(part.TryPut(42, "after-clear", &ts));
  EXPECT_EQ(ts, (Timestamp{wts.clock + 1, 3}));
}

TEST(Partition, MarkCacheResidentMaterializesAbsentKeys) {
  PartitionConfig pc = SmallConfig();
  pc.synthesize = [](Key key) { return "synth-" + std::to_string(key); };
  Partition part(pc);

  const Partition::ResidentSnapshot snap = part.MarkCacheResident(7);
  EXPECT_EQ(snap.value, "synth-7");
  EXPECT_EQ(snap.ts, Timestamp{});
  EXPECT_EQ(part.size(), 1u);  // the flag needed a record to live on

  bool resident = false;
  Value v;
  ASSERT_TRUE(part.Get(7, &v, nullptr, &resident));
  EXPECT_TRUE(resident);
  EXPECT_EQ(v, "synth-7");
}

TEST(Partition, ApplyBypassesGateAndPreservesFlag) {
  Partition part(SmallConfig());
  part.Put(42, "v1");
  part.MarkCacheResident(42);

  // Protocol traffic (write-backs, late updates) lands while the gate is up
  // and must not drop it.
  EXPECT_TRUE(part.Apply(42, "write-back", Timestamp{9, 1}));
  bool resident = false;
  Value v;
  ASSERT_TRUE(part.Get(42, &v, nullptr, &resident));
  EXPECT_EQ(v, "write-back");
  EXPECT_TRUE(resident);

  // Plain Put (home-node client path, used by the simulator) preserves too.
  part.Put(42, "v2");
  ASSERT_TRUE(part.Get(42, &v, nullptr, &resident));
  EXPECT_TRUE(resident);
}

TEST(Partition, TryPutOnAbsentKeyIsUngated) {
  Partition part(SmallConfig());
  Timestamp ts;
  ASSERT_TRUE(part.TryPut(42, "first", &ts));
  EXPECT_EQ(ts, (Timestamp{1, 3}));
  Value v;
  ASSERT_TRUE(part.Get(42, &v));
  EXPECT_EQ(v, "first");
}

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

TEST(ModuloPartitioner, CoversAllNodesEvenly) {
  ModuloPartitioner part(9);
  std::vector<int> counts(9, 0);
  for (Key k = 0; k < 90000; ++k) {
    const NodeId n = part.HomeOf(k);
    ASSERT_LT(n, 9);
    counts[n]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 400);
  }
}

// HomeOf replaces the 64-bit `%` with a reciprocal multiply; the homes must be
// bit-identical, for real key hashes and at the top of the hash range.
TEST(ModuloPartitioner, HomesMatchPlainModulo) {
  for (int n = 1; n <= 16; ++n) {
    const ModuloPartitioner part(n);
    const auto d = static_cast<std::uint64_t>(n);
    for (Key k = 0; k < 1'000'000; ++k) {
      ASSERT_EQ(part.HomeOf(k), HashKey(k) % d) << "key " << k << ", n " << n;
    }
    const FastModulo mod(d);
    Rng rng(static_cast<std::uint64_t>(n));
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      const std::uint64_t top = UINT64_MAX - i;
      const std::uint64_t middle = (UINT64_MAX >> 1) + i;
      const std::uint64_t high_random = rng.Next() | (std::uint64_t{1} << 63);
      for (std::uint64_t h : {top, middle, i, high_random}) {
        ASSERT_EQ(mod(h), h % d) << "hash " << h << ", n " << n;
      }
    }
  }
}

TEST(ConsistentHashRing, Deterministic) {
  ConsistentHashRing a(9, 128, 5), b(9, 128, 5);
  for (Key k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.HomeOf(k), b.HomeOf(k));
  }
}

TEST(ConsistentHashRing, ReasonableBalance) {
  ConsistentHashRing ring(9, 256, 1);
  std::vector<int> counts(9, 0);
  for (Key k = 0; k < 90000; ++k) {
    counts[ring.HomeOf(k)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 5000);   // no node starved
    EXPECT_LT(c, 16000);  // no node doubled
  }
}

TEST(ConsistentHashRing, MinimalRemappingOnNodeRemoval) {
  ConsistentHashRing ring(9, 128, 2);
  std::unordered_map<Key, NodeId> before;
  for (Key k = 0; k < 20000; ++k) {
    before[k] = ring.HomeOf(k);
  }
  ring.RemoveNode(4);
  int moved = 0;
  for (const auto& [k, home] : before) {
    const NodeId now = ring.HomeOf(k);
    if (home == 4) {
      EXPECT_NE(now, 4);  // must move somewhere
    } else if (now != home) {
      ++moved;  // keys not on node 4 should almost never move
    }
  }
  EXPECT_EQ(moved, 0);
}

TEST(ConsistentHashRing, AddNodeTakesFairShare) {
  ConsistentHashRing ring(8, 128, 9);
  ring.AddNode(8);
  int on_new = 0;
  const int total = 30000;
  for (Key k = 0; k < static_cast<Key>(total); ++k) {
    if (ring.HomeOf(k) == 8) {
      ++on_new;
    }
  }
  EXPECT_NEAR(static_cast<double>(on_new) / total, 1.0 / 9.0, 0.04);
}

}  // namespace
}  // namespace cckvs
