// Profiling subsystem (runtime/profiler.h), the zero-alloc audit
// (common/alloc_tracker.h + LiveRackParams::track_allocs/alloc_assert), and
// the run-loop knobs (pinning, busy_poll) the profiler observes.
//
// The sampling contract under test: flow counters are published monotonically
// by worker threads and the profiler reports per-interval DELTAS, so summing
// every interval's delta for a node must reproduce that node's final total
// exactly — no sample may be lost or double-counted, no matter how the
// sampling instants interleave with the increments.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/alloc_tracker.h"
#include "src/runtime/live_rack.h"
#include "src/runtime/multiproc.h"
#include "src/runtime/profiler.h"

namespace cckvs {
namespace {

TEST(ProfilerTest, DeltasSumToTotalsUnderConcurrentIncrements) {
  constexpr int kNodes = 3;
  constexpr std::uint64_t kOpsPerNode = 200'000;
  std::vector<WorkerCounters> counters(kNodes);

  Profiler::Options opts;
  opts.interval_ms = 1;  // sample as often as possible while writers run
  Profiler profiler(opts, &counters);
  profiler.Start();

  std::vector<std::thread> writers;
  for (int n = 0; n < kNodes; ++n) {
    writers.emplace_back([&counters, n] {
      NodeCounters c;
      for (std::uint64_t i = 1; i <= kOpsPerNode; ++i) {
        c.completed = i;
        c.msgs_sent = 2 * i;
        c.inbound_depth = i % 7;
        counters[static_cast<std::size_t>(n)].Store(c);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  profiler.Stop();

  // Stop() takes a final sample after the writers finished, so the deltas
  // must account for every increment.
  std::vector<std::uint64_t> ops_sum(kNodes, 0);
  std::vector<std::uint64_t> msgs_sum(kNodes, 0);
  for (const ProfilerSample& s : profiler.samples()) {
    ASSERT_GE(s.node, 0);
    ASSERT_LT(s.node, kNodes);
    ops_sum[static_cast<std::size_t>(s.node)] += s.counters.completed;
    msgs_sum[static_cast<std::size_t>(s.node)] += s.counters.msgs_sent;
    EXPECT_LT(s.counters.inbound_depth, 7u) << "gauges are reported verbatim";
  }
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(ops_sum[static_cast<std::size_t>(n)], kOpsPerNode) << "node " << n;
    EXPECT_EQ(msgs_sum[static_cast<std::size_t>(n)], 2 * kOpsPerNode)
        << "node " << n;
  }
}

TEST(ProfilerTest, StopWithoutStartIsANoOpAndStopIsIdempotent) {
  std::vector<WorkerCounters> counters(1);
  Profiler profiler(Profiler::Options{}, &counters);
  profiler.Stop();  // never started: nothing to join, no samples
  EXPECT_TRUE(profiler.samples().empty());

  Profiler p2(Profiler::Options{}, &counters);
  p2.Start();
  p2.Stop();
  const std::size_t n = p2.samples().size();
  p2.Stop();  // second stop must not add samples or double-join
  EXPECT_EQ(p2.samples().size(), n);
  EXPECT_EQ(n, 1u) << "final sample: one row per node even on a short run";
}

TEST(ProfilerTest, CsvFileGetsHeaderAndOneRowPerSample) {
  const std::string path =
      ::testing::TempDir() + "/profiler_test_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".csv";
  std::vector<WorkerCounters> counters(2);
  Profiler::Options opts;
  opts.csv_path = path;
  Profiler profiler(opts, &counters);
  profiler.Start();
  NodeCounters c;
  c.completed = 5;
  counters[0].Store(c);
  c.completed = 9;
  counters[1].Store(c);
  profiler.Stop();

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[4096];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line), std::string(ProfilerCsvHeader()) + "\n");
  const auto columns = [](const std::string& row) {
    return std::count(row.begin(), row.end(), ',') + 1;
  };
  const auto header_columns = columns(line);
  EXPECT_EQ(header_columns, static_cast<std::ptrdiff_t>(2 + kNumNodeCounters))
      << "ts_ms, node and one column per table counter";
  std::size_t rows = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++rows;
    EXPECT_EQ(columns(line), header_columns) << line;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(rows, profiler.samples().size());
  EXPECT_EQ(rows, 2u);  // final sample: one row per node
}

// The acceptance invariant of the zero-alloc messaging work: an SC rack with
// the store prefilled performs no heap allocation inside any node's
// steady-state window.  Skipped under sanitizers, where the counting
// operator new is compiled out (TrackerAvailable() == false).
LiveRackParams AuditedScRack() {
  LiveRackParams p;
  p.num_nodes = 3;
  p.consistency = ConsistencyModel::kSc;
  p.workload.keyspace = 20'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.05;
  p.workload.value_bytes = 40;
  p.cache_capacity = 200;
  p.l1_capacity = 128;  // the L1 tail + admission sketch run inside the audit
  p.workload.node_rank_stride = 1'000;  // make the L1 actually fill and serve
  p.window_per_node = 16;
  p.ops_per_node = 30'000;
  p.coalescing = true;
  p.seed = 7;
  p.prefill_store = true;
  p.track_allocs = true;
  p.alloc_assert = true;  // a nonzero count aborts the test binary
  return p;
}

TEST(ProfilerTest, SteadyStateScRunIsAllocationFree) {
  if (!alloc::TrackerAvailable()) {
    GTEST_SKIP() << "allocation tracker compiled out (sanitizer build)";
  }
  LiveRackParams p = AuditedScRack();
  p.profile = true;  // exercise counter publishing inside the window
  p.profile_interval_ms = 10;

  LiveRack rack(p);
  const LiveReport r = rack.Run();
  EXPECT_TRUE(r.ok()) << r.transport_error;
  EXPECT_GE(r.completed, 3u * 30'000u);  // quota is a floor: drain finishes
                                         // whatever was in flight at quota
  EXPECT_EQ(r.hot_path_allocs, 0u);
  EXPECT_FALSE(r.profiler_samples.empty());
  EXPECT_GT(r.rack.l1_hits, 0u) << "the audit should cover a SERVING L1";
}

// The same audit over the shared-memory fabric, all nodes in one process:
// every batch is serialized out of its sender's own pool and decoded into its
// receiver's, so this covers the codec scratch and both ends of the
// endpoint-owned batch path.
TEST(ProfilerTest, SteadyStateScRunOverShmIsAllocationFree) {
  if (!alloc::TrackerAvailable()) {
    GTEST_SKIP() << "allocation tracker compiled out (sanitizer build)";
  }
  LiveRackParams p = AuditedScRack();
  p.transport.kind = TransportKind::kShm;
  p.transport.shm_name = "/cckvs_profiler_" + std::to_string(getpid());

  LiveRack rack(p);
  const LiveReport r = rack.Run();
  EXPECT_TRUE(r.ok()) << r.transport_error;
  EXPECT_GE(r.completed, 3u * 30'000u);
  EXPECT_EQ(r.hot_path_allocs, 0u);
  EXPECT_GT(r.channel_batches, 0u) << "the audit should cover fabric traffic";
}

TEST(ProfilerTest, RunLoopAndProfilingParamsRoundTripThroughBlob) {
  // Ranked multi-process racks ship their params to child processes as a hex
  // blob (runtime/multiproc.h); every knob this PR added must survive it.
  LiveRackParams p;
  p.num_nodes = 4;
  p.pinning = true;
  p.busy_poll = true;
  p.profile = true;
  p.profile_interval_ms = 125;
  p.profile_csv_path = "/tmp/prof.csv";
  p.track_allocs = true;
  p.alloc_assert = true;
  p.prefill_store = true;
  p.l1_capacity = 256;
  p.l1_policy = L1Policy::kClock;
  p.workload.node_rank_stride = 4'096;

  const std::string blob = EncodeRackParams(p);
  LiveRackParams out;
  std::string error;
  ASSERT_TRUE(DecodeRackParams(blob, &out, &error)) << error;
  EXPECT_TRUE(out.pinning);
  EXPECT_TRUE(out.busy_poll);
  EXPECT_TRUE(out.profile);
  EXPECT_EQ(out.profile_interval_ms, 125u);
  EXPECT_EQ(out.profile_csv_path, "/tmp/prof.csv");
  EXPECT_TRUE(out.track_allocs);
  EXPECT_TRUE(out.alloc_assert);
  EXPECT_TRUE(out.prefill_store);
  EXPECT_EQ(out.l1_capacity, 256u);
  EXPECT_EQ(out.l1_policy, L1Policy::kClock);
  EXPECT_EQ(out.workload.node_rank_stride, 4'096u);

  // The defaults must round-trip as defaults (v2 fields absent ≠ garbage).
  LiveRackParams defaults;
  LiveRackParams out2;
  ASSERT_TRUE(DecodeRackParams(EncodeRackParams(defaults), &out2, &error))
      << error;
  EXPECT_FALSE(out2.pinning);
  EXPECT_FALSE(out2.busy_poll);
  EXPECT_FALSE(out2.profile);
  EXPECT_FALSE(out2.track_allocs);
  EXPECT_FALSE(out2.prefill_store);
  EXPECT_EQ(out2.l1_capacity, 0u);
  EXPECT_EQ(out2.l1_policy, L1Policy::kLru);
}

TEST(ProfilerTest, BusyPollRackCompletesAndRecordsLatency) {
  // Busy-poll replaces the parking wait with spin-then-yield; the run must
  // still terminate (drain + quiesce) and produce per-op rdtsc latencies.
  LiveRackParams p;
  p.num_nodes = 2;
  p.consistency = ConsistencyModel::kSc;
  p.workload.keyspace = 5'000;
  p.workload.write_ratio = 0.05;
  p.workload.value_bytes = 40;
  p.cache_capacity = 100;
  p.window_per_node = 8;
  p.ops_per_node = 5'000;
  p.coalescing = true;
  p.busy_poll = true;
  p.pinning = true;  // modulo nproc: must be safe on any core count
  p.seed = 11;
  LiveRack rack(p);
  const LiveReport r = rack.Run();
  EXPECT_TRUE(r.ok()) << r.transport_error;
  EXPECT_GE(r.completed, 2u * 5'000u);
  EXPECT_GT(r.rack.p50_latency_us, 0.0);
}

}  // namespace
}  // namespace cckvs
