// The node counter table (cckvs/counters.h) and the identities between its
// counters on real runs.
//
// A counter that drifts from its siblings is a counter bug: the profiler's
// interval deltas must add up to the report's totals, every shipped batch has
// exactly one flush cause, every sent message arrives, every op is a hit or a
// miss.  The runs below check those identities on live racks of each shape
// that reports them (coalesced with a serving L1, uncoalesced, shm Lin), and
// the documented counter table in docs/OBSERVABILITY.md against the code's.

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cckvs/counters.h"
#include "src/cckvs/rack.h"
#include "src/runtime/live_rack.h"
#include "src/runtime/profiler.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CCKVS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CCKVS_SANITIZED 1
#endif
#endif

namespace cckvs {
namespace {

#ifdef CCKVS_SANITIZED
constexpr std::uint64_t kScale = 4;  // sanitized builds run a quarter of the ops
#else
constexpr std::uint64_t kScale = 1;
#endif

const char* KindName(CounterKind kind) {
  return kind == CounterKind::kFlow ? "flow" : "gauge";
}

std::string Trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t");
  const std::size_t e = s.find_last_not_of(" \t");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

// One markdown table row per counter, in table order: the exact rows the
// documentation must hold.
std::vector<std::string> ExpectedDocRows() {
  std::vector<std::string> rows;
  for (const CounterInfo& c : kNodeCounters) {
    rows.push_back(std::string("| `") + c.name + "` | " + KindName(c.kind) + " | " +
                   c.unit + " | " + c.report + " | " + c.doc + " |");
  }
  return rows;
}

// The counter rows of docs/OBSERVABILITY.md's "Node counters" section.
std::vector<std::string> DocumentedRows() {
  std::ifstream in(std::string(CCKVS_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  EXPECT_TRUE(in.good()) << "cannot open docs/OBSERVABILITY.md";
  std::vector<std::string> rows;
  bool in_section = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Node counters";
      continue;
    }
    if (in_section && line.rfind("| `", 0) == 0) {
      rows.push_back(Trim(line));
    }
  }
  return rows;
}

TEST(CounterTable, DocumentationListsExactlyTheCodeTable) {
  const std::vector<std::string> expected = ExpectedDocRows();
  const std::vector<std::string> documented = DocumentedRows();
  std::string table;
  for (const std::string& row : expected) {
    table += row + "\n";
  }
  EXPECT_EQ(documented, expected)
      << "docs/OBSERVABILITY.md, section \"## Node counters\", must list the "
         "table of src/cckvs/counters.h row for row:\n"
         "| Counter | Kind | Unit | Report | Meaning |\n|---|---|---|---|---|\n"
      << table;
}

TEST(CounterTable, SumsEveryCounterAndDeltasKeepGauges) {
  NodeCounters a;
  NodeCounters b;
  for (std::size_t i = 0; i < kNumNodeCounters; ++i) {
    a.*kNodeCounters[i].field = 10 * (i + 1);
    b.*kNodeCounters[i].field = i + 1;
  }
  NodeCounters sum = a;
  sum += b;
  const NodeCounters delta = a - b;
  for (std::size_t i = 0; i < kNumNodeCounters; ++i) {
    const CounterInfo& c = kNodeCounters[i];
    EXPECT_EQ(sum.*c.field, 11 * (i + 1)) << c.name;
    EXPECT_EQ(delta.*c.field, c.kind == CounterKind::kFlow ? 9 * (i + 1) : 10 * (i + 1))
        << c.name;
  }
}

// --- identities on real runs ------------------------------------------------

LiveRackParams BaseRack() {
  LiveRackParams p;
  p.num_nodes = 4;
  p.consistency = ConsistencyModel::kSc;
  p.workload.keyspace = 20'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.05;
  p.workload.value_bytes = 40;
  p.cache_capacity = 200;
  p.window_per_node = 16;
  p.ops_per_node = 40'000 / kScale;
  p.seed = 3;
  p.profile = true;
  p.profile_interval_ms = 5;  // several samples per run
  return p;
}

// Runs `p`, checks every cross-counter identity the report must satisfy and
// hands the report back.
void CheckIdentities(const LiveRackParams& p, LiveReport* report) {
  LiveRack rack(p);
  *report = rack.Run();
  const LiveReport& r = *report;
  ASSERT_TRUE(r.ok()) << r.transport_error;
  ASSERT_GE(r.completed, p.ops_per_node * static_cast<std::uint64_t>(p.num_nodes));

  // Per node and for the rack: every op is a hit or a miss, and an L1 hit
  // is a hit.
  NodeCounters totals;
  for (int i = 0; i < p.num_nodes; ++i) {
    const NodeCounters& c = rack.node(static_cast<NodeId>(i)).counters();
    EXPECT_EQ(c.hit_completed + c.miss_completed, c.completed) << "node " << i;
    EXPECT_LE(c.l1_hits, c.hit_completed) << "node " << i;
    totals += c;
  }
  EXPECT_EQ(r.hit_completed + r.miss_completed, r.completed);
  EXPECT_EQ(r.rack.completed, r.completed);
  EXPECT_LE(r.rack.l1_hits, r.hit_completed);

  // Every shipped batch has exactly one flush cause and lands in an inbox;
  // every message the coalescers shipped was received.
  EXPECT_GT(r.batches_sent, 0u);
  EXPECT_EQ(r.flushes_size + r.flushes_boundary + r.flushes_idle + r.flushes_deadline,
            r.batches_sent);
  EXPECT_EQ(r.batches_sent, r.channel_batches);
  EXPECT_EQ(r.msgs_sent, r.channel_messages);

  // The report is the sum of the nodes, field for field.
#define CCKVS_EXPECT_RACK(name, kind, unit, doc) \
  EXPECT_EQ(r.rack.name, totals.name) << #name;
#define CCKVS_EXPECT_LIVE(name, kind, unit, doc) EXPECT_EQ(r.name, totals.name) << #name;
  CCKVS_NODE_COUNTERS(CCKVS_EXPECT_RACK, CCKVS_EXPECT_LIVE)
#undef CCKVS_EXPECT_RACK
#undef CCKVS_EXPECT_LIVE

  // The profiler's interval deltas add up to the report's totals for every
  // flow counter, and each node's last sample holds its final gauges.
  ASSERT_FALSE(r.profiler_samples.empty());
  NodeCounters profiled;
  std::vector<NodeCounters> last(static_cast<std::size_t>(p.num_nodes));
  for (const ProfilerSample& s : r.profiler_samples) {
    profiled += s.counters;
    last[static_cast<std::size_t>(s.node)] = s.counters;
  }
  for (const CounterInfo& c : kNodeCounters) {
    if (c.kind == CounterKind::kFlow) {
      EXPECT_EQ(profiled.*c.field, totals.*c.field) << c.name;
      continue;
    }
    for (int i = 0; i < p.num_nodes; ++i) {
      EXPECT_EQ(last[static_cast<std::size_t>(i)].*c.field,
                rack.node(static_cast<NodeId>(i)).counters().*c.field)
          << c.name << " node " << i;
    }
  }
}

TEST(CounterIdentities, CoalescedScRackWithServingL1) {
  LiveRackParams p = BaseRack();
  p.coalescing = true;
  p.l1_capacity = 256;
  p.workload.node_rank_stride = 1'000;  // per-node skew: the L1 fills and serves
  LiveReport r;
  CheckIdentities(p, &r);
  EXPECT_GT(r.rack.l1_hits, 0u) << "the L1 identities should cover a serving L1";
  EXPECT_GT(r.rack.l1_fills, 0u);
  EXPECT_EQ(r.window_breaks, 0u) << "only Lin ends an issue window early";
}

TEST(CounterIdentities, UncoalescedScRack) {
  LiveRackParams p = BaseRack();
  p.coalescing = false;
  LiveReport r;
  CheckIdentities(p, &r);
  EXPECT_EQ(r.window_breaks, 0u) << "only Lin ends an issue window early";
}

TEST(CounterIdentities, ShmLinRack) {
  LiveRackParams p = BaseRack();
  p.consistency = ConsistencyModel::kLin;
  p.coalescing = true;
  p.transport.kind = TransportKind::kShm;
  p.transport.shm_name = "/cckvs_counters_" + std::to_string(getpid());
  LiveReport r;
  CheckIdentities(p, &r);
  EXPECT_GT(r.rack.invalidations_sent, 0u) << "Lin writes should invalidate";
  // Pending Lin writes break the issue window; the breaks ship as boundary
  // flushes, inside the flush-cause identity CheckIdentities asserts.
  EXPECT_GT(r.window_breaks, 0u) << "pending Lin writes should break the window";
}

// The simulator and the live rack count hits the same way: on read-only SC
// traffic (nothing invalidates, so the hit rate is the hot set's share of
// the workload) their hit rates agree.
TEST(CounterIdentities, SimAndLiveAgreeOnTheHitRate) {
  WorkloadConfig w;
  w.keyspace = 1'000'000;
  w.zipf_alpha = 0.99;
  w.write_ratio = 0.0;
  w.value_bytes = 16;

  LiveRackParams lp;
  lp.num_nodes = 4;
  lp.consistency = ConsistencyModel::kSc;
  lp.workload = w;
  lp.cache_capacity = 1'000;
  lp.ops_per_node = 200'000 / kScale;
  lp.seed = 5;
  LiveRack live(lp);
  const LiveReport lr = live.Run();
  ASSERT_TRUE(lr.ok()) << lr.transport_error;

  RackParams sp;
  sp.kind = SystemKind::kCcKvs;
  sp.consistency = ConsistencyModel::kSc;
  sp.num_nodes = 4;
  sp.workload = w;
  sp.cache_capacity = 1'000;
  sp.seed = 5;
  RackSimulation sim(sp);
  const RackReport sr = sim.Run(/*measure_ns=*/1'000'000, /*warmup_ns=*/100'000);

  EXPECT_GT(sr.completed, 100'000u);
  EXPECT_NEAR(lr.rack.hit_rate, sr.hit_rate, 0.01)
      << "live " << lr.rack.hit_rate << " vs sim " << sr.hit_rate;
}

}  // namespace
}  // namespace cckvs
