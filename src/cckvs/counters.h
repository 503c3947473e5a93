// Every per-node counter, defined once.
//
// Each row of CCKVS_NODE_COUNTERS is X(name, kind, unit, doc).  The row is
// the whole definition: it generates the NodeCounters field, the profiler's
// atomic slot and CSV column, the report field and its JSON key, and the
// row that docs/OBSERVABILITY.md must list (counters_test compares the two).
// Adding a counter is one row here plus the line that increments it where it
// happens; a counter a transport endpoint or a store keeps also needs the
// line in LiveNode::CollectCounters that reads it.
//
// kind:  kFlow  — monotonic.  A delta (profiler interval, the simulator's
//                 measured window) subtracts; rack totals sum.
//        kGauge — instantaneous.  A delta keeps the later value; rack totals
//                 sum.
//
// The table takes two row macros.  RACK rows land in RackReport, which the
// simulated and the live rack both fill; LIVE rows land in LiveReport (the
// simulator leaves them 0).  Both are in NodeCounters, in the profiler and in
// every JSON export.  A consumer that wants one side expands the other with
// CCKVS_COUNTER_SKIP.

#ifndef CCKVS_CCKVS_COUNTERS_H_
#define CCKVS_CCKVS_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

// clang-format off
#define CCKVS_NODE_COUNTERS(RACK, LIVE)                                                 \
  LIVE(completed, kFlow, "ops",                                                         \
       "Client ops completed (hits + misses)")                                          \
  LIVE(hit_completed, kFlow, "ops",                                                     \
       "Ops served by the L1 tail or the symmetric cache")                              \
  LIVE(miss_completed, kFlow, "ops",                                                    \
       "Ops served by a home shard, directly or over RPC")                              \
  RACK(updates_sent, kFlow, "msgs",                                                     \
       "Update messages sent")                                                          \
  RACK(invalidations_sent, kFlow, "msgs",                                               \
       "Lin invalidations sent")                                                        \
  RACK(acks_sent, kFlow, "msgs",                                                        \
       "Lin acks sent")                                                                 \
  RACK(credit_updates_sent, kFlow, "msgs",                                              \
       "Explicit broadcast-credit returns sent")                                        \
  RACK(epochs, kFlow, "epochs",                                                         \
       "Hot-set epochs closed (the coordinator's count)")                               \
  RACK(hot_set_churn, kGauge, "keys",                                                   \
       "Keys the last closed epoch replaced (coordinator)")                             \
  RACK(l1_hits, kFlow, "ops",                                                           \
       "Ops served from the node-private L1 tail")                                      \
  RACK(l1_fills, kFlow, "keys",                                                         \
       "Keys admitted to the L1 tail")                                                  \
  RACK(l1_invalidations, kFlow, "keys",                                                 \
       "L1 copies dropped by a write or invalidation")                                  \
  LIVE(epoch_msgs, kFlow, "msgs",                                                       \
       "Hot-set announces, fills and install confirmations sent")                       \
  LIVE(gate_retries, kFlow, "ops",                                                      \
       "Shard ops parked on the residency gate")                                        \
  LIVE(rpcs_sent, kFlow, "rpcs",                                                        \
       "Remote-home misses sent over RPC (ranked racks)")                               \
  LIVE(sc_credit_stalls, kFlow, "ops",                                                  \
       "SC write-hits parked at the credit throttle")                                   \
  LIVE(window_breaks, kFlow, "breaks",                                                  \
       "Issue windows ended early to ship and poll Lin protocol traffic")               \
  LIVE(msgs_sent, kFlow, "msgs",                                                        \
       "Messages the coalescer shipped")                                                \
  LIVE(batches_sent, kFlow, "batches",                                                  \
       "Batches the coalescer shipped")                                                 \
  LIVE(flushes_size, kFlow, "batches",                                                  \
       "Batches closed by the max_batch cap")                                           \
  LIVE(flushes_boundary, kFlow, "batches",                                              \
       "Batches closed at an op boundary")                                              \
  LIVE(flushes_idle, kFlow, "batches",                                                  \
       "Batches closed by the idle backstop (0 when healthy)")                          \
  LIVE(flushes_deadline, kFlow, "batches",                                              \
       "Sub-cap batches held to their flush deadline")                                  \
  LIVE(channel_messages, kFlow, "msgs",                                                 \
       "Messages received")                                                             \
  LIVE(channel_batches, kFlow, "batches",                                               \
       "Batches delivered into this node's inbox")                                      \
  LIVE(channel_full_waits, kFlow, "batches",                                            \
       "Deliveries that found the inbox full (0 when credits are sized right)")         \
  LIVE(credit_parks, kFlow, "msgs",                                                     \
       "Broadcasts parked waiting for credits")                                         \
  LIVE(wakeups, kFlow, "batches",                                                       \
       "Deliveries that woke a parked receiver")                                        \
  LIVE(updates_collapsed, kFlow, "msgs",                                                \
       "Received same-key updates collapsed into one")                                  \
  LIVE(store_read_retries, kFlow, "retries",                                            \
       "Seqlock read retries on this node's shard")                                     \
  LIVE(slab_live_slots, kGauge, "slots",                                                \
       "Live slab slots in this node's shard")                                          \
  LIVE(slab_arena_bytes, kGauge, "bytes",                                               \
       "Slab arena bytes of this node's shard")                                         \
  LIVE(hot_path_allocs, kGauge, "allocs",                                               \
       "Heap allocations in the audited steady-state window (track_allocs)")            \
  LIVE(inbound_depth, kGauge, "batches or bytes",                                       \
       "Inbound fabric occupancy (bytes on shm)")                                       \
  LIVE(spans_recorded, kFlow, "spans",                                                  \
       "Trace spans recorded")                                                          \
  LIVE(spans_dropped, kFlow, "spans",                                                   \
       "Trace spans overwritten by ring wraparound")
// clang-format on

// Row macros for consumers: a field declaration, and a row left out.
#define CCKVS_COUNTER_FIELD(name, kind, unit, doc) std::uint64_t name = 0;
#define CCKVS_COUNTER_SKIP(name, kind, unit, doc)

namespace cckvs {

enum class CounterKind { kFlow, kGauge };

// One node's counters (or a sum, or a delta, of them).
struct NodeCounters {
  CCKVS_NODE_COUNTERS(CCKVS_COUNTER_FIELD, CCKVS_COUNTER_FIELD)

  NodeCounters& operator+=(const NodeCounters& other);
};

struct CounterInfo {
  const char* name;
  CounterKind kind;
  const char* unit;
  const char* doc;
  const char* report;  // "RackReport" or "LiveReport"
  std::uint64_t NodeCounters::*field;
};

#define CCKVS_COUNTER_INFO_RACK(name, kind, unit, doc) \
  CounterInfo{#name, CounterKind::kind, unit, doc, "RackReport", &NodeCounters::name},
#define CCKVS_COUNTER_INFO_LIVE(name, kind, unit, doc) \
  CounterInfo{#name, CounterKind::kind, unit, doc, "LiveReport", &NodeCounters::name},
inline constexpr CounterInfo kNodeCounters[] = {
    CCKVS_NODE_COUNTERS(CCKVS_COUNTER_INFO_RACK, CCKVS_COUNTER_INFO_LIVE)};
#undef CCKVS_COUNTER_INFO_RACK
#undef CCKVS_COUNTER_INFO_LIVE
inline constexpr std::size_t kNumNodeCounters = std::size(kNodeCounters);

// Sums every counter, gauges included (a rack's total slab bytes, say).
inline NodeCounters& NodeCounters::operator+=(const NodeCounters& other) {
  for (const CounterInfo& c : kNodeCounters) {
    this->*c.field += other.*c.field;
  }
  return *this;
}

// The change from `earlier` to `later`: flow counters subtract, gauges keep
// their later value.
inline NodeCounters operator-(NodeCounters later, const NodeCounters& earlier) {
  for (const CounterInfo& c : kNodeCounters) {
    if (c.kind == CounterKind::kFlow) {
      later.*c.field -= earlier.*c.field;
    }
  }
  return later;
}

}  // namespace cckvs

#endif  // CCKVS_CCKVS_COUNTERS_H_
