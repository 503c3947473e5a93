// Result of a LiveRack run.
//
// The shared report shape (throughput, hit rate, latency percentiles, the
// RACK counter rows) lives in the embedded RackReport so live runs and
// simulator runs are directly comparable.  Live-only observables (wall-clock
// time, the LIVE counter rows, engine stats, batch sizes) ride alongside.

#ifndef CCKVS_RUNTIME_REPORT_H_
#define CCKVS_RUNTIME_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cckvs/params.h"
#include "src/common/histogram.h"
#include "src/protocol/engine.h"
#include "src/runtime/profiler.h"

namespace cckvs {

struct LiveReport {
  RackReport rack;  // mrps here means measured live Mops/s

  double wall_seconds = 0;

  // The LIVE rows of the node counter table (cckvs/counters.h), summed over
  // this process's nodes: completions, transport and coalescing, hot-set and
  // store counters, the allocation audit and tracing.  In a ranked rack they
  // cover the LOCAL rank only (merge across ranks for rack totals).
  CCKVS_NODE_COUNTERS(CCKVS_COUNTER_SKIP, CCKVS_COUNTER_FIELD)

  // Aggregated over all node engines.
  EngineStats engine_totals;
  Histogram batch_sizes;  // messages per shipped batch

  // Cross-process transport (runtime/fabric.h).  Empty on a healthy run; a
  // fabric fault (peer hangup mid-frame, connect refused, undecodable frame)
  // lands here instead of hanging the run.
  std::string transport_error;

  // Per-interval per-node time series (params.profile; runtime/profiler.h).
  std::vector<ProfilerSample> profiler_samples;

  // Trace export failure (params.trace_path; runtime/tracing.h), if any — a
  // trace failure never fails the run.
  std::string trace_error;

  bool ok() const { return transport_error.empty(); }
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_REPORT_H_
