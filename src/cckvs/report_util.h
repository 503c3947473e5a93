// Shared RackReport plumbing.
//
// The simulated rack (cckvs/rack.cc) and the live rack (runtime/live_rack.cc)
// produce the same report shape from the same raw ingredients — summed node
// counters over a duration and a nanosecond latency histogram.  These helpers
// keep the two paths numerically identical, and provide the flat field view
// the bench binaries serialize into their JSON artifacts.

#ifndef CCKVS_CCKVS_REPORT_UTIL_H_
#define CCKVS_CCKVS_REPORT_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cckvs/counters.h"
#include "src/cckvs/params.h"
#include "src/common/histogram.h"

namespace cckvs {

// Fills every report field the node counters determine: throughput and hit
// rate (from completed / hit_completed / miss_completed), the latency
// percentiles (from a nanosecond histogram) and the RACK counter rows.
// `totals` is the rack's sum over nodes; `duration_ns` is simulated time for
// the simulator and wall time for the live rack.
void FillReport(const NodeCounters& totals, double duration_ns,
                const Histogram& latency, RackReport* report);

// Flat name -> value view of every numeric report field (JSON export).
std::vector<std::pair<std::string, double>> ReportFields(const RackReport& report);

}  // namespace cckvs

#endif  // CCKVS_CCKVS_REPORT_UTIL_H_
