#include "src/cckvs/report_util.h"

#include "src/net/network.h"

namespace cckvs {

void FillReport(const NodeCounters& totals, double duration_ns,
                const Histogram& latency, RackReport* report) {
  report->completed = totals.completed;
  if (duration_ns > 0) {
    report->mrps = static_cast<double>(totals.completed) / duration_ns * 1e3;
    report->hit_mrps = static_cast<double>(totals.hit_completed) / duration_ns * 1e3;
    report->miss_mrps = static_cast<double>(totals.miss_completed) / duration_ns * 1e3;
    report->hit_rate = totals.completed == 0
                           ? 0.0
                           : static_cast<double>(totals.hit_completed) /
                                 static_cast<double>(totals.completed);
  }
  report->avg_latency_us = latency.Mean() / 1e3;
  report->p50_latency_us = static_cast<double>(latency.P50()) / 1e3;
  report->p95_latency_us = static_cast<double>(latency.P95()) / 1e3;
  report->p99_latency_us = static_cast<double>(latency.P99()) / 1e3;
#define CCKVS_COUNTER_COPY(name, kind, unit, doc) report->name = totals.name;
  CCKVS_NODE_COUNTERS(CCKVS_COUNTER_COPY, CCKVS_COUNTER_SKIP)
#undef CCKVS_COUNTER_COPY
}

std::vector<std::pair<std::string, double>> ReportFields(const RackReport& r) {
  std::vector<std::pair<std::string, double>> f;
  f.emplace_back("duration_s", r.duration_s);
  f.emplace_back("completed", static_cast<double>(r.completed));
  f.emplace_back("mrps", r.mrps);
  f.emplace_back("hit_rate", r.hit_rate);
  f.emplace_back("hit_mrps", r.hit_mrps);
  f.emplace_back("miss_mrps", r.miss_mrps);
  f.emplace_back("avg_latency_us", r.avg_latency_us);
  f.emplace_back("p50_latency_us", r.p50_latency_us);
  f.emplace_back("p95_latency_us", r.p95_latency_us);
  f.emplace_back("p99_latency_us", r.p99_latency_us);
  f.emplace_back("tx_gbps_per_node", r.tx_gbps_per_node);
  f.emplace_back("header_gbps_per_node", r.header_gbps_per_node);
  f.emplace_back("payload_gbps_per_node", r.payload_gbps_per_node);
  for (int c = 0; c < static_cast<int>(TrafficClass::kNumClasses); ++c) {
    f.emplace_back(std::string("gbps_") + ToString(static_cast<TrafficClass>(c)),
                   r.class_gbps[c]);
  }
  f.emplace_back("worker_utilization", r.worker_utilization);
  f.emplace_back("kvs_utilization", r.kvs_utilization);
#define CCKVS_COUNTER_JSON(name, kind, unit, doc) \
  f.emplace_back(#name, static_cast<double>(r.name));
  CCKVS_NODE_COUNTERS(CCKVS_COUNTER_JSON, CCKVS_COUNTER_SKIP)
#undef CCKVS_COUNTER_JSON
  return f;
}

}  // namespace cckvs
