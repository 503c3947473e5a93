// Live profiling subsystem (ScaleStore-style counter thread).
//
// Every node thread owns a WorkerCounters block and refreshes it with relaxed
// stores once per run-loop iteration, and once more as it exits — no locks,
// no allocation, nothing the hot path has to wait for.  A single background
// Profiler thread samples all blocks once per interval, turns the flow
// counters into per-interval deltas and reads the gauges as-is, then emits
// one CSV row per node per interval.  The samples are also retained in memory
// and folded into LiveReport, so a bench run gets the full time series, not
// just totals.  The counters, their kinds and the CSV columns are the node
// counter table (cckvs/counters.h); docs/OBSERVABILITY.md lists it.
//
// Threading: node threads are the only writers of their block; the profiler
// thread only loads.  All accesses are relaxed — a sample is a snapshot of
// independently-published counters, not a consistent cut, which is all a
// per-second rate display needs.

#ifndef CCKVS_RUNTIME_PROFILER_H_
#define CCKVS_RUNTIME_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cckvs/counters.h"

namespace cckvs {

// One per node thread: an atomic slot per table counter.  Atomics make the
// block non-movable, so hosts size their vector once up front.
class WorkerCounters {
 public:
  void Store(const NodeCounters& c) {
    for (std::size_t i = 0; i < kNumNodeCounters; ++i) {
      slots_[i].store(c.*kNodeCounters[i].field, std::memory_order_relaxed);
    }
  }
  NodeCounters Load() const {
    NodeCounters c;
    for (std::size_t i = 0; i < kNumNodeCounters; ++i) {
      c.*kNodeCounters[i].field = slots_[i].load(std::memory_order_relaxed);
    }
    return c;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumNodeCounters> slots_{};
};

// One row of the time series: node `node` over the interval ending `ts_ms`
// after profiling started.  Flow counters are interval deltas; gauges verbatim.
struct ProfilerSample {
  std::uint64_t ts_ms = 0;
  int node = 0;
  NodeCounters counters;
};

// Header matching ProfilerSample's CSV serialization.
const char* ProfilerCsvHeader();

class Profiler {
 public:
  struct Options {
    std::uint64_t interval_ms = 1000;
    std::string csv_path;       // non-empty: stream rows to this file
  };

  // `counters` must outlive the profiler and hold one block per node.
  Profiler(const Options& options, const std::vector<WorkerCounters>* counters);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void Start();
  // Takes one final sample (so short runs still produce a row per node),
  // joins the thread and closes the CSV stream.  Idempotent.
  void Stop();

  // The retained time series; stable once Stop() returned.
  const std::vector<ProfilerSample>& samples() const { return samples_; }

 private:
  void Loop();
  void SampleOnce(std::uint64_t ts_ms);
  void Emit(const ProfilerSample& s);

  Options options_;
  const std::vector<WorkerCounters>* counters_;
  std::vector<NodeCounters> prev_;  // previous totals, for flow deltas
  std::vector<ProfilerSample> samples_;
  std::FILE* csv_ = nullptr;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_PROFILER_H_
