#include "src/runtime/profiler.h"

#include <chrono>

#include "src/common/check.h"

namespace cckvs {
namespace {

ProfilerSample LoadTotals(const WorkerCounters& c, int node, std::uint64_t ts_ms) {
  ProfilerSample s;
  s.ts_ms = ts_ms;
  s.node = node;
  s.ops = c.ops.load(std::memory_order_relaxed);
  s.hits = c.hits.load(std::memory_order_relaxed);
  s.misses = c.misses.load(std::memory_order_relaxed);
  s.rpcs = c.rpcs.load(std::memory_order_relaxed);
  s.msgs_sent = c.msgs_sent.load(std::memory_order_relaxed);
  s.batches_sent = c.batches_sent.load(std::memory_order_relaxed);
  s.flush_size = c.flush_size.load(std::memory_order_relaxed);
  s.flush_boundary = c.flush_boundary.load(std::memory_order_relaxed);
  s.flush_idle = c.flush_idle.load(std::memory_order_relaxed);
  s.flush_deadline = c.flush_deadline.load(std::memory_order_relaxed);
  s.l1_hits = c.l1_hits.load(std::memory_order_relaxed);
  s.l1_invalidations = c.l1_invalidations.load(std::memory_order_relaxed);
  s.l1_fills = c.l1_fills.load(std::memory_order_relaxed);
  s.allocs = c.allocs.load(std::memory_order_relaxed);
  s.inbound_depth = c.inbound_depth.load(std::memory_order_relaxed);
  return s;
}

}  // namespace

const char* ProfilerCsvHeader() {
  return "ts_ms,node,ops,hits,misses,rpcs,msgs_sent,batches_sent,flush_size,"
         "flush_boundary,flush_idle,flush_deadline,l1_hits,l1_invalidations,"
         "l1_fills,allocs,inbound_depth";
}

Profiler::Profiler(const Options& options, const std::vector<WorkerCounters>* counters)
    : options_(options), counters_(counters) {
  CCKVS_CHECK(counters_ != nullptr);
  CCKVS_CHECK_GE(options_.interval_ms, 1u);
  prev_.resize(counters_->size());
}

Profiler::~Profiler() { Stop(); }

void Profiler::Start() {
  CCKVS_CHECK(!started_ && "Profiler::Start is single-shot");
  started_ = true;
  start_ = std::chrono::steady_clock::now();
  if (!options_.csv_path.empty()) {
    csv_ = std::fopen(options_.csv_path.c_str(), "w");
    // A bad path degrades to in-memory samples only; the run itself proceeds.
  }
  if (csv_ != nullptr) {
    std::fprintf(csv_, "%s\n", ProfilerCsvHeader());
  }
  thread_ = std::thread([this] { Loop(); });
}

void Profiler::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Final partial-interval sample: totals since the last tick, so a run
  // shorter than one interval still yields one row per node.
  const auto now = std::chrono::steady_clock::now();
  const auto ts_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_).count());
  SampleOnce(ts_ms);
  if (csv_ != nullptr) {
    std::fclose(csv_);
    csv_ = nullptr;
  }
}

void Profiler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    const bool stopping = cv_.wait_for(
        lock, std::chrono::milliseconds(options_.interval_ms),
        [this] { return stop_requested_; });
    if (stopping) {
      return;  // Stop() takes the final sample after the join
    }
    const auto now = std::chrono::steady_clock::now();
    const auto ts_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
            .count());
    SampleOnce(ts_ms);
  }
}

void Profiler::SampleOnce(std::uint64_t ts_ms) {
  for (std::size_t i = 0; i < counters_->size(); ++i) {
    const ProfilerSample totals =
        LoadTotals((*counters_)[i], static_cast<int>(i), ts_ms);
    ProfilerSample& prev = prev_[i];
    ProfilerSample delta = totals;  // gauges + identity fields carry over
    delta.ops = totals.ops - prev.ops;
    delta.hits = totals.hits - prev.hits;
    delta.misses = totals.misses - prev.misses;
    delta.rpcs = totals.rpcs - prev.rpcs;
    delta.msgs_sent = totals.msgs_sent - prev.msgs_sent;
    delta.batches_sent = totals.batches_sent - prev.batches_sent;
    delta.flush_size = totals.flush_size - prev.flush_size;
    delta.flush_boundary = totals.flush_boundary - prev.flush_boundary;
    delta.flush_idle = totals.flush_idle - prev.flush_idle;
    delta.flush_deadline = totals.flush_deadline - prev.flush_deadline;
    delta.l1_hits = totals.l1_hits - prev.l1_hits;
    delta.l1_invalidations = totals.l1_invalidations - prev.l1_invalidations;
    delta.l1_fills = totals.l1_fills - prev.l1_fills;
    prev = totals;
    samples_.push_back(delta);
    Emit(delta);
  }
}

void Profiler::Emit(const ProfilerSample& s) {
  if (csv_ == nullptr) {
    return;
  }
  std::fprintf(csv_,
               "%llu,%d,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
               "%llu,%llu,%llu,%llu,%llu\n",
               static_cast<unsigned long long>(s.ts_ms), s.node,
               static_cast<unsigned long long>(s.ops),
               static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses),
               static_cast<unsigned long long>(s.rpcs),
               static_cast<unsigned long long>(s.msgs_sent),
               static_cast<unsigned long long>(s.batches_sent),
               static_cast<unsigned long long>(s.flush_size),
               static_cast<unsigned long long>(s.flush_boundary),
               static_cast<unsigned long long>(s.flush_idle),
               static_cast<unsigned long long>(s.flush_deadline),
               static_cast<unsigned long long>(s.l1_hits),
               static_cast<unsigned long long>(s.l1_invalidations),
               static_cast<unsigned long long>(s.l1_fills),
               static_cast<unsigned long long>(s.allocs),
               static_cast<unsigned long long>(s.inbound_depth));
}

}  // namespace cckvs
