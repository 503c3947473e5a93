#include "src/runtime/profiler.h"

#include <chrono>

#include "src/common/check.h"

namespace cckvs {

const char* ProfilerCsvHeader() {
#define CCKVS_COUNTER_COLUMN(name, kind, unit, doc) "," #name
  return "ts_ms,node" CCKVS_NODE_COUNTERS(CCKVS_COUNTER_COLUMN, CCKVS_COUNTER_COLUMN);
#undef CCKVS_COUNTER_COLUMN
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
    const NodeCounters totals = (*counters_)[i].Load();
    samples_.push_back(ProfilerSample{ts_ms, static_cast<int>(i), totals - prev_[i]});
    prev_[i] = totals;
    Emit(samples_.back());
  }
}

void Profiler::Emit(const ProfilerSample& s) {
  if (csv_ == nullptr) {
    return;
  }
  std::fprintf(csv_, "%llu,%d", static_cast<unsigned long long>(s.ts_ms), s.node);
  for (const CounterInfo& c : kNodeCounters) {
    std::fprintf(csv_, ",%llu", static_cast<unsigned long long>(s.counters.*c.field));
  }
  std::fputc('\n', csv_);
}

}  // namespace cckvs
