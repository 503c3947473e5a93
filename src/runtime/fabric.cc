#include "src/runtime/fabric.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/channel.h"
#include "src/runtime/shm_fabric.h"
#include "src/runtime/socket_fabric.h"

namespace cckvs {
namespace {

// The single-process transport: one lock-free SPSC ring per (src,dst) lane, a
// doorbell per node and a credit matrix of atomics.
// Batches move by value — no serialization on this path, which is what makes
// inproc the baseline the byte-moving backends are diffed against — and so
// each lane also carries a return ring that brings drained batches back to
// the sender that owns them (fabric.h, "batch ownership").
class InprocFabric final : public TransportFabric {
 public:
  explicit InprocFabric(const FabricConfig& config)
      : num_nodes_(config.num_nodes),
        returned_(static_cast<std::size_t>(config.num_nodes) * config.num_nodes) {
    const auto n = static_cast<std::size_t>(num_nodes_);
    // Self-lanes exist but stay unused (a node never delivers to itself);
    // their ring storage is never touched.
    lanes_.reserve(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
      lanes_.push_back(std::make_unique<Lane>(config.channel_capacity));
    }
    doorbells_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      doorbells_.push_back(std::make_unique<Doorbell>());
    }
  }

  void Deliver(NodeId to, WireBatch&& batch, WireBatchPool* pool) override {
    (void)pool;  // the batch itself travels; Release brings it back
    Lane& lane = GetLane(batch.src, to);
    if (!lane.batches.TryPush(std::move(batch))) {
      lane.full_waits.fetch_add(1, std::memory_order_relaxed);
      while (!lane.batches.TryPush(std::move(batch))) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    lane.pushes.store(lane.pushes.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);  // src is the only writer
    doorbells_[to]->Ring();
  }

  std::size_t Drain(NodeId self, std::vector<WireBatch>* out, std::size_t max,
                    WireBatchPool* pool) override {
    (void)pool;
    const auto append = [out](WireBatch&& b) { out->push_back(std::move(b)); };
    std::size_t moved = 0;
    for (int src = 0; src < num_nodes_ && moved < max; ++src) {
      if (src != self) {
        Lane& lane = GetLane(static_cast<NodeId>(src), self);
        moved += lane.batches.Consume(max - moved, append);
      }
    }
    return moved;
  }

  void Release(NodeId self, WireBatch&& batch, WireBatchPool* pool) override {
    Lane& lane = GetLane(batch.src, self);
    if (!lane.returns.TryPush(std::move(batch))) {
      pool->Recycle(std::move(batch));  // backstop: ownership moves to self
    }
  }

  void Reclaim(NodeId self, WireBatchPool* pool) override {
    const auto recycle = [pool](WireBatch&& b) { pool->Recycle(std::move(b)); };
    for (int dst = 0; dst < num_nodes_; ++dst) {
      if (dst != self) {
        GetLane(self, static_cast<NodeId>(dst)).returns.Consume(SIZE_MAX, recycle);
      }
    }
  }

  void Wait(NodeId self, std::chrono::microseconds timeout) override {
    doorbells_[self]->Wait(timeout, [this, self] { return InboundDepth(self) > 0; });
  }

  void ReturnCredits(NodeId self, NodeId to, int n) override {
    // The live analogue of the header-only credit-update message: an atomic
    // add on the sender's (to's) counter for the to->self direction.
    Cell(to, self).fetch_add(n, std::memory_order_release);
  }

  int TakeReturnedCredits(NodeId self, NodeId peer) override {
    return Cell(self, peer).exchange(0, std::memory_order_acquire);
  }

  FabricStats stats(NodeId self) const override {
    FabricStats s;
    for (int src = 0; src < num_nodes_; ++src) {
      if (src != self) {
        const Lane& lane = GetLane(static_cast<NodeId>(src), self);
        s.pushes += lane.pushes.load(std::memory_order_relaxed);
        s.full_waits += lane.full_waits.load(std::memory_order_relaxed);
      }
    }
    s.wakeups = doorbells_[self]->wakeups();
    return s;
  }

  std::uint64_t InboundDepth(NodeId self) const override {
    std::uint64_t depth = 0;
    for (int src = 0; src < num_nodes_; ++src) {
      if (src != self) {
        depth += GetLane(static_cast<NodeId>(src), self).batches.size();
      }
    }
    return depth;
  }

 private:
  struct Lane {
    explicit Lane(std::size_t capacity) : batches(capacity), returns(capacity) {}
    SpscRing<WireBatch> batches;  // src pushes, dst drains
    SpscRing<WireBatch> returns;  // dst releases drained batches, src reclaims
    // Written by src only, on a line of their own: never beside the return
    // ring's dst-written tail.
    alignas(64) std::atomic<std::uint64_t> pushes{0};
    std::atomic<std::uint64_t> full_waits{0};
  };

  Lane& GetLane(NodeId src, NodeId dst) const {
    return *lanes_[static_cast<std::size_t>(src) * num_nodes_ + dst];
  }

  // Credits peers have returned to `sender`, per returning peer.
  std::atomic<int>& Cell(NodeId sender, NodeId returner) {
    return returned_[static_cast<std::size_t>(sender) * num_nodes_ + returner];
  }

  const int num_nodes_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // [src][dst]
  std::vector<std::unique_ptr<Doorbell>> doorbells_;
  std::vector<std::atomic<int>> returned_;
};

}  // namespace

std::unique_ptr<TransportFabric> MakeFabric(const FabricConfig& config,
                                            const TransportOptions& opts,
                                            std::string* error) {
  CCKVS_CHECK_GE(config.num_nodes, 2);
  switch (opts.kind) {
    case TransportKind::kInproc:
      CCKVS_CHECK_LT(opts.rank, 0);  // inproc cannot span processes
      return std::make_unique<InprocFabric>(config);
    case TransportKind::kShm:
      return MakeShmFabric(config, opts, error);
    case TransportKind::kSocket:
      return MakeSocketFabric(config, opts, error);
  }
  *error = "unknown transport kind";
  return nullptr;
}

}  // namespace cckvs
