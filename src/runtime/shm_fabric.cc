// Shared-memory fabric implementation.  Region layout (all offsets 64-byte
// aligned, sized for num_nodes = n):
//
//   ShmHeader                      magic / ready / geometry
//   ShmDoorbell[n]                 process-shared mutex+cond per consumer
//   CreditCell[n*n]                credits returned to sender i by peer j
//   n*n x { RingHdr, ring_bytes }  SPSC byte ring per (src,dst) lane
//
// Each ring carries length-prefixed frames: [u32 len][serialized WireBatch].
// The producer (owning thread of src, possibly in another process) owns
// tail; the consumer (owning thread of dst) owns head; head/tail are free-
// running byte counters, so full/empty are exact and no slot is wasted.
// RingHdr gives each owner its own line pair (kAlign): tail, the producer's
// cached copy of head and the lane's push counter in one; head and the
// consumer's cached copy of tail in the other.  Each side re-reads the other's
// counter only when its copy says full (producer) or empty (consumer), as
// SpscRing does, so a busy lane moves each line once per refresh, not per
// frame.  A push counter per lane has one writer, so counting a frame is a
// plain store; stats() sums a node's inbound lanes.
//
// Lost-wakeup argument (mirrors channel.h's Doorbell): the producer publishes
// tail with release order, issues a seq_cst fence and reads `parked`; the
// consumer sets `parked` under its doorbell mutex, issues the same fence and
// re-checks every lane before sleeping.  The fences order the two stores
// against the two loads, so either the producer sees parked=1 — it then takes
// the mutex, re-checks `parked` and signals — or the consumer sees the new
// tail and never sleeps.  A producer that finds nobody parked takes no lock
// at all.  One frame signals at most once: wakeup-once-per-batch, as the
// conformance suite demands.
//
// Batches never cross threads here (fabric.h, "batch ownership"): Deliver
// serializes the sender's batch and recycles it into the sender's pool, and
// Drain decodes into the receiver's own batches.
//
// A full ring is the §6.3 backstop, not a steady state (credits bound bytes
// in flight); the producer counts one full_wait and spins with short sleeps
// until the consumer drains.

#include "src/runtime/shm_fabric.h"

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

constexpr std::uint64_t kMagic = 0x63634b56536d3366ull;  // "ccKVSm3f"
// Region and field alignment: a 128-byte line pair, not one 64-byte line.
// The L2 spatial prefetcher fetches lines in 128-byte-aligned pairs, so two
// owners' fields in one pair still trade traffic.  On a 4-core Xeon host,
// perfbench lin_write's p50 measured ~9% worse with the ring's producer and
// consumer fields 64 bytes apart than either with head and tail sharing one
// line or with them 128 bytes apart.
constexpr std::size_t kAlign = 128;

struct ShmHeader {
  std::atomic<std::uint64_t> magic;
  std::atomic<std::uint32_t> ready;
  std::atomic<std::uint32_t> attached;
  std::uint32_t num_nodes;
  std::uint32_t pad;
  std::uint64_t ring_bytes;
};

struct alignas(kAlign) ShmDoorbell {
  pthread_mutex_t mu;
  pthread_cond_t cv;
  std::atomic<std::uint32_t> parked;  // written under mu, read lock-free
  std::atomic<std::uint64_t> full_waits;
  std::atomic<std::uint64_t> wakeups;
};

struct alignas(kAlign) CreditCell {
  std::atomic<int> v;
};

struct RingHdr {
  struct alignas(kAlign) {
    std::atomic<std::uint64_t> tail;
    std::uint64_t head_seen;            // producer's copy of head
    std::atomic<std::uint64_t> pushes;  // frames delivered (one writer)
  } prod;
  struct alignas(kAlign) {
    std::atomic<std::uint64_t> head;
    std::uint64_t tail_seen;  // consumer's copy of tail
  } cons;
};

// Address-free atomics are required for cross-process use.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
static_assert(std::atomic<int>::is_always_lock_free);

std::size_t AlignUp(std::size_t x) { return (x + kAlign - 1) & ~(kAlign - 1); }

void CopyIn(std::uint8_t* ring, std::uint64_t cap, std::uint64_t pos,
            const std::uint8_t* src, std::uint64_t n) {
  const std::uint64_t off = pos % cap;
  const std::uint64_t first = std::min(n, cap - off);
  std::memcpy(ring + off, src, first);
  std::memcpy(ring, src + first, n - first);
}

void CopyOut(const std::uint8_t* ring, std::uint64_t cap, std::uint64_t pos,
             std::uint8_t* dst, std::uint64_t n) {
  const std::uint64_t off = pos % cap;
  const std::uint64_t first = std::min(n, cap - off);
  std::memcpy(dst, ring + off, first);
  std::memcpy(dst + first, ring, n - first);
}

std::uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

class ShmFabric final : public TransportFabric {
 public:
  ShmFabric(const FabricConfig& config, const TransportOptions& opts)
      : n_(config.num_nodes),
        ring_bytes_(opts.shm_ring_bytes),
        rank_(opts.rank),
        name_(opts.shm_name),
        tx_scratch_(static_cast<std::size_t>(config.num_nodes)),
        rx_scratch_(static_cast<std::size_t>(config.num_nodes)) {
    // A frame never exceeds its lane, so scratch reserved to the lane size
    // can never grow: the codec path is allocation-free from the first batch.
    // Only the pages a frame actually reaches are ever touched.
    for (PaddedBuffer& b : tx_scratch_) {
      b.buf.reserve(ring_bytes_);
    }
    for (PaddedBuffer& b : rx_scratch_) {
      b.buf.reserve(ring_bytes_);
    }
  }

  ~ShmFabric() override {
    if (base_ != nullptr) {
      munmap(base_, size_);
    }
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  bool Init(int timeout_ms, std::string* error) {
    size_ = TotalSize();
    if (rank_ <= 0) {  // creator: rank 0 or all-in-one
      shm_unlink(name_.c_str());  // clear a stale region from a dead run
      fd_ = shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
      if (fd_ < 0) {
        *error = "shm_open(create " + name_ + "): " + std::strerror(errno);
        return false;
      }
      if (ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
        *error = "ftruncate(" + name_ + "): " + std::strerror(errno);
        return false;
      }
      if (!Map(error)) {
        return false;
      }
      InitRegion();
      if (rank_ < 0) {
        shm_unlink(name_.c_str());  // nobody else attaches
      }
      return true;
    }
    // Joiner: the creator may not have called shm_open yet — retry until the
    // object exists, is fully sized, and the ready flag is up.
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
    while (true) {
      fd_ = shm_open(name_.c_str(), O_RDWR, 0600);
      if (fd_ >= 0) {
        struct stat st;
        if (fstat(fd_, &st) == 0 && static_cast<std::size_t>(st.st_size) >= size_) {
          break;
        }
        close(fd_);
        fd_ = -1;
      }
      if (NowNs() > deadline) {
        *error = "timed out attaching shm region " + name_;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!Map(error)) {
      return false;
    }
    while (header()->ready.load(std::memory_order_acquire) == 0) {
      if (NowNs() > deadline) {
        *error = "timed out waiting for shm region " + name_ + " to become ready";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (header()->magic.load(std::memory_order_acquire) != kMagic ||
        header()->num_nodes != static_cast<std::uint32_t>(n_) ||
        header()->ring_bytes != ring_bytes_) {
      *error = "shm region " + name_ + " has mismatched geometry";
      return false;
    }
    if (header()->attached.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<std::uint32_t>(n_)) {
      shm_unlink(name_.c_str());  // the last rank is in: the name has no use left
    }
    return true;
  }

  void Deliver(NodeId to, WireBatch&& batch, WireBatchPool* pool) override {
    const NodeId src = batch.src;
    // Per-src serialize scratch: in all-in-one mode every node thread
    // delivers through this one fabric object, each as a distinct src.
    Buffer& buf = tx_scratch_[src].buf;
    buf.clear();
    SerializeWireBatch(batch, &buf);
    pool->Recycle(std::move(batch));  // bytes are out; the sender reuses it
    const std::uint64_t frame = 4 + buf.size();
    CCKVS_CHECK_LT(frame, ring_bytes_);  // a frame must fit the lane
    RingHdr* r = ring_hdr(src, to);
    std::uint8_t* data = ring_data(src, to);
    const std::uint64_t tail = r->prod.tail.load(std::memory_order_relaxed);
    if (ring_bytes_ - (tail - r->prod.head_seen) < frame) {
      r->prod.head_seen = r->cons.head.load(std::memory_order_acquire);
      if (ring_bytes_ - (tail - r->prod.head_seen) < frame) {
        doorbell(to)->full_waits.fetch_add(1, std::memory_order_relaxed);
        do {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          r->prod.head_seen = r->cons.head.load(std::memory_order_acquire);
        } while (ring_bytes_ - (tail - r->prod.head_seen) < frame);
      }
    }
    std::uint8_t len_le[4];
    const auto len = static_cast<std::uint32_t>(buf.size());
    len_le[0] = static_cast<std::uint8_t>(len);
    len_le[1] = static_cast<std::uint8_t>(len >> 8);
    len_le[2] = static_cast<std::uint8_t>(len >> 16);
    len_le[3] = static_cast<std::uint8_t>(len >> 24);
    CopyIn(data, ring_bytes_, tail, len_le, 4);
    CopyIn(data, ring_bytes_, tail + 4, buf.data(), buf.size());
    r->prod.tail.store(tail + frame, std::memory_order_release);
    r->prod.pushes.store(r->prod.pushes.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    ShmDoorbell* d = doorbell(to);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (d->parked.load(std::memory_order_relaxed) == 0) {
      return;  // nobody parked: the consumer's re-check will see the frame
    }
    pthread_mutex_lock(&d->mu);
    const bool wake = d->parked.load(std::memory_order_relaxed) != 0;
    if (wake) {
      d->wakeups.fetch_add(1, std::memory_order_relaxed);
    }
    pthread_mutex_unlock(&d->mu);
    if (wake) {
      pthread_cond_signal(&d->cv);
    }
  }

  std::size_t Drain(NodeId self, std::vector<WireBatch>* out, std::size_t max,
                    WireBatchPool* pool) override {
    // Per-self receive scratch: in all-in-one mode every node thread drains
    // through this one fabric object concurrently (each on its own lanes).
    Buffer& scratch = rx_scratch_[self].buf;
    std::size_t moved = 0;
    for (int src = 0; src < n_ && moved < max; ++src) {
      if (src == self) {
        continue;
      }
      RingHdr* r = ring_hdr(static_cast<NodeId>(src), self);
      const std::uint8_t* data = ring_data(static_cast<NodeId>(src), self);
      while (moved < max) {
        const std::uint64_t head = r->cons.head.load(std::memory_order_relaxed);
        if (head == r->cons.tail_seen) {
          r->cons.tail_seen = r->prod.tail.load(std::memory_order_acquire);
          if (head == r->cons.tail_seen) {
            break;
          }
        }
        const std::uint64_t tail = r->cons.tail_seen;
        std::uint8_t len_le[4];
        CopyOut(data, ring_bytes_, head, len_le, 4);
        const std::uint32_t len = static_cast<std::uint32_t>(len_le[0]) |
                                  (static_cast<std::uint32_t>(len_le[1]) << 8) |
                                  (static_cast<std::uint32_t>(len_le[2]) << 16) |
                                  (static_cast<std::uint32_t>(len_le[3]) << 24);
        // tail is published frame-atomically, so a partial frame here means
        // corruption, not a race.
        CCKVS_CHECK_LE(static_cast<std::uint64_t>(len) + 4, tail - head);
        scratch.resize(len);
        CopyOut(data, ring_bytes_, head + 4, scratch.data(), len);
        r->cons.head.store(head + 4 + len, std::memory_order_release);
        WireBatch batch = pool->Acquire();  // decode into self's warm slots
        if (!TryDeserializeWireBatch(scratch.data(), len, &batch)) {
          SetError("shm lane " + std::to_string(src) + "->" +
                   std::to_string(static_cast<int>(self)) +
                   ": undecodable frame of " + std::to_string(len) + " bytes");
          pool->Recycle(std::move(batch));
          continue;
        }
        out->push_back(std::move(batch));
        ++moved;
      }
    }
    return moved;
  }

  void Wait(NodeId self, std::chrono::microseconds timeout) override {
    ShmDoorbell* d = doorbell(self);
    timespec abs;
    clock_gettime(CLOCK_MONOTONIC, &abs);
    const std::uint64_t ns = static_cast<std::uint64_t>(abs.tv_nsec) +
                             static_cast<std::uint64_t>(timeout.count()) * 1000ull;
    abs.tv_sec += static_cast<time_t>(ns / 1'000'000'000ull);
    abs.tv_nsec = static_cast<long>(ns % 1'000'000'000ull);
    pthread_mutex_lock(&d->mu);
    d->parked.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    while (!HasInbound(self)) {
      if (pthread_cond_timedwait(&d->cv, &d->mu, &abs) == ETIMEDOUT) {
        break;
      }
    }
    d->parked.store(0, std::memory_order_relaxed);
    pthread_mutex_unlock(&d->mu);
  }

  void ReturnCredits(NodeId self, NodeId to, int n) override {
    credit_cell(to, self)->v.fetch_add(n, std::memory_order_release);
  }

  int TakeReturnedCredits(NodeId self, NodeId peer) override {
    return credit_cell(self, peer)->v.exchange(0, std::memory_order_acquire);
  }

  FabricStats stats(NodeId self) const override {
    const ShmDoorbell* d = doorbell(self);
    FabricStats s{0, d->full_waits.load(std::memory_order_relaxed),
                  d->wakeups.load(std::memory_order_relaxed)};
    for (int src = 0; src < n_; ++src) {
      if (src != self) {
        s.pushes += ring_hdr(static_cast<NodeId>(src), self)
                        ->prod.pushes.load(std::memory_order_relaxed);
      }
    }
    return s;
  }

  std::uint64_t InboundDepth(NodeId self) const override {
    // Undrained BYTES across self's inbound lanes (the shm bound is bytes,
    // not batches).  Relaxed snapshot — profiler gauge only.
    std::uint64_t bytes = 0;
    for (int src = 0; src < n_; ++src) {
      if (src == self) {
        continue;
      }
      const RingHdr* r = ring_hdr(static_cast<NodeId>(src), self);
      bytes += r->prod.tail.load(std::memory_order_relaxed) -
               r->cons.head.load(std::memory_order_relaxed);
    }
    return bytes;
  }

  std::string error() const override {
    std::lock_guard<std::mutex> lock(error_mu_);
    return error_;
  }

  bool faulted() const override {
    return faulted_.load(std::memory_order_acquire);
  }

 private:
  // --- layout ---
  std::size_t HeaderOff() const { return 0; }
  std::size_t DoorbellOff() const { return AlignUp(sizeof(ShmHeader)); }
  std::size_t CreditOff() const {
    return DoorbellOff() + static_cast<std::size_t>(n_) * sizeof(ShmDoorbell);
  }
  std::size_t RingsOff() const {
    return AlignUp(CreditOff() +
                   static_cast<std::size_t>(n_) * n_ * sizeof(CreditCell));
  }
  std::size_t RingStride() const {
    return AlignUp(sizeof(RingHdr) + ring_bytes_);
  }
  std::size_t TotalSize() const {
    return RingsOff() + static_cast<std::size_t>(n_) * n_ * RingStride();
  }

  ShmHeader* header() const { return reinterpret_cast<ShmHeader*>(base_); }
  ShmDoorbell* doorbell(NodeId id) const {
    return reinterpret_cast<ShmDoorbell*>(base_ + DoorbellOff()) + id;
  }
  CreditCell* credit_cell(NodeId sender, NodeId returner) const {
    return reinterpret_cast<CreditCell*>(base_ + CreditOff()) +
           static_cast<std::size_t>(sender) * n_ + returner;
  }
  std::uint8_t* LaneBase(NodeId src, NodeId dst) const {
    return base_ + RingsOff() +
           (static_cast<std::size_t>(src) * n_ + dst) * RingStride();
  }
  RingHdr* ring_hdr(NodeId src, NodeId dst) const {
    return reinterpret_cast<RingHdr*>(LaneBase(src, dst));
  }
  std::uint8_t* ring_data(NodeId src, NodeId dst) const {
    return LaneBase(src, dst) + AlignUp(sizeof(RingHdr));
  }

  bool HasInbound(NodeId self) const {
    for (int src = 0; src < n_; ++src) {
      if (src == self) {
        continue;
      }
      const RingHdr* r = ring_hdr(static_cast<NodeId>(src), self);
      if (r->prod.tail.load(std::memory_order_acquire) !=
          r->cons.head.load(std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  bool Map(std::string* error) {
    void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    if (p == MAP_FAILED) {
      *error = "mmap(" + name_ + "): " + std::strerror(errno);
      return false;
    }
    base_ = static_cast<std::uint8_t*>(p);
    return true;
  }

  void InitRegion() {
    std::memset(base_, 0, size_);
    ShmHeader* h = header();
    h->num_nodes = static_cast<std::uint32_t>(n_);
    h->ring_bytes = ring_bytes_;
    pthread_mutexattr_t ma;
    pthread_mutexattr_init(&ma);
    pthread_mutexattr_setpshared(&ma, PTHREAD_PROCESS_SHARED);
    pthread_condattr_t ca;
    pthread_condattr_init(&ca);
    pthread_condattr_setpshared(&ca, PTHREAD_PROCESS_SHARED);
    pthread_condattr_setclock(&ca, CLOCK_MONOTONIC);
    for (int i = 0; i < n_; ++i) {
      ShmDoorbell* d = doorbell(static_cast<NodeId>(i));
      pthread_mutex_init(&d->mu, &ma);
      pthread_cond_init(&d->cv, &ca);
    }
    pthread_mutexattr_destroy(&ma);
    pthread_condattr_destroy(&ca);
    // The ring_bytes/ring-stride geometry above must match on every rank;
    // joiners verify it against the header.
    h->magic.store(kMagic, std::memory_order_release);
    h->attached.store(1, std::memory_order_release);
    h->ready.store(1, std::memory_order_release);
  }

  void SetError(const std::string& e) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_.empty()) {
      error_ = e;
    }
    faulted_.store(true, std::memory_order_release);
  }

  const int n_;
  const std::uint64_t ring_bytes_;
  const int rank_;  // < 0: all-in-one
  const std::string name_;
  int fd_ = -1;
  std::size_t size_ = 0;
  std::uint8_t* base_ = nullptr;
  std::atomic<bool> faulted_{false};
  mutable std::mutex error_mu_;
  std::string error_;
  // Reused serialize/deserialize buffers: tx indexed by src (each node thread
  // delivers only as itself), rx indexed by self (each drains only its own).
  // One line each: in all-in-one mode the node threads write their own
  // buffer's header (size) on every frame.
  struct alignas(kAlign) PaddedBuffer {
    Buffer buf;
  };
  std::vector<PaddedBuffer> tx_scratch_;
  std::vector<PaddedBuffer> rx_scratch_;
};

}  // namespace

std::unique_ptr<TransportFabric> MakeShmFabric(const FabricConfig& config,
                                               const TransportOptions& opts,
                                               std::string* error) {
  auto fabric = std::make_unique<ShmFabric>(config, opts);
  if (!fabric->Init(opts.connect_timeout_ms, error)) {
    return nullptr;
  }
  return fabric;
}

}  // namespace cckvs
