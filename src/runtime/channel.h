// Lock-free lanes for the in-process fabrics: the live runtime's stand-in for
// a UD queue pair.
//
// SpscRing is a bounded single-producer/single-consumer ring.  The inproc
// fabric keeps one per (src, dst) lane — the node thread of src pushes, the
// node thread of dst pops — so per-lane FIFO, the property the Lin protocol
// needs between an invalidation and its update, holds by construction, and
// no lock is taken on either side.  The same ring carries drained batches
// back to the thread that owns them (fabric.h, "batch ownership").
//
// The bound plays the role of the posted-receive depth in src/rdma/verbs.cc:
// the credit scheme in runtime/transport.h is sized so that a lane never
// fills, and a producer spinning on a full lane is only the correctness
// backstop (counted as a full wait, which a healthy run keeps at zero).
//
// Storage is raw memory allocated once at construction; an item is
// constructed in its slot on push and destroyed on pop.  Slots therefore
// never hold an item between uses (a drained ring holds no WireBatch, warm or
// cold), and pages of a large ring that traffic never reaches are never
// touched.
//
// Doorbell parks one consumer over any number of such lanes.  Producers pay
// one fence and one relaxed load per push; the mutex is taken only when the
// consumer is actually parked, so the busy path is lock-free and a batch of N
// messages wakes the consumer at most once.

#ifndef CCKVS_RUNTIME_CHANNEL_H_
#define CCKVS_RUNTIME_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

#include "src/common/check.h"

namespace cckvs {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : capacity_(capacity), slots_(std::allocator<T>().allocate(capacity)) {
    CCKVS_CHECK_GE(capacity, std::size_t{1});
  }
  ~SpscRing() {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    for (std::size_t i = head_.load(std::memory_order_relaxed); i != tail; ++i) {
      slots_[i % capacity_].~T();
    }
    std::allocator<T>().deallocate(slots_, capacity_);
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer only.  Moves `item` into the ring; false (item untouched) when
  // the ring is full.
  bool TryPush(T&& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_seen_ == capacity_) {
      head_seen_ = head_.load(std::memory_order_acquire);
      if (tail - head_seen_ == capacity_) {
        return false;
      }
    }
    new (&slots_[tail % capacity_]) T(std::move(item));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer only.  Hands up to `max` items, oldest first, to fn(T&&) and
  // returns how many; the freed slots are published once, after the last.
  template <typename Fn>
  std::size_t Consume(std::size_t max, Fn&& fn) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_seen_) {
      tail_seen_ = tail_.load(std::memory_order_acquire);
    }
    std::size_t n = 0;
    for (std::size_t i = head; i != tail_seen_ && n < max; ++i, ++n) {
      T& slot = slots_[i % capacity_];
      fn(std::move(slot));
      slot.~T();
    }
    if (n > 0) {
      head_.store(head + n, std::memory_order_release);
    }
    return n;
  }

  // Any thread; a snapshot.  The consumer uses it as its park predicate.
  bool empty() const { return size() == 0; }
  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  const std::size_t capacity_;
  T* const slots_;
  // Free-running counters on separate lines; each side caches the other's
  // counter and re-reads it only when the cached value says full/empty.
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-owned
  std::size_t tail_seen_ = 0;                     // consumer's copy of tail_
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-owned
  std::size_t head_seen_ = 0;                     // producer's copy of head_
};

class Doorbell {
 public:
  // Producer, after publishing an item.  The fence pairs with Wait's: either
  // this load sees the consumer parked, or the consumer's readiness check
  // sees the item — never neither, so a skipped notify is never a lost
  // wakeup.
  void Ring() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!parked_.load(std::memory_order_relaxed)) {
      return;
    }
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake = parked_.load(std::memory_order_relaxed);
      if (wake) {
        wakeups_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (wake) {
      cv_.notify_one();
    }
  }

  // Consumer only.  Sleeps until ready() holds or `timeout` elapses.
  template <typename Ready>
  void Wait(std::chrono::microseconds timeout, Ready&& ready) {
    std::unique_lock<std::mutex> lock(mu_);
    parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    cv_.wait_for(lock, timeout, ready);
    parked_.store(false, std::memory_order_relaxed);
  }

  // Notifies actually issued (a producer found the consumer parked).
  std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> parked_{false};  // written under mu_, read lock-free
  std::atomic<std::uint64_t> wakeups_{0};
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_CHANNEL_H_
