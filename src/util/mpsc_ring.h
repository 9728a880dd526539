// Bounded lock-free multi-producer / single-consumer ring buffer.
//
// A Vyukov-style bounded queue specialized for one consumer: each slot
// carries an atomic sequence number that encodes whether it is free for the
// producer whose ticket maps to it (seq == ticket) or holds a value ready
// for the consumer (seq == ticket + 1). Producers claim tickets with one
// compare-exchange on `head_`; the single consumer pops with plain loads and
// one release store per slot, no CAS. Neither side ever takes a lock, so a
// stalled producer cannot block the consumer and vice versa — the property
// the serve ingress path needs to scale past a mutex-guarded deque (see
// src/serve/event_queue.h, whose ingress is one of these rings).
//
// Guarantees:
//   * TryPush is lock-free and wait-free in the absence of contention; under
//     contention a producer retries its CAS but never blocks.
//   * TryPop is single-consumer only (the serve controller's drain phase).
//   * FIFO per ring: values pop in ticket order.
//   * capacity is exact: the (capacity+1)-th unconsumed push is rejected.
//     Storage rounds up to a power of two internally (mask indexing), but the
//     admission bound is the requested capacity, so EventQueueConfig::capacity
//     means what it says even at capacity 1.
//
// TSan-clean: all cross-thread hand-off goes through the slot sequence
// numbers with release/acquire ordering.

#ifndef SRC_UTIL_MPSC_RING_H_
#define SRC_UTIL_MPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace crius {

template <typename T>
class MpscRing {
 public:
  // Holds up to `capacity` values (minimum 1); storage is the next power of
  // two for mask indexing.
  explicit MpscRing(size_t capacity)
      : limit_(capacity < 1 ? 1 : capacity),
        storage_(RoundUpPow2(limit_)),
        mask_(storage_ - 1),
        slots_(std::make_unique<Slot[]>(storage_)) {
    for (size_t i = 0; i < storage_; ++i) {
      slots_[i].seq.store(static_cast<uint64_t>(i), std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  // Multi-producer. Returns false when the ring is full (the value is left
  // untouched so the caller can report backpressure).
  bool TryPush(T&& value) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    while (true) {
      // Exact logical bound. A stale tail_ read only over-estimates the
      // occupancy (tail_ is monotone), so this can spuriously report full
      // under a race but never over-admits.
      if (pos - tail_.load(std::memory_order_relaxed) >= limit_) {
        return false;
      }
      Slot& slot = slots_[pos & mask_];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        // Slot free for ticket `pos`: claim it.
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          slot.value = std::move(value);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failed: `pos` was reloaded; retry with the new ticket.
      } else if (dif < 0) {
        // Slot still holds the value from `storage_` tickets ago: full.
        return false;
      } else {
        // Another producer claimed this ticket; chase the head.
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  // Single-consumer. Returns false when the ring is empty.
  bool TryPop(T* out) {
    const uint64_t pos = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & mask_];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != pos + 1) {
      return false;  // nothing published at this ticket yet
    }
    *out = std::move(slot.value);
    // Free the slot for the producer that will own ticket pos + storage_.
    slot.seq.store(pos + storage_, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  // Racy by nature (producers and the consumer move concurrently); exact
  // when the ring is quiescent. Suitable for depth gauges and backpressure
  // heuristics only.
  size_t SizeApprox() const {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    return head >= tail ? static_cast<size_t>(head - tail) : 0;
  }

  size_t capacity() const { return limit_; }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) {
      p <<= 1;
    }
    return p;
  }

  const size_t limit_;    // exact admission bound (what capacity() reports)
  const size_t storage_;  // physical slot count, power of two
  const size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  // Producers CAS head_; the consumer owns tail_ (atomic only so SizeApprox
  // can read it from other threads).
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

}  // namespace crius

#endif  // SRC_UTIL_MPSC_RING_H_
