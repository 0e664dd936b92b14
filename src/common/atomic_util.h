#ifndef SMDB_COMMON_ATOMIC_UTIL_H_
#define SMDB_COMMON_ATOMIC_UTIL_H_

#include <atomic>
#include <cstdint>

namespace smdb {

/// Relaxed increment of a plain counter field through std::atomic_ref.
///
/// The simulator's stats structs keep plain uint64_t members so that
/// single-threaded readers (metrics registries, digests, tests) see them as
/// ordinary fields, while the on-demand sweeper's pool batches (concurrent
/// redo of records on distinct pages) bump them from worker threads
/// without data races. Counters are pure sums, so relaxed ordering
/// is sufficient and the final totals are schedule-invariant.
inline void AtomicInc(uint64_t& counter, uint64_t delta = 1) {
  std::atomic_ref<uint64_t>(counter).fetch_add(delta,
                                               std::memory_order_relaxed);
}

/// AtomicInc that also returns the post-increment value (sequence number
/// allocation where the caller needs its ticket).
inline uint64_t AtomicIncFetch(uint64_t& counter, uint64_t delta = 1) {
  return std::atomic_ref<uint64_t>(counter).fetch_add(
             delta, std::memory_order_relaxed) +
         delta;
}

/// Relaxed racy-read of a plain counter that workers may be bumping.
inline uint64_t AtomicLoad(const uint64_t& counter) {
  return std::atomic_ref<const uint64_t>(counter).load(
      std::memory_order_relaxed);
}

/// Monotonic clock advance: counter = max(counter, floor) + delta, applied
/// atomically. Used for the per-node simulated clocks, whose jump-to-max
/// semantics (line-lock hand-offs) must stay race-free while the on-demand
/// sweeper's pool batches charge performers concurrently.
inline uint64_t AtomicAdvance(uint64_t& counter, uint64_t floor,
                              uint64_t delta) {
  std::atomic_ref<uint64_t> ref(counter);
  uint64_t cur = ref.load(std::memory_order_relaxed);
  while (true) {
    uint64_t next = (cur > floor ? cur : floor) + delta;
    if (ref.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return next;
    }
  }
}

}  // namespace smdb

#endif  // SMDB_COMMON_ATOMIC_UTIL_H_
