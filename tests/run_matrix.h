#ifndef SMDB_TESTS_RUN_MATRIX_H_
#define SMDB_TESTS_RUN_MATRIX_H_

// Fans independent simulator runs out over a ThreadPool. Each task builds
// its own Harness, and with it its own Database, so runs share no state.
// Reports land in per-index slots; callers compare them on the main thread
// in matrix order, so a failure reads the same at any pool width.

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "workload/harness.h"

namespace smdb {

/// Runs every config in a fresh Harness and returns the reports in input
/// order. At most four host threads, to keep memory small.
inline std::vector<Result<HarnessReport>> RunAll(
    const std::vector<HarnessConfig>& cfgs) {
  std::vector<std::optional<Result<HarnessReport>>> slots(cfgs.size());
  ThreadPool pool(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  pool.ParallelFor(cfgs.size(), [&](size_t i) {
    Harness h(cfgs[i]);
    slots[i].emplace(h.Run());
  });
  std::vector<Result<HarnessReport>> out;
  out.reserve(slots.size());
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace smdb

#endif  // SMDB_TESTS_RUN_MATRIX_H_
