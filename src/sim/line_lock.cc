#include "sim/line_lock.h"

#include <algorithm>

namespace smdb {

SimTime LineLockTable::Acquire(LineAddr line, NodeId node, SimTime now) {
  const LineAddr c = line / kChunk;
  if (c >= chunks_.size()) chunks_.resize(c + 1);
  if (chunks_[c] == nullptr) chunks_[c] = std::make_unique<LockState[]>(kChunk);
  LockState& st = chunks_[c][line % kChunk];
  SimTime grant = std::max(now, st.free_at);
  st.holder = node;
  // Until released, the lock is logically unavailable; free_at is updated on
  // Release. Setting it to the grant time keeps back-to-back acquisitions by
  // distinct nodes strictly ordered even if the holder never releases (which
  // would be a bug the tests catch via HeldBy).
  st.free_at = grant;
  return grant;
}

void LineLockTable::Release(LineAddr line, NodeId node, SimTime now) {
  LockState* st = Find(line);
  if (st == nullptr || st->holder != node) return;
  st->holder = kInvalidNode;
  st->free_at = std::max(st->free_at, now);
}

bool LineLockTable::HeldBy(LineAddr line, NodeId node) const {
  const LockState* st = Find(line);
  return st != nullptr && st->holder == node;
}

void LineLockTable::ReleaseAllHeldBy(NodeId node, SimTime now) {
  for (const auto& chunk : chunks_) {
    if (chunk == nullptr) continue;
    for (LineAddr i = 0; i < kChunk; ++i) {
      LockState& st = chunk[i];
      if (st.holder == node) {
        st.holder = kInvalidNode;
        st.free_at = std::max(st.free_at, now);
      }
    }
  }
}

}  // namespace smdb
