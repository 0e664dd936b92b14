#ifndef SMDB_CORE_STABLE_STATE_H_
#define SMDB_CORE_STABLE_STATE_H_

#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/log_analysis.h"
#include "db/buffer_manager.h"
#include "db/record_store.h"

namespace smdb {

class Machine;

/// Reconstructs the *last committed value* of a record from stable store —
/// the primitive Selective Redo's tag-based undo relies on: "Given our
/// assumption of the WAL protocol, the last committed value of these
/// records will necessarily be in stable store — either in the stable log,
/// or in the stable database" (section 4.1.2).
///
/// Algorithm: start from the stable database image of the record's page,
/// then replay, in USN order, all update records for the record from every
/// node's reachable log (full logs of surviving nodes, stable logs of
/// crashed ones), skipping the updates of transactions named in
/// `uncommitted` (active transactions, whether crashed or surviving) except
/// their redo-only CLRs. Strict 2PL guarantees at most one active
/// transaction per record, so the skipped updates are always a suffix and
/// the result is exactly the last committed value.
///
/// The per-record index of update records is built on first use, from
/// `analysis` plus what reached the logs since it ran; `analysis` must
/// outlive the reconstructor.
class StableStateReconstructor {
 public:
  StableStateReconstructor(Machine* machine, BufferManager* buffers,
                           RecordStore* records, std::set<TxnId> uncommitted,
                           const LogAnalysis& analysis);

  /// Last committed value (and its USN) of `rid`. `performer` pays for the
  /// stable-database page reads (cached across calls).
  Result<SlotImage> CommittedValue(NodeId performer, RecordId rid);

 private:
  const std::vector<uint8_t>* PageImage(NodeId performer, PageId page);

  Machine* machine_;
  BufferManager* buffers_;
  RecordStore* records_;
  std::set<TxnId> uncommitted_;
  const LogAnalysis* analysis_;
  std::unordered_map<PageId, std::vector<uint8_t>> page_cache_;
  /// rid -> update records for it in USN order, lazily indexed on first
  /// use. Stable records are referenced in place; volatile-tail records
  /// are copied into tail_copies_ (a force may move the tail).
  bool indexed_ = false;
  std::unordered_map<RecordId, std::vector<const LogRecord*>> by_record_;
  std::deque<LogRecord> tail_copies_;

  void BuildIndex();
};

}  // namespace smdb

#endif  // SMDB_CORE_STABLE_STATE_H_
