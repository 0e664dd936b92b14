#ifndef SMDB_CORE_LOG_ANALYSIS_H_
#define SMDB_CORE_LOG_ANALYSIS_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/machine.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace smdb {

/// USN of an update, index-op or structural record (0 for other types).
uint64_t RecordUsn(const LogRecord& rec);

/// Log records gathered for a recovery pass, by reference. A stable record
/// is referenced where it lies: a stable stream never moves a record. A
/// volatile-tail record is copied, because a force during the pass (an LBM
/// force fired by a redo's line migration) moves the tail.
class RecordList {
 public:
  struct Entry {
    uint64_t usn;
    const LogRecord* rec;
  };

  RecordList() = default;
  RecordList(RecordList&&) = default;
  RecordList& operator=(RecordList&&) = default;
  RecordList(const RecordList&) = delete;
  RecordList& operator=(const RecordList&) = delete;

  /// References stable record `rec`.
  void Add(const LogRecord& rec) { entries_.push_back({RecordUsn(rec), &rec}); }
  /// Copies volatile record `rec`.
  void AddCopy(const LogRecord& rec) {
    copies_.push_back(rec);
    entries_.push_back({RecordUsn(rec), &copies_.back()});
  }

  /// Sorts by USN, ascending or descending. USNs of update and index-op
  /// records are globally unique, so the order is total.
  void SortByUsn(bool descending);

  size_t size() const { return entries_.size(); }
  const LogRecord& operator[](size_t i) const { return *entries_[i].rec; }
  uint64_t usn(size_t i) const { return entries_[i].usn; }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  /// Owned records; a deque, so that appending never moves them.
  std::deque<LogRecord> copies_;
};

/// The log-analysis pass of a restart recovery: one walk over each node's
/// log that derives what the later phases read, so that none of them walks
/// a log again. The pass covers each node's stable stream up to its last
/// record at pass time (the high-water mark) and reads each live node's
/// volatile tail for finish records only. Records that reach a stable
/// stream later (forces during recovery) and the tails as they are when a
/// phase runs are visited through ForEachSince, which reads only those.
///
/// References into stable streams stay valid for the recovery, and for an
/// on-demand window while it is open: stable records never move, and
/// nothing truncates a log while recovery runs (a checkpoint drains the
/// window first).
class LogAnalysis {
 public:
  /// What one node's log says about one transaction. A transaction whose
  /// records lie in several logs (recovery writes CLRs to the performer's
  /// log) has one entry per log.
  struct TxnFacts {
    TxnId txn = kInvalidTxn;
    /// A record other than a commit or abort is in the stable stream.
    bool begun = false;
    /// A commit or abort record is in the stable stream.
    bool finished = false;
    /// A commit or abort record is in the live node's volatile tail.
    bool finished_in_tail = false;
  };

  /// A stable update, index-op or structural record, with its USN and the
  /// index of its log's TxnFacts entry for its transaction (kNoTxn when the
  /// record carries no transaction).
  struct UsnRef {
    const LogRecord* rec;
    uint64_t usn;
    uint32_t facts;
  };
  static constexpr uint32_t kNoTxn = UINT32_MAX;

  /// Runs the pass. `lock_txns`: transactions whose stable lock-op records
  /// the pass keeps, in log order (the surviving active transactions,
  /// whose lock-table entries recovery may rebuild).
  LogAnalysis(const LogManager& log, const Machine& machine,
              const std::set<TxnId>& lock_txns);

  /// TxnFacts of every (log, transaction) pair, node by node.
  const std::vector<TxnFacts>& txns() const { return txns_; }

  /// `node`'s stable update, index-op and structural records through the
  /// high-water mark, in LSN order — which is USN order too: a node's log
  /// is USN-monotone.
  std::span<const UsnRef> refs(NodeId node) const {
    return {refs_.data() + refs_begin_[node],
            refs_.data() + refs_begin_[node + 1]};
  }

  /// `node`'s stable lock-op records of the `lock_txns` transactions through
  /// the high-water mark, in LSN order.
  std::span<const LogRecord* const> lock_ops(NodeId node) const {
    return {lock_ops_.data() + lock_begin_[node],
            lock_ops_.data() + lock_begin_[node + 1]};
  }

  /// Visits what the pass did not see of `node`'s log as it is now, in LSN
  /// order, as fn(rec, stable): the records forced into the stable stream
  /// since (stable = true; they stay put), then a live node's current
  /// volatile tail (stable = false; a force may move them).
  template <typename Fn>
  void ForEachSince(NodeId node, Fn&& fn) const;

  /// The transaction owning the stable update or index-op record stamped
  /// `usn`, among the records the pass saw; nullopt if there is none.
  std::optional<TxnId> OwnerOf(uint64_t usn) const;

 private:
  const LogManager* log_;
  const Machine* machine_;
  std::vector<TxnFacts> txns_;
  std::vector<UsnRef> refs_;
  std::vector<size_t> refs_begin_;
  std::vector<const LogRecord*> lock_ops_;
  std::vector<size_t> lock_begin_;
  /// Per node: last stable LSN at pass time.
  std::vector<Lsn> hwm_;
};

template <typename Fn>
void LogAnalysis::ForEachSince(NodeId node, Fn&& fn) const {
  log_->ForEachStableAfter(node, hwm_[node],
                           [&](const LogRecord& rec) { fn(rec, true); });
  if (machine_->NodeAlive(node)) {
    log_->ForEachVolatile(node, [&](const LogRecord& rec) { fn(rec, false); });
  }
}

}  // namespace smdb

#endif  // SMDB_CORE_LOG_ANALYSIS_H_
