#include "core/log_analysis.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace smdb {

uint64_t RecordUsn(const LogRecord& rec) {
  switch (rec.type) {
    case LogRecordType::kUpdate: return rec.update().usn;
    case LogRecordType::kIndexOp: return rec.index_op().usn;
    case LogRecordType::kStructural: return rec.structural().usn;
    default: return 0;
  }
}

void RecordList::SortByUsn(bool descending) {
  if (descending) {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.usn > b.usn; });
  } else {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.usn < b.usn; });
  }
}

namespace {

/// Maps a node log's transactions to their TxnFacts entries. Transactions
/// of the log's own node are looked up by sequence number in a flat table
/// (they are numbered densely from 1); others, and implausibly large
/// sequence numbers, fall back to a hash map.
class FactsIndex {
 public:
  FactsIndex(NodeId node, std::vector<LogAnalysis::TxnFacts>* txns)
      : node_(node), txns_(txns) {}

  /// The entry of `txn`, created if `create`; kNoTxn if absent.
  uint32_t Find(TxnId txn, bool create) {
    if (txn == last_txn_) return last_;
    uint32_t* slot;
    const uint64_t seq = TxnSeq(txn);
    if (TxnNode(txn) == node_ && seq < kFlatSeqs) {
      if (seq >= own_.size()) {
        if (!create) return LogAnalysis::kNoTxn;
        own_.resize(std::min<size_t>(std::max<size_t>(seq + 1, own_.size() * 2),
                                     kFlatSeqs),
                    0);
      }
      slot = &own_[seq];
    } else {
      auto it = other_.find(txn);
      if (it == other_.end()) {
        if (!create) return LogAnalysis::kNoTxn;
        it = other_.emplace(txn, 0).first;
      }
      slot = &it->second;
    }
    if (*slot == 0) {
      if (!create) return LogAnalysis::kNoTxn;
      txns_->push_back({.txn = txn});
      *slot = static_cast<uint32_t>(txns_->size());
    }
    last_txn_ = txn;
    last_ = *slot - 1;
    return last_;
  }

 private:
  static constexpr uint64_t kFlatSeqs = uint64_t{1} << 22;

  NodeId node_;
  std::vector<LogAnalysis::TxnFacts>* txns_;
  /// seq -> entry index + 1 (0 = none).
  std::vector<uint32_t> own_;
  std::unordered_map<TxnId, uint32_t> other_;
  TxnId last_txn_ = kInvalidTxn;
  uint32_t last_ = LogAnalysis::kNoTxn;
};

bool IsFinish(const LogRecord& rec) {
  return rec.type == LogRecordType::kCommit ||
         rec.type == LogRecordType::kAbort;
}

}  // namespace

LogAnalysis::LogAnalysis(const LogManager& log, const Machine& machine,
                         const std::set<TxnId>& lock_txns)
    : log_(&log), machine_(&machine) {
  const NodeId n_nodes = machine.num_nodes();
  refs_begin_.assign(n_nodes + 1, 0);
  lock_begin_.assign(n_nodes + 1, 0);
  hwm_.assign(n_nodes, kInvalidLsn);
  for (NodeId n = 0; n < n_nodes; ++n) {
    refs_begin_[n] = refs_.size();
    lock_begin_[n] = lock_ops_.size();
    hwm_[n] = log.stable_lsn(n);
    FactsIndex index(n, &txns_);
    [[maybe_unused]] uint64_t last_usn = 0;
    log.ForEachStable(n, [&](const LogRecord& rec) {
      uint32_t facts = kNoTxn;
      if (rec.txn != kInvalidTxn) {
        facts = index.Find(rec.txn, /*create=*/true);
        if (IsFinish(rec)) {
          txns_[facts].finished = true;
        } else {
          txns_[facts].begun = true;
        }
      }
      switch (rec.type) {
        case LogRecordType::kUpdate:
        case LogRecordType::kIndexOp:
        case LogRecordType::kStructural: {
          const uint64_t usn = RecordUsn(rec);
          assert(usn > last_usn);  // OwnerOf binary-searches refs(n)
          last_usn = usn;
          refs_.push_back({&rec, usn, facts});
          break;
        }
        case LogRecordType::kLockOp:
          if (lock_txns.contains(rec.txn)) lock_ops_.push_back(&rec);
          break;
        default:
          break;
      }
    });
    if (machine.NodeAlive(n)) {
      // A live node's volatile tail is intact and authoritative: a finish
      // record there marks a transaction its own log has finished.
      log.ForEachVolatile(n, [&](const LogRecord& rec) {
        if (!IsFinish(rec)) return;
        const uint32_t facts = index.Find(rec.txn, /*create=*/false);
        if (facts != kNoTxn) txns_[facts].finished_in_tail = true;
      });
    }
  }
  refs_begin_[n_nodes] = refs_.size();
  lock_begin_[n_nodes] = lock_ops_.size();
}

std::optional<TxnId> LogAnalysis::OwnerOf(uint64_t usn) const {
  for (NodeId n = 0; n < hwm_.size(); ++n) {
    std::span<const UsnRef> r = refs(n);
    auto it = std::partition_point(
        r.begin(), r.end(), [usn](const UsnRef& x) { return x.usn < usn; });
    if (it != r.end() && it->usn == usn &&
        it->rec->type != LogRecordType::kStructural) {
      return it->rec->txn;
    }
  }
  return std::nullopt;
}

}  // namespace smdb
