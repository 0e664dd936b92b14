#ifndef SMDB_WAL_LOG_MANAGER_H_
#define SMDB_WAL_LOG_MANAGER_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/histogram.h"
#include "obs/profiler.h"
#include "storage/stable_log.h"
#include "wal/log_record.h"

namespace smdb {

class Machine;
class TraceRecorder;

/// Statistics for the logging subsystem, used by the Table 1 and
/// log-force-frequency experiments.
struct LogStats {
  /// Batch-size histogram buckets for forces: 1, 2, 3-4, 5-8, 9-16, 17-32,
  /// 33-64, 65+ records per force. The group-commit experiments read the
  /// mass shifting rightwards as the coalescing window grows.
  static constexpr size_t kBatchBuckets = 8;

  uint64_t appends = 0;
  /// Forces that actually wrote records. A force of an empty tail is a
  /// no-op (no I/O is issued), so forces <= forced_records always holds.
  uint64_t forces = 0;
  /// Records made durable, counted once per force from the batch actually
  /// written.
  uint64_t forced_records = 0;
  uint64_t truncated_records = 0;
  /// Forces attributable to the Stable LBM policy (in excess of the commit
  /// forces every protocol performs). Incremented by the LBM policies.
  uint64_t lbm_forces = 0;
  /// Per-force batch sizes, on the shared obs histogram (one bucketing
  /// implementation). The classic 1/2/3-4/.../65+ buckets are derived
  /// views: every boundary is below Histogram::kSubBuckets, where buckets
  /// are unit-width, so the derived counts are exact.
  Histogram force_batches;

  /// Bucket index for a force of `n` records (n >= 1).
  static size_t BatchBucket(size_t n) {
    size_t b = 0;
    for (size_t upper = 1; b + 1 < kBatchBuckets && n > upper; ++b) {
      upper *= 2;
    }
    return b;
  }
  static const char* BatchBucketLabel(size_t bucket) {
    static const char* kLabels[kBatchBuckets] = {"1",     "2",     "3-4",
                                                 "5-8",   "9-16",  "17-32",
                                                 "33-64", "65+"};
    return kLabels[bucket];
  }
  /// Inclusive batch-size range of a classic bucket ({65, UINT64_MAX} for
  /// the last).
  static std::pair<uint64_t, uint64_t> BatchBucketRange(size_t bucket) {
    if (bucket == 0) return {1, 1};
    if (bucket + 1 >= kBatchBuckets) return {(1ULL << (kBatchBuckets - 2)) + 1,
                                             ~0ULL};
    return {(1ULL << (bucket - 1)) + 1, 1ULL << bucket};
  }
  /// Force count in the classic bucket `bucket` (the historical
  /// force_batch_hist[] view).
  uint64_t force_batch_bucket(size_t bucket) const {
    auto [lo, hi] = BatchBucketRange(bucket);
    return force_batches.CountInRange(lo, hi);
  }
  uint64_t max_force_batch() const { return force_batches.max(); }

  void Reset() { *this = LogStats(); }

  /// One-line human-readable dump. Derived from ForEachCounter, so it
  /// covers exactly the visited field set.
  std::string ToString() const;
};

/// Visits every LogStats field as ("name", value) in declaration order,
/// with one entry per histogram bucket ("force_batch_3-4", ...). ToString
/// and the obs MetricsRegistry both derive from this list (obs_test
/// asserts the two stay in sync).
template <typename Fn>
void ForEachCounter(const LogStats& s, Fn&& fn) {
  fn("appends", s.appends);
  fn("forces", s.forces);
  fn("forced_records", s.forced_records);
  fn("truncated_records", s.truncated_records);
  fn("lbm_forces", s.lbm_forces);
  for (size_t b = 0; b < LogStats::kBatchBuckets; ++b) {
    fn(std::string("force_batch_") + LogStats::BatchBucketLabel(b),
       s.force_batch_bucket(b));
  }
  fn("max_force_batch", s.max_force_batch());
}

/// Per-node write-ahead logs with volatile in-cache tails.
///
/// Each node maintains a log whose updates happen in the node's cache
/// (volatile); the tail is destroyed if the node crashes. Forcing moves the
/// tail to the node's stream in the StableLogStore on a shared disk. Log
/// lines never migrate (the paper's alignment assumption), so no other
/// node's crash can damage a log tail.
class LogManager {
 public:
  LogManager(Machine* machine, StableLogStore* stable);

  /// Appends `rec` to `node`'s volatile log tail; assigns and returns its
  /// LSN. Charges the volatile write cost to `node`.
  Lsn Append(NodeId node, LogRecord rec);

  /// Forces `node`'s entire volatile tail to stable storage. `requestor`
  /// pays the I/O cost (it may differ from `node`, e.g. when the WAL page-
  /// flush gate forces another node's log, section 6). Forcing an empty
  /// tail issues no I/O and counts no force — but force hooks still fire,
  /// so observers (triggered LBM, the group-commit pipeline) always see a
  /// consistent "everything appended so far is durable" signal.
  Status Force(NodeId requestor, NodeId node);

  /// Removes the record at `lsn` from `node`'s volatile tail (a withdrawn
  /// group commit: the transaction aborts before its commit record was
  /// forced). No-op if the record already left the tail. The resulting LSN
  /// gap is harmless — redo is USN-guarded, every recovery scan is keyed by
  /// transaction and record type, and the one prev_lsn walk
  /// (TxnManager::Abort) starts below the annulled record, from the
  /// prev_lsn it read before annulling.
  void AnnulVolatile(NodeId node, Lsn lsn);

  /// The record with LSN `lsn` in `node`'s log — retained stable suffix or
  /// volatile tail — or nullptr if it is not there: truncated, annulled,
  /// lost with a crashed node's tail, or never assigned. O(log n) (binary
  /// search in whichever half holds `lsn`). A stable record never moves, so
  /// a pointer to one stays valid until TruncateThrough drops it; a pointer
  /// into the tail is valid until the next Append, Force, AnnulVolatile or
  /// crash of `node`.
  const LogRecord* Find(NodeId node, Lsn lsn) const;

  /// True if `node`'s log is stable through `lsn`.
  bool IsStable(NodeId node, Lsn lsn) const;

  Lsn stable_lsn(NodeId node) const { return stable_->LastLsn(node); }
  Lsn last_lsn(NodeId node) const { return next_lsn_[node] - 1; }

  /// Destroys `node`'s volatile tail (crash injection path; Database wires
  /// this to the machine's crash hook).
  void OnNodeCrash(NodeId node);

  /// Iterates `node`'s durable records in LSN order. The records stay put
  /// (see LogStream): references to them outlive later forces.
  template <typename Fn>
  void ForEachStable(NodeId node, Fn&& fn) const {
    stable_->Records(node).ForEach(fn);
  }

  /// Iterates `node`'s durable records with lsn > `after` (all of them for
  /// kInvalidLsn), in LSN order; the first is found in O(log n).
  template <typename Fn>
  void ForEachStableAfter(NodeId node, Lsn after, Fn&& fn) const {
    stable_->Records(node).ForEachAfter(after, fn);
  }

  /// Iterates `node`'s volatile tail in LSN order. A force moves these
  /// records into the stable stream: copy any that must outlive one.
  template <typename Fn>
  void ForEachVolatile(NodeId node, Fn&& fn) const {
    for (const LogRecord& rec : tails_[node]) fn(rec);
  }

  /// Iterates `node`'s full log — durable prefix then volatile tail. Only
  /// meaningful for surviving nodes (a crashed node's tail is empty).
  template <typename Fn>
  void ForEachAll(NodeId node, Fn&& fn) const {
    ForEachStable(node, fn);
    ForEachVolatile(node, fn);
  }

  /// Volatile tail size (diagnostics/tests).
  size_t TailSize(NodeId node) const {
    return tails_[node].size();
  }

  /// Replay start position management (set by checkpoints).
  void SetCheckpointLsn(NodeId node, Lsn lsn) { checkpoint_lsn_[node] = lsn; }
  Lsn checkpoint_lsn(NodeId node) const { return checkpoint_lsn_[node]; }

  /// Reclaims `node`'s stable log prefix through `lsn`. Callers must keep
  /// the safe point behind both the checkpoint and the oldest active
  /// transaction's first record. Returns # records dropped.
  size_t TruncateThrough(NodeId node, Lsn lsn) {
    // Remember the highest update/index-op USN dropped from this node's
    // log. A node's log is USN-monotone in LSN order, so recovery can tell
    // a checkpoint-truncated record (usn at or below this mark: its
    // transaction had finished, the stable database covers it) from one
    // that only ever existed in a lost volatile tail (above the mark).
    ForEachStable(node, [&](const LogRecord& rec) {
      if (rec.lsn > lsn) return;
      uint64_t usn = 0;
      if (rec.type == LogRecordType::kUpdate) {
        usn = rec.update().usn;
      } else if (rec.type == LogRecordType::kIndexOp) {
        usn = rec.index_op().usn;
      } else if (rec.type == LogRecordType::kStructural) {
        usn = rec.structural().usn;
      }
      if (usn > max_truncated_usn_[node]) max_truncated_usn_[node] = usn;
    });
    size_t n = stable_->Truncate(node, lsn);
    stats_.truncated_records += n;
    return n;
  }

  /// Highest USN ever truncated from `node`'s stable log (0 if none).
  uint64_t max_truncated_usn(NodeId node) const {
    return max_truncated_usn_[node];
  }

  /// Hook fired after a successful force of `node`'s log (the Stable LBM
  /// triggered policy uses it to clear its active-line bookkeeping).
  void AddForceHook(std::function<void(NodeId)> hook) {
    force_hooks_.push_back(std::move(hook));
  }

  LogStats& stats() { return stats_; }
  const LogStats& stats() const { return stats_; }
  StableLogStore& stable_store() { return *stable_; }

  /// Optional event tracer (owned by Database); null = no tracing.
  void set_tracer(TraceRecorder* tracer) { tracer_ = tracer; }
  /// Optional profiler (owned by Database); null = none. Append/Force sim
  /// time is attributed to the wal_append / wal_force phases.
  void set_profiler(Profiler* prof) { prof_ = prof; }

 private:
  Machine* machine_;
  TraceRecorder* tracer_ = nullptr;
  Profiler* prof_ = nullptr;
  StableLogStore* stable_;
  std::vector<std::deque<LogRecord>> tails_;
  std::vector<Lsn> next_lsn_;
  std::vector<Lsn> checkpoint_lsn_;
  std::vector<uint64_t> max_truncated_usn_;
  std::vector<std::function<void(NodeId)>> force_hooks_;
  LogStats stats_;
};

}  // namespace smdb

#endif  // SMDB_WAL_LOG_MANAGER_H_
