#ifndef SMDB_STORAGE_STABLE_LOG_H_
#define SMDB_STORAGE_STABLE_LOG_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace smdb {

/// One node's durable log stream: records in LSN order, held in segments
/// of fixed capacity. A segment never grows past the capacity it was
/// created with, so a record never moves once it is stable: a pointer or
/// reference to a stable record stays valid until Truncate drops it.
/// Segment capacities start at kFirstSegment records and double up to
/// kSegment, so a short run reserves little.
class LogStream {
 public:
  static constexpr size_t kFirstSegment = 64;
  static constexpr size_t kSegment = 4096;

  /// Retained records (after any truncation).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const LogRecord& back() const { return segs_.back().back(); }

  /// The i-th retained record, in LSN order. O(#segments).
  const LogRecord& operator[](size_t i) const {
    i += head_;
    for (const auto& seg : segs_) {
      if (i < seg.size()) return seg[i];
      i -= seg.size();
    }
    return segs_.back().back();  // unreachable for i < size()
  }

  /// Moves `rec` to the end of the stream. Its LSN must exceed every
  /// retained record's.
  void Append(LogRecord&& rec) {
    if (segs_.empty() || segs_.back().size() == segs_.back().capacity()) {
      segs_.emplace_back().reserve(next_capacity_);
      next_capacity_ = std::min(next_capacity_ * 2, kSegment);
    }
    segs_.back().push_back(std::move(rec));
    ++size_;
  }

  /// Drops the records with lsn <= through. Whole segments are freed; in
  /// the first kept segment the dropped records are only skipped (they are
  /// freed with it). Returns the number of records dropped.
  size_t Truncate(Lsn through) {
    size_t dropped = 0;
    while (!segs_.empty() && segs_.front().back().lsn <= through) {
      dropped += segs_.front().size() - head_;
      head_ = 0;
      segs_.erase(segs_.begin());
    }
    if (!segs_.empty()) {
      const auto& seg = segs_.front();
      while (head_ < seg.size() && seg[head_].lsn <= through) {
        ++head_;
        ++dropped;
      }
    }
    size_ -= dropped;
    return dropped;
  }

  /// The retained record with LSN `lsn`, or nullptr. O(log n).
  const LogRecord* Find(Lsn lsn) const {
    auto [s, i] = LowerBound(lsn);
    if (s == segs_.size() || segs_[s][i].lsn != lsn) return nullptr;
    return &segs_[s][i];
  }

  /// Visits every retained record in LSN order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    VisitFrom(0, head_, fn);
  }

  /// Visits the retained records with lsn > `after`, in LSN order; finds
  /// the first in O(log n).
  template <typename Fn>
  void ForEachAfter(Lsn after, Fn&& fn) const {
    if (after == kInvalidLsn) return ForEach(fn);
    auto [s, i] = LowerBound(after + 1);
    VisitFrom(s, i, fn);
  }

  /// Segments currently allocated (tests).
  size_t segment_count() const { return segs_.size(); }

 private:
  /// Position (segment, index) of the first retained record with
  /// lsn >= `lsn`; (segs_.size(), 0) if there is none.
  std::pair<size_t, size_t> LowerBound(Lsn lsn) const {
    auto seg = std::partition_point(
        segs_.begin(), segs_.end(),
        [lsn](const std::vector<LogRecord>& s) { return s.back().lsn < lsn; });
    if (seg == segs_.end()) return {segs_.size(), 0};
    const size_t s = static_cast<size_t>(seg - segs_.begin());
    auto first = seg->begin() + (s == 0 ? head_ : 0);
    auto it = std::partition_point(
        first, seg->end(), [lsn](const LogRecord& r) { return r.lsn < lsn; });
    return {s, static_cast<size_t>(it - seg->begin())};
  }

  template <typename Fn>
  void VisitFrom(size_t s, size_t i, Fn& fn) const {
    for (; s < segs_.size(); ++s, i = 0) {
      const auto& seg = segs_[s];
      for (; i < seg.size(); ++i) fn(seg[i]);
    }
  }

  /// Each segment is reserved once, at creation, and never grows past it.
  std::vector<std::vector<LogRecord>> segs_;
  /// Records at the front of segs_.front() dropped by Truncate.
  size_t head_ = 0;
  size_t size_ = 0;
  size_t next_capacity_ = kFirstSegment;
};

/// Durable storage for the per-node logs. Each node owns one append-only
/// stream on a shared disk (figure 1: local logs are volatile in-cache but
/// "can be made stable by writing [them] to one of the shared disks").
/// Contents survive node crashes and whole-machine reboots; any surviving
/// node may read any node's stable log during restart recovery.
class StableLogStore {
 public:
  explicit StableLogStore(uint16_t num_nodes) : streams_(num_nodes) {}

  /// Durably appends `rec` to `node`'s stream. A force appends its batch
  /// record by record (one batched disk write in the model; record order —
  /// and therefore LSN order — is preserved).
  void Append(NodeId node, LogRecord&& rec) {
    streams_[node].Append(std::move(rec));
  }

  /// All durable records of `node`'s log, in LSN order (the retained
  /// suffix, after any truncation).
  const LogStream& Records(NodeId node) const { return streams_[node]; }

  /// Discards the archived prefix of `node`'s stream: records with
  /// lsn <= through. LSN numbering is unaffected. Returns # dropped.
  size_t Truncate(NodeId node, Lsn through) {
    return streams_[node].Truncate(through);
  }

  /// LSN of the last durable record of `node` (kInvalidLsn if empty).
  Lsn LastLsn(NodeId node) const {
    const auto& s = streams_[node];
    return s.empty() ? kInvalidLsn : s.back().lsn;
  }

  uint16_t num_nodes() const { return static_cast<uint16_t>(streams_.size()); }

 private:
  std::vector<LogStream> streams_;
};

}  // namespace smdb

#endif  // SMDB_STORAGE_STABLE_LOG_H_
