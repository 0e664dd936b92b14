#include "core/stable_state.h"

#include <algorithm>

#include "sim/machine.h"

namespace smdb {

StableStateReconstructor::StableStateReconstructor(
    Machine* machine, BufferManager* buffers, RecordStore* records,
    std::set<TxnId> uncommitted, const LogAnalysis& analysis)
    : machine_(machine),
      buffers_(buffers),
      records_(records),
      uncommitted_(std::move(uncommitted)),
      analysis_(&analysis) {}

void StableStateReconstructor::BuildIndex() {
  if (indexed_) return;
  indexed_ = true;
  for (NodeId n = 0; n < machine_->num_nodes(); ++n) {
    for (const LogAnalysis::UsnRef& ref : analysis_->refs(n)) {
      if (ref.rec->type != LogRecordType::kUpdate) continue;
      by_record_[ref.rec->update().rid].push_back(ref.rec);
    }
    analysis_->ForEachSince(n, [&](const LogRecord& rec, bool stable) {
      if (rec.type != LogRecordType::kUpdate) return;
      const LogRecord* r = stable ? &rec : &tail_copies_.emplace_back(rec);
      by_record_[rec.update().rid].push_back(r);
    });
  }
  for (auto& [rid, recs] : by_record_) {
    std::sort(recs.begin(), recs.end(),
              [](const LogRecord* a, const LogRecord* b) {
                return a->update().usn < b->update().usn;
              });
  }
}

const std::vector<uint8_t>* StableStateReconstructor::PageImage(
    NodeId performer, PageId page) {
  auto it = page_cache_.find(page);
  if (it != page_cache_.end()) return &it->second;
  std::vector<uint8_t> image;
  if (!buffers_->ReadStableImage(performer, page, &image).ok()) {
    return nullptr;
  }
  return &page_cache_.emplace(page, std::move(image)).first->second;
}

Result<SlotImage> StableStateReconstructor::CommittedValue(NodeId performer,
                                                           RecordId rid) {
  BuildIndex();
  const std::vector<uint8_t>* image = PageImage(performer, rid.page);
  if (image == nullptr) return Status::IoError("stable page unreadable");
  SlotImage current = records_->DecodeStableSlot(*image, rid.slot);

  // The stable image itself may contain a stolen uncommitted value; detect
  // that and fall back to the producing transaction's logged before image.
  auto it = by_record_.find(rid);
  const std::vector<const LogRecord*>* recs =
      it == by_record_.end() ? nullptr : &it->second;

  if (recs != nullptr) {
    for (const LogRecord* rec : *recs) {
      const UpdatePayload& u = rec->update();
      if (u.usn <= current.usn) continue;
      if (!u.is_clr && uncommitted_.contains(rec->txn)) continue;
      current.usn = u.usn;
      current.data = u.after;
      current.tag = kTagNone;
    }
    // If the stable image's version was written by an uncommitted
    // transaction (steal) and no later committed value replaced it, rewind
    // to that transaction's before image for this record.
    for (const LogRecord* rec : *recs) {
      const UpdatePayload& u = rec->update();
      if (u.usn == current.usn && !u.is_clr &&
          uncommitted_.contains(rec->txn)) {
        // Find the earliest update of this txn to this record: its before
        // image is the last committed value (2PL: no interleaved writers).
        for (const LogRecord* first : *recs) {
          const UpdatePayload& fu = first->update();
          if (first->txn == rec->txn && !fu.is_clr) {
            SlotImage out;
            out.usn = fu.before_usn;
            out.tag = kTagNone;
            out.data = fu.before;
            return out;
          }
        }
      }
    }
  }
  current.tag = kTagNone;
  return current;
}

}  // namespace smdb
