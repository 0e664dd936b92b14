#include <algorithm>
#include <cstring>

#include "btree/btree.h"
#include "db/page_layout.h"
#include "sim/machine.h"

namespace smdb {

Status BTree::RedoIndexOp(NodeId node, const IndexOpPayload& op,
                          uint16_t tag) {
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, op.key, &path));
  PageId leaf = path.back();
  auto slot_or =
      FindEntrySlot(node, leaf, op.key, /*include_tombstones=*/true);

  if (op.op == IndexOpPayload::Op::kInsert) {
    // Eager replay never finds a leaf full (replay occupancy is bounded by
    // the leaf's historical occupancy), but on-demand recovery can: new
    // post-crash traffic may refill the leaf before the deferred redo of
    // this record arrives. Mirror the runtime insert path — split and retry
    // on the leaf that should now hold the key.
    auto free_slot = [&]() -> Result<uint32_t> {
      auto s = FindFreeSlot(node, leaf);
      if (s.ok() || !s.status().IsNotFound()) return s;
      SMDB_ASSIGN_OR_RETURN(leaf, SplitForInsert(node, path, op.key));
      return FindFreeSlot(node, leaf);
    };
    uint32_t slot;
    if (slot_or.ok()) {
      SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, *slot_or));
      if (e.usn >= op.usn) return Status::Ok();  // already reflected
      if (e.state == LeafEntryState::kTombstone && e.tag != kTagNone &&
          !op.is_clr) {
        // An uncommitted tombstone is undo information; mirror the runtime
        // rule and take a fresh slot for the re-insert. A compensation
        // insert is the undo of that very delete: like UndoDelete, it
        // revives the tombstone in place (a fresh slot would leave the
        // tombstone behind for a later undo pass to revive a second time).
        SMDB_ASSIGN_OR_RETURN(slot, free_slot());
      } else {
        slot = *slot_or;
      }
    } else if (slot_or.status().IsNotFound()) {
      SMDB_ASSIGN_OR_RETURN(slot, free_slot());
    } else {
      return slot_or.status();
    }
    LeafEntry e;
    e.key = op.key;
    e.rid = op.value;
    e.state = LeafEntryState::kLive;
    e.tag = tag;
    e.usn = op.usn;
    SMDB_RETURN_IF_ERROR(WriteLeafEntry(node, leaf, slot, e));
  } else {
    if (!slot_or.ok()) {
      if (slot_or.status().IsNotFound()) return Status::Ok();
      return slot_or.status();
    }
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, *slot_or));
    if (e.usn >= op.usn) return Status::Ok();
    if (op.is_clr) {
      // Compensation delete (undo of an insert, or a delete of the same
      // transaction's own insert): physical removal.
      LeafEntry empty;
      SMDB_RETURN_IF_ERROR(WriteLeafEntry(node, leaf, *slot_or, empty));
    } else {
      e.state = LeafEntryState::kTombstone;
      e.tag = tag;
      e.usn = op.usn;
      SMDB_RETURN_IF_ERROR(WriteLeafEntry(node, leaf, *slot_or, e));
    }
  }
  Addr base = BaseOf(leaf);
  SMDB_RETURN_IF_ERROR(
      machine_->Write(node, base + PageLayout::kPageLsnOffset, &op.usn, 8));
  buffers_->MarkDirty(leaf);
  return Status::Ok();
}

std::vector<BTree::EntryRef> BTree::EntriesInLine(LineAddr line) const {
  std::vector<EntryRef> out;
  Addr addr = machine_->AddrOfLine(line);
  auto page = buffers_->ResolveAddr(addr);
  if (!page.has_value() || !OwnsPage(*page)) return out;
  Addr base = BaseOf(*page);
  uint32_t line_index =
      static_cast<uint32_t>((addr - base) / machine_line_size_);
  if (line_index == 0) return out;  // header line holds no entries

  // Only leaf pages hold entries; check via a snooped header read.
  uint8_t hdr[32];
  if (!machine_->SnoopRead(base, hdr, sizeof(hdr)).ok()) return out;
  if (hdr[16] == 0) return out;  // internal page

  uint32_t per_line = leaf_entries_per_line();
  uint32_t first = (line_index - 1) * per_line;
  std::vector<uint8_t> buf(machine_line_size_);
  if (!machine_->SnoopRead(addr, buf.data(), buf.size()).ok()) return out;
  for (uint32_t i = 0; i < per_line; ++i) {
    uint32_t slot = first + i;
    if (slot >= leaf_capacity()) break;
    const uint8_t* p = buf.data() + i * kLeafEntryBytes;
    LeafEntry e;
    std::memcpy(&e.key, p, 8);
    std::memcpy(&e.rid.page, p + 8, 4);
    std::memcpy(&e.rid.slot, p + 12, 2);
    e.state = static_cast<LeafEntryState>(p[14]);
    std::memcpy(&e.tag, p + 16, 2);
    std::memcpy(&e.usn, p + 18, 8);
    if (e.state == LeafEntryState::kFree) continue;
    out.push_back(EntryRef{*page, static_cast<uint16_t>(slot), e});
  }
  return out;
}

Result<std::vector<BTree::EntryRef>> BTree::CollectEntries(
    bool include_tombstones) const {
  std::vector<EntryRef> out;
  for (PageId page : page_list_) {
    uint8_t hdr[32];
    SMDB_RETURN_IF_ERROR(machine_->SnoopRead(BaseOf(page), hdr, sizeof(hdr)));
    if (hdr[16] == 0) continue;  // internal
    uint32_t lines = page_size_ / machine_line_size_;
    LineAddr first = machine_->LineOf(BaseOf(page));
    for (uint32_t li = 1; li < lines; ++li) {
      for (auto& ref : EntriesInLine(first + li)) {
        if (ref.entry.state == LeafEntryState::kTombstone &&
            !include_tombstones) {
          continue;
        }
        out.push_back(ref);
      }
    }
  }
  return out;
}

Status BTree::RemoveEntryAt(NodeId node, PageId leaf, uint16_t slot) {
  Addr base = BaseOf(leaf);
  LineAddr header_line = machine_->LineOf(base);
  LineAddr entry_line = machine_->LineOf(LeafEntryAddr(base, slot));
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, header_line));
  Status st = machine_->GetLine(node, entry_line);
  if (!st.ok()) {
    machine_->ReleaseLine(node, header_line);
    return st;
  }
  SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
  uint64_t usn = usn_->Next();
  LeafEntry empty;
  Status s = WriteLeafEntry(node, leaf, slot, empty);
  if (s.ok()) {
    s = machine_->Write(node, base + PageLayout::kPageLsnOffset, &usn, 8);
  }
  if (s.ok()) {
    IndexOpPayload p;
    p.tree_id = tree_id_;
    p.op = IndexOpPayload::Op::kDelete;
    p.key = e.key;
    p.value = e.rid;
    p.usn = usn;
    s = LogIndexOp(node, kInvalidTxn, p, nullptr, {entry_line, header_line},
                   /*is_clr=*/true);
  }
  machine_->ReleaseLine(node, entry_line);
  machine_->ReleaseLine(node, header_line);
  SMDB_RETURN_IF_ERROR(s);
  buffers_->MarkDirty(leaf);
  return Status::Ok();
}

Status BTree::UnmarkEntryAt(NodeId node, PageId leaf, uint16_t slot) {
  Addr base = BaseOf(leaf);
  LineAddr header_line = machine_->LineOf(base);
  LineAddr entry_line = machine_->LineOf(LeafEntryAddr(base, slot));
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, header_line));
  Status st = machine_->GetLine(node, entry_line);
  if (!st.ok()) {
    machine_->ReleaseLine(node, header_line);
    return st;
  }
  SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
  uint64_t usn = usn_->Next();
  e.state = LeafEntryState::kLive;
  e.tag = kTagNone;
  e.usn = usn;
  Status s = WriteLeafEntry(node, leaf, slot, e);
  if (s.ok()) {
    s = machine_->Write(node, base + PageLayout::kPageLsnOffset, &usn, 8);
  }
  if (s.ok()) {
    IndexOpPayload p;
    p.tree_id = tree_id_;
    p.op = IndexOpPayload::Op::kInsert;
    p.key = e.key;
    p.value = e.rid;
    p.usn = usn;
    s = LogIndexOp(node, kInvalidTxn, p, nullptr, {entry_line, header_line},
                   /*is_clr=*/true);
  }
  machine_->ReleaseLine(node, entry_line);
  machine_->ReleaseLine(node, header_line);
  SMDB_RETURN_IF_ERROR(s);
  buffers_->MarkDirty(leaf);
  return Status::Ok();
}

Result<std::optional<LeafEntry>> BTree::GetEntry(NodeId node, uint64_t key) {
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  auto slot_or =
      FindEntrySlot(node, path.back(), key, /*include_tombstones=*/true);
  if (!slot_or.ok()) {
    if (slot_or.status().IsNotFound()) return std::optional<LeafEntry>{};
    return slot_or.status();
  }
  SMDB_ASSIGN_OR_RETURN(LeafEntry e,
                        ReadLeafEntry(node, path.back(), *slot_or));
  return std::optional<LeafEntry>{e};
}

Result<std::vector<BTree::EntryRef>> BTree::EntriesForKey(NodeId node,
                                                          uint64_t key) {
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  PageId leaf = path.back();
  std::vector<EntryRef> out;
  for (uint32_t slot = 0; slot < leaf_capacity(); ++slot) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
    if (e.state == LeafEntryState::kFree || e.key != key) continue;
    out.push_back(EntryRef{leaf, static_cast<uint16_t>(slot), e});
  }
  return out;
}

Status BTree::CheckStructure(NodeId node) {
  // Walk the tree from the root checking that every leaf entry's key routes
  // to the leaf that holds it, and that leaves are reachable via the chain.
  SMDB_ASSIGN_OR_RETURN(auto entries, CollectEntries(true));
  for (const auto& ref : entries) {
    std::vector<PageId> path;
    SMDB_RETURN_IF_ERROR(DescendToLeaf(node, ref.entry.key, &path));
    if (path.back() != ref.leaf) {
      return Status::Corruption("key routes to wrong leaf");
    }
  }
  // No duplicate live keys.
  std::vector<uint64_t> keys;
  for (const auto& ref : entries) {
    if (ref.entry.state == LeafEntryState::kLive) {
      keys.push_back(ref.entry.key);
    }
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return Status::Corruption("duplicate live key");
  }
  return Status::Ok();
}

}  // namespace smdb
