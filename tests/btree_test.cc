// Unit tests for the shared-memory B+-tree: inserts, logical deletes,
// lookups, splits as early-committed structural changes, undo operations,
// tombstone purging, and recovery helpers.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"

namespace smdb {
namespace {

struct TreeFixture {
  TreeFixture() : db(MakeCfg()) {}
  static DatabaseConfig MakeCfg() {
    DatabaseConfig c;
    c.machine.num_nodes = 4;
    return c;
  }
  BTree& tree() { return db.index(); }
  Database db;
};

TEST(BTreeTest, InsertLookupDelete) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  ASSERT_TRUE(f.tree().Insert(0, t, 10, {5, 3}, kTagNone, &chain).ok());
  auto r = f.tree().Lookup(0, 10);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(**r, (RecordId{5, 3}));

  ASSERT_TRUE(f.tree().Delete(0, t, 10, kTagNone, &chain).ok());
  auto r2 = f.tree().Lookup(0, 10);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->has_value());
  // Logical delete: the entry still exists, tombstoned.
  auto e = f.tree().GetEntry(0, 10);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->has_value());
  EXPECT_EQ((*e)->state, LeafEntryState::kTombstone);
}

TEST(BTreeTest, LookupMissingKey) {
  TreeFixture f;
  auto r = f.tree().Lookup(0, 999);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

TEST(BTreeTest, DuplicateInsertRejected) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  ASSERT_TRUE(f.tree().Insert(0, t, 10, {1, 1}, kTagNone, &chain).ok());
  Status s = f.tree().Insert(0, t, 10, {2, 2}, kTagNone, &chain);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(BTreeTest, DeleteMissingKeyNotFound) {
  TreeFixture f;
  Lsn chain = kInvalidLsn;
  EXPECT_TRUE(
      f.tree().Delete(0, MakeTxnId(0, 1), 7, kTagNone, &chain).IsNotFound());
}

TEST(BTreeTest, ReinsertAfterDeleteReusesEntry) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  ASSERT_TRUE(f.tree().Insert(0, t, 10, {1, 1}, kTagNone, &chain).ok());
  ASSERT_TRUE(f.tree().Delete(0, t, 10, kTagNone, &chain).ok());
  ASSERT_TRUE(f.tree().Insert(0, t, 10, {2, 2}, kTagNone, &chain).ok());
  auto r = f.tree().Lookup(0, 10);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(**r, (RecordId{2, 2}));
}

TEST(BTreeTest, SplitsAndStructure) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  // Leaf capacity is 124 at the default geometry; insert enough to force
  // several splits, in shuffled order.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 600; ++k) keys.push_back(k * 7);
  Rng rng(9);
  rng.Shuffle(keys);
  for (uint64_t k : keys) {
    ASSERT_TRUE(f.tree().Insert(0, t, k, {1, uint16_t(k % 100)}, kTagNone,
                                &chain).ok())
        << k;
  }
  EXPECT_GT(f.tree().stats().splits, 0u);
  EXPECT_GT(f.tree().pages().size(), 4u);
  ASSERT_TRUE(f.tree().CheckStructure(0).ok());
  for (uint64_t k : keys) {
    auto r = f.tree().Lookup(0, k);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->has_value()) << k;
  }
  auto r = f.tree().Lookup(0, 3);  // never inserted (not multiple of 7)
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

TEST(BTreeTest, SplitIsEarlyCommitted) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  for (uint64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(f.tree().Insert(0, t, k, {1, 0}, kTagNone, &chain).ok());
  }
  ASSERT_GT(f.tree().stats().splits, 0u);
  EXPECT_GE(f.tree().stats().early_commits, f.tree().stats().splits);
  // Early commit forced structural records to stable storage.
  bool structural_stable = false;
  f.db.log().ForEachStable(0, [&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kStructural) structural_stable = true;
  });
  EXPECT_TRUE(structural_stable);
}

TEST(BTreeTest, PurgeCommittedTombstones) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  // Fill a leaf, delete everything (committed: tag none), then reinsert:
  // the tombstones must be purged rather than splitting.
  for (uint64_t k = 1; k <= 124; ++k) {
    ASSERT_TRUE(f.tree().Insert(0, t, k, {1, 0}, kTagNone, &chain).ok());
  }
  for (uint64_t k = 1; k <= 124; ++k) {
    ASSERT_TRUE(f.tree().Delete(0, t, k, kTagNone, &chain).ok());
  }
  uint64_t splits_before = f.tree().stats().splits;
  for (uint64_t k = 200; k < 200 + 60; ++k) {
    ASSERT_TRUE(f.tree().Insert(0, t, k, {1, 0}, kTagNone, &chain).ok());
  }
  EXPECT_EQ(f.tree().stats().splits, splits_before);
  EXPECT_GT(f.tree().stats().purged_tombstones, 0u);
}

TEST(BTreeTest, UncommittedTombstoneSpaceNotReused) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  // Fill a leaf with *uncommitted* deletes (tagged): space must NOT be
  // reclaimed (section 4.2.1), so the next insert splits instead.
  TreeFixture& g = f;
  for (uint64_t k = 1; k <= 124; ++k) {
    ASSERT_TRUE(g.tree().Insert(0, t, k, {1, 0}, kTagNone, &chain).ok());
  }
  for (uint64_t k = 1; k <= 124; ++k) {
    ASSERT_TRUE(g.tree().Delete(0, t, k, TagForNode(0), &chain).ok());
  }
  uint64_t splits_before = g.tree().stats().splits;
  ASSERT_TRUE(g.tree().Insert(0, t, 999, {1, 0}, kTagNone, &chain).ok());
  EXPECT_GT(g.tree().stats().splits, splits_before);
  EXPECT_EQ(g.tree().stats().purged_tombstones, 0u);
}

TEST(BTreeTest, UndoInsertRemovesEntry) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  ASSERT_TRUE(f.tree().Insert(0, t, 10, {1, 1}, TagForNode(0), &chain).ok());
  ASSERT_TRUE(f.tree().UndoInsert(0, t, 10, &chain, true).ok());
  auto e = f.tree().GetEntry(0, 10);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e->has_value());
}

TEST(BTreeTest, UndoDeleteUnmarks) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  ASSERT_TRUE(f.tree().Insert(0, t, 10, {1, 1}, kTagNone, &chain).ok());
  ASSERT_TRUE(f.tree().Delete(0, t, 10, TagForNode(0), &chain).ok());
  ASSERT_TRUE(f.tree().UndoDelete(0, t, 10, &chain, true).ok());
  auto r = f.tree().Lookup(0, 10);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(**r, (RecordId{1, 1}));
}

TEST(BTreeTest, RedoIndexOpIdempotent) {
  TreeFixture f;
  IndexOpPayload op;
  op.tree_id = 1;
  op.op = IndexOpPayload::Op::kInsert;
  op.key = 5;
  op.value = {2, 2};
  op.usn = 100;
  ASSERT_TRUE(f.tree().RedoIndexOp(0, op, kTagNone).ok());
  ASSERT_TRUE(f.tree().RedoIndexOp(0, op, kTagNone).ok());  // no-op
  auto entries = f.tree().CollectEntries(true);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
  // A delete redo with a lower USN must not apply.
  IndexOpPayload del;
  del.tree_id = 1;
  del.op = IndexOpPayload::Op::kDelete;
  del.key = 5;
  del.usn = 50;
  ASSERT_TRUE(f.tree().RedoIndexOp(0, del, kTagNone).ok());
  auto r = f.tree().Lookup(0, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->has_value());
  // With a higher USN it applies.
  del.usn = 200;
  ASSERT_TRUE(f.tree().RedoIndexOp(0, del, kTagNone).ok());
  r = f.tree().Lookup(0, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

// Redo of a compensation insert (the logged undo of a delete) must revive
// the deleter's tagged tombstone in place, as UndoDelete did. Taking a
// fresh slot, as a plain re-insert does, left the tombstone for a later
// undo pass to revive a second time: two live entries for one key.
TEST(BTreeTest, RedoOfCompensationInsertRevivesTombstoneInPlace) {
  TreeFixture f;
  IndexOpPayload ins;
  ins.tree_id = 1;
  ins.op = IndexOpPayload::Op::kInsert;
  ins.key = 72;
  ins.value = {2, 22};
  ins.usn = 45;
  ASSERT_TRUE(f.tree().RedoIndexOp(0, ins, kTagNone).ok());
  IndexOpPayload del = ins;  // an uncommitted delete by a node-5 txn
  del.op = IndexOpPayload::Op::kDelete;
  del.usn = 113;
  ASSERT_TRUE(f.tree().RedoIndexOp(0, del, TagForNode(5)).ok());
  IndexOpPayload clr = ins;  // its compensation, logged by recovery
  clr.usn = 116;
  clr.is_clr = true;
  ASSERT_TRUE(f.tree().RedoIndexOp(0, clr, kTagNone).ok());

  auto entries = f.tree().EntriesForKey(0, 72);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].entry.state, LeafEntryState::kLive);
  EXPECT_EQ((*entries)[0].entry.tag, kTagNone);
  EXPECT_EQ((*entries)[0].entry.usn, 116u);
  // A later undo of the same delete finds no tombstone left to revive.
  Status again = f.tree().UndoDelete(0, MakeTxnId(5, 4), 72, nullptr,
                                     /*log_clr=*/false);
  EXPECT_TRUE(again.IsNotFound()) << again.ToString();
}

TEST(BTreeTest, EntriesInLineFindsTaggedEntries) {
  TreeFixture f;
  TxnId t = MakeTxnId(2, 1);
  Lsn chain = kInvalidLsn;
  ASSERT_TRUE(f.tree().Insert(2, t, 42, {1, 1}, TagForNode(2), &chain).ok());
  auto line = f.tree().LineOfKey(2, 42);
  ASSERT_TRUE(line.ok());
  auto refs = f.tree().EntriesInLine(*line);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].entry.key, 42u);
  EXPECT_EQ(refs[0].entry.tag, TagForNode(2));
}

TEST(BTreeTest, CollectEntriesFiltersTombstones) {
  TreeFixture f;
  TxnId t = MakeTxnId(0, 1);
  Lsn chain = kInvalidLsn;
  ASSERT_TRUE(f.tree().Insert(0, t, 1, {1, 0}, kTagNone, &chain).ok());
  ASSERT_TRUE(f.tree().Insert(0, t, 2, {1, 1}, kTagNone, &chain).ok());
  ASSERT_TRUE(f.tree().Delete(0, t, 1, kTagNone, &chain).ok());
  auto live = f.tree().CollectEntries(false);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->size(), 1u);
  auto all = f.tree().CollectEntries(true);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

}  // namespace
}  // namespace smdb
