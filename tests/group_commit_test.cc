// Unit tests for the group-commit log-force pipeline: commit coalescing,
// the deadline and size bounds, acknowledgement-after-durability, and the
// withdraw path for aborts of pending commits.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "wal/group_commit.h"

namespace smdb {
namespace {

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(22, fill);
}

struct GcFx {
  explicit GcFx(RecoveryConfig rc, uint16_t nodes = 4)
      : db(MakeCfg(rc, nodes)), checker(&db) {
    db.txn().AddObserver(&checker);
    auto t = db.CreateTable(16);
    EXPECT_TRUE(t.ok());
    table = *t;
    checker.RegisterTable(table);
    EXPECT_TRUE(db.Checkpoint(0).ok());
  }
  static DatabaseConfig MakeCfg(RecoveryConfig rc, uint16_t nodes) {
    DatabaseConfig c;
    c.machine.num_nodes = nodes;
    c.recovery = rc;
    return c;
  }
  static RecoveryConfig GroupedVolatile() {
    RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
    rc.group_commit = true;
    rc.group_commit_window_ns = 100'000;
    rc.group_commit_max_batch = 64;
    return rc;
  }
  Database db;
  IfaChecker checker;
  std::vector<RecordId> table;
};

TEST(GroupCommitTest, OffByDefaultAndSynchronousWithoutPipeline) {
  RecoveryConfig rc;
  EXPECT_FALSE(rc.group_commit);
  EXPECT_EQ(rc.group_commit_window_ns, 100'000u);
  EXPECT_EQ(rc.group_commit_max_batch, 64u);
  GcFx fx(RecoveryConfig::VolatileSelectiveRedo());
  EXPECT_EQ(fx.db.group_commit(), nullptr);
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[0], Value(1)).ok());
  // Classic behavior: the commit forces synchronously and acknowledges.
  ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  EXPECT_EQ(t->state, TxnState::kCommitted);
  EXPECT_TRUE(fx.db.txn().PollCommit(t).code() == Status::Code::kInvalidArgument);
}

TEST(GroupCommitTest, DeadlineFlushAcksWholeBatchWithOneForce) {
  GcFx fx(GcFx::GroupedVolatile());
  Transaction* t1 = fx.db.txn().Begin(1);
  Transaction* t2 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[0], Value(0xA1)).ok());
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[1], Value(0xA2)).ok());
  uint64_t forces_before = fx.db.log().stats().forces;
  ASSERT_TRUE(fx.db.txn().Commit(t1).IsBusy());
  ASSERT_TRUE(fx.db.txn().Commit(t2).IsBusy());
  EXPECT_EQ(fx.db.group_commit()->PendingCount(1), 2u);

  // Poll until the coalescing window expires; each poll advances the
  // node's clock, so completion is bounded.
  int polls = 0;
  Status s1 = Status::Busy("");
  while (s1.IsBusy()) {
    s1 = fx.db.txn().PollCommit(t1);
    ASSERT_LT(++polls, 1000);
  }
  ASSERT_TRUE(s1.ok()) << s1.ToString();
  // t2's batch rode along: its record is durable, one poll acknowledges.
  ASSERT_TRUE(fx.db.txn().PollCommit(t2).ok());
  EXPECT_EQ(t1->state, TxnState::kCommitted);
  EXPECT_EQ(t2->state, TxnState::kCommitted);

  // The whole batch (two transactions' records) went out in ONE force.
  EXPECT_EQ(fx.db.log().stats().forces, forces_before + 1);
  EXPECT_EQ(fx.db.group_commit()->stats().enqueued_commits, 2u);
  EXPECT_EQ(fx.db.group_commit()->stats().deadline_flushes, 1u);
  EXPECT_GE(fx.db.log().stats().max_force_batch(), 2u);
  EXPECT_EQ(fx.db.group_commit()->PendingCount(1), 0u);
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST(GroupCommitTest, DeadlineHonoursTheWindow) {
  GcFx fx(GcFx::GroupedVolatile());
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[0], Value(0xB1)).ok());
  SimTime enqueued_at = fx.db.machine().NodeClock(1);
  ASSERT_TRUE(fx.db.txn().Commit(t).IsBusy());
  while (fx.db.txn().PollCommit(t).IsBusy()) {
  }
  EXPECT_EQ(t->state, TxnState::kCommitted);
  // The force must not land before the window elapsed (no premature
  // flushes under the size bound).
  EXPECT_GE(fx.db.machine().NodeClock(1),
            enqueued_at + fx.db.config().recovery.group_commit_window_ns);
}

TEST(GroupCommitTest, SizeBoundFlushesImmediately) {
  RecoveryConfig rc = GcFx::GroupedVolatile();
  rc.group_commit_max_batch = 1;
  GcFx fx(rc);
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[0], Value(0xC1)).ok());
  // max_batch=1: the enqueue itself trips the size bound, so the commit
  // degenerates to the synchronous path.
  ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  EXPECT_EQ(t->state, TxnState::kCommitted);
  EXPECT_GE(fx.db.group_commit()->stats().size_flushes, 1u);
}

TEST(GroupCommitTest, AbortWithdrawsVolatilePendingCommit) {
  GcFx fx(GcFx::GroupedVolatile());
  RecordId r = fx.table[0];
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t, r, Value(0xD1)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t).IsBusy());
  Lsn commit_lsn = t->last_lsn;
  ASSERT_TRUE(fx.db.txn().Abort(t).ok());
  EXPECT_EQ(t->state, TxnState::kAborted);
  EXPECT_EQ(fx.db.group_commit()->PendingCount(1), 0u);
  // The withdrawn commit record must never reach stable storage: force
  // everything and check the stable stream.
  ASSERT_TRUE(fx.db.log().Force(1, 1).ok());
  bool saw_commit = false;
  fx.db.log().ForEachStable(1, [&](const LogRecord& rec) {
    if (rec.lsn == commit_lsn && rec.type == LogRecordType::kCommit) {
      saw_commit = true;
    }
  });
  EXPECT_FALSE(saw_commit);
  auto slot = fx.db.records().SnoopSlot(r);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0));  // rolled back
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST(GroupCommitTest, AbortOfWithdrawnCommitUndoesEveryUpdateAndIndexOp) {
  GcFx fx(GcFx::GroupedVolatile());
  // Committed setup: key 5 -> table[0].
  Transaction* setup = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().IndexInsert(setup, 5, fx.table[0]).ok());
  ASSERT_TRUE(fx.db.txn().Commit(setup).IsBusy());
  ASSERT_TRUE(fx.db.log().Force(0, 0).ok());
  ASSERT_TRUE(fx.db.txn().PollCommit(setup).ok());

  // The victim's records straddle the stable/volatile boundary, and its
  // prev_lsn chain ends in the commit record the abort withdraws.
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[1], Value(0xB1)).ok());
  ASSERT_TRUE(fx.db.txn().IndexDelete(t, 5).ok());
  ASSERT_TRUE(fx.db.log().Force(1, 1).ok());
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[2], Value(0xB2)).ok());
  ASSERT_TRUE(fx.db.txn().IndexInsert(t, 9, fx.table[3]).ok());
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[1], Value(0xB3)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t).IsBusy());
  ASSERT_TRUE(fx.db.txn().Abort(t).ok());
  EXPECT_EQ(t->state, TxnState::kAborted);

  for (RecordId r : {fx.table[1], fx.table[2]}) {
    auto slot = fx.db.records().SnoopSlot(r);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(0)) << ToString(r);
  }
  auto l5 = fx.db.index().Lookup(0, 5);
  ASSERT_TRUE(l5.ok());
  ASSERT_TRUE(l5->has_value());  // the delete was undone
  EXPECT_EQ(**l5, fx.table[0]);
  auto l9 = fx.db.index().Lookup(0, 9);
  ASSERT_TRUE(l9.ok());
  EXPECT_FALSE(l9->has_value());  // the insert was undone
  // One compensation per undone update and per undone index op.
  int update_clrs = 0;
  int index_clrs = 0;
  fx.db.log().ForEachAll(1, [&](const LogRecord& rec) {
    if (rec.txn != t->id) return;
    if (rec.type == LogRecordType::kUpdate && rec.update().is_clr) {
      ++update_clrs;
    }
    if (rec.type == LogRecordType::kIndexOp && rec.index_op().is_clr) {
      ++index_clrs;
    }
  });
  EXPECT_EQ(update_clrs, 3);
  EXPECT_EQ(index_clrs, 2);
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST(GroupCommitTest, AbortRefusedOnceCommitIsDurable) {
  GcFx fx(GcFx::GroupedVolatile());
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[0], Value(0xE1)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t).IsBusy());
  // An unrelated force covers the pending commit record.
  ASSERT_TRUE(fx.db.log().Force(1, 1).ok());
  EXPECT_TRUE(fx.db.txn().Abort(t).code() == Status::Code::kInvalidArgument);
  // The transaction completes on the next poll instead.
  ASSERT_TRUE(fx.db.txn().PollCommit(t).ok());
  EXPECT_EQ(t->state, TxnState::kCommitted);
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST(GroupCommitTest, PipelineIsPerNode) {
  GcFx fx(GcFx::GroupedVolatile());
  Transaction* t1 = fx.db.txn().Begin(1);
  Transaction* t2 = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[0], Value(0xF1)).ok());
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[1], Value(0xF2)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t1).IsBusy());
  ASSERT_TRUE(fx.db.txn().Commit(t2).IsBusy());
  EXPECT_EQ(fx.db.group_commit()->PendingCount(1), 1u);
  EXPECT_EQ(fx.db.group_commit()->PendingCount(2), 1u);
  // Node 1's flush must not acknowledge node 2's pending commit.
  while (fx.db.txn().PollCommit(t1).IsBusy()) {
  }
  EXPECT_EQ(t1->state, TxnState::kCommitted);
  EXPECT_EQ(t2->state, TxnState::kActive);
  while (fx.db.txn().PollCommit(t2).IsBusy()) {
  }
  EXPECT_EQ(t2->state, TxnState::kCommitted);
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

}  // namespace
}  // namespace smdb
