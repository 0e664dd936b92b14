// Regression and edge-case tests for restart recovery: scenarios distilled
// from subtle interactions found during development, each encoding an
// invariant the protocols must uphold.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/recovery_manager.h"
#include "workload/harness.h"

namespace smdb {
namespace {

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(22, fill);
}

struct Fx {
  explicit Fx(RecoveryConfig rc, uint16_t nodes = 4,
              bool two_line_lcb = false)
      : db(MakeCfg(rc, nodes, two_line_lcb)), checker(&db) {
    db.txn().AddObserver(&checker);
    auto t = db.CreateTable(16);
    EXPECT_TRUE(t.ok());
    table = *t;
    checker.RegisterTable(table);
    EXPECT_TRUE(db.Checkpoint(0).ok());
  }
  static DatabaseConfig MakeCfg(RecoveryConfig rc, uint16_t nodes,
                                bool two_line_lcb) {
    DatabaseConfig c;
    c.machine.num_nodes = nodes;
    c.recovery = rc;
    c.lock_table.two_line_lcb = two_line_lcb;
    return c;
  }
  Database db;
  IfaChecker checker;
  std::vector<RecordId> table;
};

// A transaction that aborted *before* the crash, with its update stolen to
// the stable database but its CLRs (and abort record) forced as well, must
// NOT be re-undone: a later committed value would be clobbered by the
// stale before image. (Regression: stable-log undo originally keyed only
// on commit records.)
TEST(RecoveryEdgeTest, PreCrashAbortWithStableClrsNotReundone) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    RecordId r = fx.table[0];
    // t1 on node 1 updates r, the page is stolen, then t1 aborts (CLR) and
    // the log is forced (e.g. by a later commit on node 1).
    Transaction* t1 = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t1, r, Value(0x11)).ok());
    ASSERT_TRUE(fx.db.buffers().FlushPage(2, r.page).ok());
    ASSERT_TRUE(fx.db.txn().Abort(t1).ok());
    ASSERT_TRUE(fx.db.log().Force(1, 1).ok());
    // t2 on node 1 commits a new value for r.
    Transaction* t2 = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t2, r, Value(0x22)).ok());
    ASSERT_TRUE(fx.db.txn().Commit(t2).ok());
    // Crash node 1: t2's committed value must survive (redo), t1 must not
    // be undone again.
    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto slot = fx.db.records().SnoopSlot(r);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(0x22)) << rc.Name();
  }
}

// A pre-crash abort whose CLRs stayed volatile (lost with the node) while
// the original update was stolen: recovery must undo from the stable log.
TEST(RecoveryEdgeTest, PreCrashAbortWithVolatileClrsIsUndone) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    RecordId r = fx.table[0];
    Transaction* t1 = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t1, r, Value(0x33)).ok());
    ASSERT_TRUE(fx.db.buffers().FlushPage(2, r.page).ok());  // steals 0x33
    ASSERT_TRUE(fx.db.txn().Abort(t1).ok());  // CLR volatile only
    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto slot = fx.db.records().SnoopSlot(r);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(0)) << rc.Name();
  }
}

// Cross-node index replay ordering: an insert on (what becomes) a crashed
// node followed by a committed delete on a survivor. Replay must not
// resurrect the key regardless of per-node log order. (Regression: redo of
// a delete for a missing entry was dropped before global USN ordering.)
TEST(RecoveryEdgeTest, CrossNodeInsertThenDeleteReplay) {
  for (auto rc : {RecoveryConfig::VolatileRedoAll(),
                  RecoveryConfig::VolatileSelectiveRedo()}) {
    Fx fx(rc);
    Transaction* ti = fx.db.txn().Begin(2);
    ASSERT_TRUE(fx.db.txn().IndexInsert(ti, 66, fx.table[0]).ok());
    ASSERT_TRUE(fx.db.txn().Commit(ti).ok());
    Transaction* td = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().IndexDelete(td, 66).ok());
    ASSERT_TRUE(fx.db.txn().Commit(td).ok());
    auto outcome = fx.db.Crash({2});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto l = fx.db.index().Lookup(0, 66);
    ASSERT_TRUE(l.ok());
    EXPECT_FALSE(l->has_value()) << rc.Name() << ": key resurrected";
  }
}

// Same-transaction multi-update chains must unwind fully during recovery
// undo (the engagement rule's same-txn case).
TEST(RecoveryEdgeTest, MultiUpdateChainUndo) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  RecordId r = fx.table[0];
  Transaction* setup = fx.db.txn().Begin(3);
  ASSERT_TRUE(fx.db.txn().Update(setup, r, Value(0x10)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(setup).ok());

  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t, r, Value(0x21)).ok());
  ASSERT_TRUE(fx.db.buffers().FlushPage(2, r.page).ok());  // steal v1
  ASSERT_TRUE(fx.db.txn().Update(t, r, Value(0x22)).ok());
  ASSERT_TRUE(fx.db.buffers().FlushPage(2, r.page).ok());  // steal v2
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(r);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0x10));
}

// Two-line LCBs: a crash can destroy one of the two lines ("arbitrary
// segments"); the restart procedure rebuilds the whole LCB from surviving
// logs (section 4.2.2's harder scenario).
TEST(RecoveryEdgeTest, TwoLineLcbPartialLossRebuilt) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo(), 4, /*two_line_lcb=*/true);
  Transaction* t0 = fx.db.txn().Begin(0);
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Read(t0, fx.table[5]).ok());
  ASSERT_TRUE(fx.db.txn().Read(t1, fx.table[5]).ok());
  // t2 queues an X request behind the two S holders.
  Transaction* t2 = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[5], Value(1)).IsBusy());

  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  uint64_t name = RecordLockName(fx.table[5]);
  auto lcb = fx.db.locks().GetLcb(0, name);
  ASSERT_TRUE(lcb.ok());
  // Survivor t0 still holds S; t2 still waits; crashed t1 is gone.
  ASSERT_EQ(lcb->holders.size(), 1u);
  EXPECT_EQ(lcb->holders[0].txn, t0->id);
  ASSERT_EQ(lcb->waiters.size(), 1u);
  EXPECT_EQ(lcb->waiters[0].txn, t2->id);
  // Once t0 finishes, t2 gets the lock.
  ASSERT_TRUE(fx.db.txn().Commit(t0).ok());
  auto poll = fx.db.txn().PollLock(t2, name, LockMode::kExclusive);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(*poll, LockResult::kGranted);
}

// The early-commit ablation: with structural early commit disabled, a
// crash that destroys a freshly split leaf loses committed index entries —
// the dependency the paper's rule exists to prevent. The test documents
// the violation (the checker must catch it).
TEST(RecoveryEdgeTest, NoEarlyCommitLosesSplitStructure) {
  RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
  rc.early_commit_structural = false;
  DatabaseConfig cfg;
  cfg.machine.num_nodes = 4;
  cfg.recovery = rc;
  Database db(cfg);
  IfaChecker checker(&db);
  db.txn().AddObserver(&checker);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  checker.RegisterTable(*table);
  ASSERT_TRUE(db.Checkpoint(0).ok());

  // Node 2 inserts enough committed keys to split the root leaf. Without
  // early commit the split stays volatile.
  for (int batch = 0; batch < 5; ++batch) {
    Transaction* t = db.txn().Begin(2);
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          db.txn().IndexInsert(t, batch * 40 + i + 1, (*table)[0]).ok());
    }
    ASSERT_TRUE(db.txn().Commit(t).ok());
  }
  ASSERT_GT(db.index().stats().splits, 0u);
  ASSERT_EQ(db.index().stats().early_commits, 0u);

  // Crash the node that performed the splits: the moved entries' only
  // up-to-date homes die with it. The damage shows up either as a recovery
  // failure (the reloaded pre-split structure is unusable) or as an index
  // verification failure — both are the IFA violation the early-commit
  // rule prevents.
  auto outcome = db.Crash({2});
  bool violated = !outcome.ok() || !checker.VerifyIndex().ok();
  EXPECT_TRUE(violated)
      << "expected an IFA violation with early commit disabled";
}

// With early commit enabled the identical scenario is safe.
TEST(RecoveryEdgeTest, EarlyCommitPreservesSplitStructure) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  for (int batch = 0; batch < 5; ++batch) {
    Transaction* t = fx.db.txn().Begin(2);
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          fx.db.txn().IndexInsert(t, batch * 40 + i + 1, fx.table[0]).ok());
    }
    ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  }
  ASSERT_GT(fx.db.index().stats().splits, 0u);
  auto outcome = fx.db.Crash({2});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  NodeId probe = fx.db.machine().AliveNodes()[0];
  EXPECT_TRUE(fx.db.index().CheckStructure(probe).ok());
}

// The WAL gate must refuse to flush a page whose covering log records died
// with a crashed node (flushing would persist unrecoverable state).
TEST(RecoveryEdgeTest, WalGateBlocksFlushAfterUpdaterCrash) {
  // Use a no-IFA config so the crash leaves state unrecovered: we crash a
  // node *without* running recovery by driving the machine directly.
  DatabaseConfig cfg;
  cfg.machine.num_nodes = 4;
  cfg.recovery = RecoveryConfig::VolatileSelectiveRedo();
  Database db(cfg);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  Transaction* t = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t, (*table)[0],
                              std::vector<uint8_t>(22, 9)).ok());
  // Crash node 1 at the machine level only (no recovery): its unforced
  // update record is gone. The flush must fail — either because the WAL
  // gate cannot be satisfied or because the page's current contents are no
  // longer reachable (the sole copy died with the node). Either way,
  // unrecoverable uncommitted state never reaches the stable database.
  db.machine().CrashNode(1);
  Status s = db.buffers().FlushPage(0, (*table)[0].page);
  EXPECT_FALSE(s.ok()) << s.ToString();
  EXPECT_TRUE(s.IsNodeFailed() || s.IsLineLost()) << s.ToString();
}

// Checkpoints bound the replay: records before the checkpoint are not
// re-applied (their effects are in the stable database).
TEST(RecoveryEdgeTest, CheckpointBoundsReplay) {
  Fx fx(RecoveryConfig::VolatileRedoAll());
  // 10 committed updates, then a checkpoint, then 2 more.
  for (int i = 0; i < 10; ++i) {
    Transaction* t = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t, fx.table[i], Value(uint8_t(i))).ok());
    ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  }
  ASSERT_TRUE(fx.db.Checkpoint(0).ok());
  for (int i = 10; i < 12; ++i) {
    Transaction* t = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t, fx.table[i], Value(uint8_t(i))).ok());
    ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  }
  auto outcome = fx.db.Crash({3});
  ASSERT_TRUE(outcome.ok());
  // Only the two post-checkpoint updates were candidates for redo.
  EXPECT_LE(outcome->redo_applied + outcome->redo_skipped, 8u)
      << outcome->ToString();
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

// A transaction deleting its *own* uncommitted insert leaves nothing for
// annulment to resurrect (regression: unmarking such a tombstone would
// re-create a never-committed entry).
TEST(RecoveryEdgeTest, DeleteOfOwnInsertAnnulsToNothing) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    Transaction* t = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().IndexInsert(t, 77, fx.table[0]).ok());
    ASSERT_TRUE(fx.db.txn().IndexDelete(t, 77).ok());
    // Migrate the leaf line to a survivor so the state physically outlives
    // the crash.
    Transaction* other = fx.db.txn().Begin(2);
    ASSERT_TRUE(fx.db.txn().IndexInsert(other, 78, fx.table[1]).ok());
    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto l = fx.db.index().Lookup(2, 77);
    ASSERT_TRUE(l.ok());
    EXPECT_FALSE(l->has_value()) << rc.Name() << ": resurrected own insert";
    ASSERT_TRUE(fx.db.txn().Commit(other).ok());
  }
}

// A transaction deleting a committed key and re-inserting it must not
// destroy the committed before-image: annulment restores the original
// entry (regression: tombstone-slot reuse overwrote the committed rid).
TEST(RecoveryEdgeTest, ReinsertAfterDeleteAnnulsToCommitted) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    Transaction* setup = fx.db.txn().Begin(3);
    ASSERT_TRUE(fx.db.txn().IndexInsert(setup, 55, fx.table[4]).ok());
    ASSERT_TRUE(fx.db.txn().Commit(setup).ok());

    Transaction* t = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().IndexDelete(t, 55).ok());
    ASSERT_TRUE(fx.db.txn().IndexInsert(t, 55, fx.table[9]).ok());
    auto before = fx.db.index().Lookup(1, 55);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(before->has_value());
    EXPECT_EQ(**before, fx.table[9]);

    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto l = fx.db.index().Lookup(2, 55);
    ASSERT_TRUE(l.ok());
    ASSERT_TRUE(l->has_value()) << rc.Name() << ": committed entry lost";
    EXPECT_EQ(**l, fx.table[4]) << rc.Name() << ": wrong rid restored";
  }
}

// The same pattern rolled back voluntarily (no crash) must also restore
// the committed entry.
TEST(RecoveryEdgeTest, ReinsertAfterDeleteVoluntaryAbort) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  Transaction* setup = fx.db.txn().Begin(3);
  ASSERT_TRUE(fx.db.txn().IndexInsert(setup, 55, fx.table[4]).ok());
  ASSERT_TRUE(fx.db.txn().Commit(setup).ok());
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().IndexDelete(t, 55).ok());
  ASSERT_TRUE(fx.db.txn().IndexInsert(t, 55, fx.table[9]).ok());
  ASSERT_TRUE(fx.db.txn().Abort(t).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto l = fx.db.index().Lookup(2, 55);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(l->has_value());
  EXPECT_EQ(**l, fx.table[4]);
}

// And the commit of the pattern keeps the new entry (purging the residual
// committed tombstone lazily).
TEST(RecoveryEdgeTest, ReinsertAfterDeleteCommit) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  Transaction* setup = fx.db.txn().Begin(3);
  ASSERT_TRUE(fx.db.txn().IndexInsert(setup, 55, fx.table[4]).ok());
  ASSERT_TRUE(fx.db.txn().Commit(setup).ok());
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().IndexDelete(t, 55).ok());
  ASSERT_TRUE(fx.db.txn().IndexInsert(t, 55, fx.table[9]).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto l = fx.db.index().Lookup(2, 55);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(l->has_value());
  EXPECT_EQ(**l, fx.table[9]);
}

// Crashing every node but one still recovers (the most asymmetric case).
TEST(RecoveryEdgeTest, AllButOneCrash) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo(), 4);
  std::vector<Transaction*> txns;
  for (NodeId n = 0; n < 4; ++n) {
    Transaction* t = fx.db.txn().Begin(n);
    EXPECT_TRUE(fx.db.txn().Update(t, fx.table[n], Value(uint8_t(n + 1))).ok());
    txns.push_back(t);
  }
  auto outcome = fx.db.Crash({0, 1, 2});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->annulled.size(), 3u);
  EXPECT_EQ(outcome->preserved.size(), 1u);
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  EXPECT_TRUE(fx.db.txn().Commit(txns[3]).ok());
}

// Recovery with zero active transactions is a no-op that stays consistent.
TEST(RecoveryEdgeTest, QuiescentCrash) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll(),
                  RecoveryConfig::BaselineRebootAll()}) {
    Fx fx(rc);
    Transaction* t = fx.db.txn().Begin(0);
    ASSERT_TRUE(fx.db.txn().Update(t, fx.table[0], Value(7)).ok());
    ASSERT_TRUE(fx.db.txn().Commit(t).ok());
    auto outcome = fx.db.Crash({0});
    ASSERT_TRUE(outcome.ok()) << rc.Name();
    EXPECT_TRUE(outcome->annulled.empty());
    EXPECT_TRUE(fx.checker.VerifyAll().ok()) << rc.Name();
    auto slot = fx.db.records().SnoopSlot(fx.table[0]);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(7)) << rc.Name();
  }
}

// Restarted nodes rejoin cold and can run transactions again.
TEST(RecoveryEdgeTest, RestartedNodeWorks) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  Transaction* t = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[0], Value(1)).ok());
  auto outcome = fx.db.Crash({2});
  ASSERT_TRUE(outcome.ok());
  fx.db.RestartNodes({2});
  ASSERT_TRUE(fx.db.machine().NodeAlive(2));
  Transaction* t2 = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[1], Value(2)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t2).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

// A second crash during the window between recovery and the next
// checkpoint must still recover (CLRs are redo-only and never undone).
TEST(RecoveryEdgeTest, BackToBackCrashes) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo(), 6);
  Transaction* t0 = fx.db.txn().Begin(0);
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[0], Value(0xA0)).ok());
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[1], Value(0xB0)).ok());
  ASSERT_TRUE(fx.db.Crash({0}).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
  // Immediately crash another node, then the node that performed much of
  // the first recovery.
  ASSERT_TRUE(fx.db.Crash({1}).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
  ASSERT_TRUE(fx.db.Crash({2}).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
}

// Group commit: a crash after the commit record is enqueued but before any
// covering force means the transaction was never acknowledged — it must be
// annulled, and the record must keep its pre-transaction value.
TEST(RecoveryEdgeTest, GroupCommitCrashBeforeFlushAnnulsPending) {
  RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
  rc.group_commit = true;
  rc.group_commit_window_ns = 10'000'000;  // far beyond the test's horizon
  rc.group_commit_max_batch = 64;
  Fx fx(rc);
  RecordId r = fx.table[0];
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t1, r, Value(0x77)).ok());
  Status s = fx.db.txn().Commit(t1);
  ASSERT_TRUE(s.IsBusy()) << s.ToString();  // pending, unacknowledged
  EXPECT_EQ(t1->state, TxnState::kActive);
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(t1->state, TxnState::kAborted);  // annulled, never committed
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(r);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0));  // pre-transaction value
}

// Group commit under the eager-Stable LBM: the batch mixes update records
// (LBM intents) with commit records. A size-bound flush mid-stream makes
// the earlier transaction durable; the later one is still volatile when
// the node dies. Recovery must commit the first and annul the second.
TEST(RecoveryEdgeTest, GroupCommitCrashMidBatchMixedRecords) {
  RecoveryConfig rc = RecoveryConfig::StableEagerRedoAll();
  rc.group_commit = true;
  rc.group_commit_window_ns = 10'000'000;
  // a's records (begin, lock op, update, commit) stay under the bound; b's
  // update intent pushes past it and flushes the mixed batch.
  rc.group_commit_max_batch = 6;
  Fx fx(rc);
  RecordId r = fx.table[0];
  Transaction* a = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(a, r, Value(0x44)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(a).IsBusy());  // pending in the batch
  // b's update lands in the same batch and its LBM intent trips the size
  // bound: the flush makes a's commit record durable, but a stays
  // unacknowledged (nobody polled it yet).
  Transaction* b = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(b, fx.table[1], Value(0x55)).ok());
  EXPECT_GE(fx.db.group_commit()->stats().size_flushes, 1u);
  ASSERT_TRUE(fx.db.log().IsStable(1, a->last_lsn));
  EXPECT_EQ(a->state, TxnState::kActive);
  ASSERT_TRUE(fx.db.txn().Commit(b).IsBusy());  // volatile again after flush
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(a->state, TxnState::kCommitted);  // durable ⇒ resolved
  EXPECT_EQ(b->state, TxnState::kAborted);
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(r);
  auto slot_b = fx.db.records().SnoopSlot(fx.table[1]);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(slot_b.ok());
  EXPECT_EQ(slot->data, Value(0x44));    // a redone
  EXPECT_EQ(slot_b->data, Value(0));     // b annulled
}

// Redo's line traffic can force a survivor's live tail mid-pass: under
// Stable LBM a line holding an unforced update is "active", and when a
// redo performer takes it from its updater the migration hook forces the
// updater's log, moving the tail records into the stable stream. Redo
// collected those records before the pass and must not hold them where
// the force moved them from (they were copied; the stable ones never
// move). Here the crashed node's committed updates are redone on
// reinstalled lines of a page whose header line a survivor holds active,
// and the survivor's own unforced update sorts after them in the redo
// list. Covers the migration-triggered policy and Stable eager LBM riding
// group commit (which keeps the same migration safety net).
TEST(RecoveryEdgeTest, RedoMigrationForcesSurvivorTailMidPass) {
  RecoveryConfig triggered = RecoveryConfig::StableTriggeredSelectiveRedo();
  RecoveryConfig eager_gc = triggered;
  eager_gc.lbm = LbmKind::kStableEager;
  eager_gc.group_commit = true;
  eager_gc.group_commit_window_ns = 10'000'000;
  for (const RecoveryConfig& rc : {triggered, eager_gc}) {
    Fx fx(rc);
    // t0 on node 3 commits updates to three records of one page (the
    // commit forces node 3's log: its lines are no longer active).
    Transaction* t0 = fx.db.txn().Begin(3);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[i], Value(0x30 + i)).ok());
    }
    Status c = fx.db.txn().Commit(t0);
    if (c.IsBusy()) {
      ASSERT_TRUE(fx.db.log().Force(3, 3).ok());
      ASSERT_TRUE(fx.db.txn().TryFinishDurablePendingCommit(t0));
    } else {
      ASSERT_TRUE(c.ok()) << c.ToString();
    }
    ASSERT_EQ(fx.table[3].page, fx.table[0].page);
    // t1 on survivor node 1 updates a fourth record of the page and stays
    // active: its update (and the page header line it wrote) is unforced.
    Transaction* t1 = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[3], Value(0x41)).ok());
    ASSERT_GT(fx.db.log().TailSize(1), 0u);
    const uint64_t lbm_before = fx.db.log().stats().lbm_forces;

    auto outcome = fx.db.Crash({3});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    // The redo pass forced node 1's tail while it ran.
    EXPECT_GT(fx.db.log().stats().lbm_forces, lbm_before);
    EXPECT_EQ(fx.db.log().TailSize(1), 0u);
    EXPECT_TRUE(fx.db.log().IsStable(1, t1->last_lsn));
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << fx.checker.VerifyAll().ToString();
    for (int i = 0; i < 3; ++i) {
      auto slot = fx.db.records().SnoopSlot(fx.table[i]);
      ASSERT_TRUE(slot.ok());
      EXPECT_EQ(slot->data, Value(0x30 + i));  // t0 redone
    }
    auto s1 = fx.db.records().SnoopSlot(fx.table[3]);
    ASSERT_TRUE(s1.ok());
    EXPECT_EQ(s1->data, Value(0x41));  // t1 preserved
    EXPECT_EQ(t1->state, TxnState::kActive);
  }
}

// The on-demand window keeps the redo list past the recovery. A survivor's
// volatile-tail record in it must be the list's own copy: here the
// survivor's log is forced while the window is open and its tail refilled
// with records of other types, so a reference into the tail would now name
// a lock-op record when the drain replays it.
TEST(RecoveryEdgeTest, OnDemandRedoListOutlivesSurvivorTailForce) {
  RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
  rc.on_demand = true;
  Fx fx(rc);
  Transaction* t1 = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[5], Value(0x55)).ok());
  Transaction* t2 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[2], Value(0x22)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t2).ok());
  ASSERT_GT(fx.db.log().TailSize(0), 0u);

  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(fx.db.RecoveringActive());
  ASSERT_TRUE(fx.db.log().Force(0, 0).ok());
  // A read first, so the refilled tail's records sit at other positions
  // than the ones they replace.
  Transaction* t3 = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().Read(t3, fx.table[12]).ok());
  ASSERT_TRUE(fx.db.txn().Update(t3, fx.table[13], Value(0x13)).ok());
  ASSERT_TRUE(fx.db.txn().Update(t3, fx.table[14], Value(0x14)).ok());

  ASSERT_TRUE(fx.db.DrainRecovery().ok());
  ASSERT_TRUE(fx.db.txn().Commit(t3).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t1).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto s5 = fx.db.records().SnoopSlot(fx.table[5]);
  ASSERT_TRUE(s5.ok());
  EXPECT_EQ(s5->data, Value(0x55));
}

// RebootAll with a non-empty pending batch: a pending commit whose record
// an unrelated force made durable is committed by crash-time resolution; a
// still-volatile pending commit is annulled with everything else.
TEST(RecoveryEdgeTest, GroupCommitRebootAllWithPendingBatch) {
  RecoveryConfig rc = RecoveryConfig::BaselineRebootAll();
  rc.group_commit = true;
  rc.group_commit_window_ns = 10'000'000;
  rc.group_commit_max_batch = 64;
  Fx fx(rc);
  RecordId rp = fx.table[0];
  RecordId rq = fx.table[1];
  Transaction* p = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(p, rp, Value(0x66)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(p).IsBusy());  // volatile pending
  Transaction* q = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(q, rq, Value(0x99)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(q).IsBusy());
  // An unrelated force (as the WAL gate or a checkpoint would issue) makes
  // q's batch durable; q stays unacknowledged until polled — the crash
  // arrives first.
  ASSERT_TRUE(fx.db.log().Force(2, 2).ok());
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(p->state, TxnState::kAborted);    // record lost with node 1
  EXPECT_EQ(q->state, TxnState::kCommitted);  // durable ⇒ resolved
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto sp = fx.db.records().SnoopSlot(rp);
  auto sq = fx.db.records().SnoopSlot(rq);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(sq.ok());
  EXPECT_EQ(sp->data, Value(0));
  EXPECT_EQ(sq->data, Value(0x99));
}

// ROADMAP item 5 regression: RebootAll with early_commit_structural=false
// never forced split-touched pages, so a whole-machine reload restored torn
// B+-tree routing ("Corruption: descent reached a non-tree page"). The
// split fix forces every page a split touched (WAL-gated, leaf first) at
// structural commit. This is the distilled schedule that reproduced it:
// index-heavy bench workload, two whole-machine reboots mid-run. Below
// ~60 txns/node the tree stays shallow enough that the torn routing never
// lands under a descent; 60 and 75 both corrupted before the fix.
TEST(RebootAllSplitDurability, SurvivesWholeMachineReloadUnderSplitLoad) {
  for (size_t txns_per_node : {60u, 75u}) {
    HarnessConfig cfg;
    cfg.db.machine.num_nodes = 8;
    cfg.db.recovery = RecoveryConfig::BaselineRebootAll();
    cfg.num_records = 256;
    cfg.workload.txns_per_node = txns_per_node;
    cfg.workload.ops_per_txn = 8;
    cfg.workload.write_ratio = 0.5;
    cfg.workload.index_op_ratio = 0.15;
    cfg.workload.seed = 42;
    cfg.steal_flush_prob = 0.01;
    cfg.seed = 42 ^ 0xBEEF;
    uint64_t steps = txns_per_node * 8 * 8;
    cfg.crashes = {CrashPlan{steps / 2, {2}, true},
                   CrashPlan{steps * 3 / 4, {4, 5}, true}};
    Harness h(cfg);
    auto report = h.Run();
    ASSERT_TRUE(report.ok())
        << txns_per_node << " txns/node: " << report.status().ToString();
    EXPECT_TRUE(report->verify_status.ok())
        << txns_per_node << " txns/node: "
        << report->verify_status.ToString();
    EXPECT_GT(report->btree.splits, 0u)
        << "schedule must actually split, or the regression is untested";
    for (const auto& r : report->recoveries) {
      EXPECT_TRUE(r.whole_machine_restart);
    }
  }
}

// Regression (ROADMAP 5b): eager Selective Redo "duplicate live index
// entry" at >= 75 txns/node in bench_availability. A split leaf whose
// header line survives the crash (shared on a survivor) while its tail
// entry lines are lost pairs a post-split Page-LSN with pre-split
// reinstalled lines: the structural-redo Page-LSN guard then skipped the
// split's page image, and the keys the split had moved to the right
// sibling resurrected in the old leaf as duplicate live entries. The
// reinstall pass now flags such spliced pages and structural redo installs
// their images unconditionally.
TEST(RecoveryEdgeTest, SplitLeafPartialLineLossDoesNotResurrectMovedKeys) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::StableTriggeredSelectiveRedo()}) {
    DatabaseConfig c;
    c.machine.num_nodes = 4;
    c.page_size = 512;  // 4 lines: header + 3 entry lines of 4 entries each
    c.recovery = rc;
    Database db(c);
    IfaChecker checker(&db);
    db.txn().AddObserver(&checker);
    auto t = db.CreateTable(8);
    ASSERT_TRUE(t.ok());
    checker.RegisterTable(*t);

    // Node 1 fills the root leaf (12 slots) and commits; the checkpoint
    // writes the full pre-split leaf image to the stable database.
    Transaction* fill = db.txn().Begin(1);
    for (uint64_t k = 10; k <= 120; k += 10) {
      ASSERT_TRUE(db.txn().IndexInsert(fill, k, (*t)[0]).ok());
    }
    ASSERT_TRUE(db.txn().Commit(fill).ok());
    ASSERT_TRUE(db.Checkpoint(0).ok());

    // The 13th key splits the leaf: keys >= 70 move to the new right
    // sibling, the old leaf is compacted into its first entry lines, and
    // the structural nested top-level action stamps its Page-LSN.
    Transaction* split = db.txn().Begin(1);
    ASSERT_TRUE(db.txn().IndexInsert(split, 130, (*t)[0]).ok());
    ASSERT_TRUE(db.txn().Commit(split).ok());

    // A survivor looks up the leaf's lowest key: that caches the old
    // leaf's header line (post-split Page-LSN) and first entry line on
    // node 0 — but the tail entry lines stay exclusive to node 1.
    Transaction* peek = db.txn().Begin(0);
    auto found = db.txn().IndexLookup(peek, 10);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(found->has_value());
    ASSERT_TRUE(db.txn().Commit(peek).ok());

    // Crash node 1: selective redo reinstalls the lost tail lines from the
    // pre-split stable image. The moved keys must not come back live.
    auto outcome = db.Crash({1});
    ASSERT_TRUE(outcome.ok())
        << rc.Name() << ": " << outcome.status().ToString();
    Status v = checker.VerifyAll();
    EXPECT_TRUE(v.ok()) << rc.Name() << ": " << v.ToString();
    EXPECT_TRUE(db.index().CheckStructure(0).ok()) << rc.Name();
  }
}

// Crash schedules distilled from crash-schedule fuzzer cases. Each runs
// the seeded workload through the Harness under one protocol and must
// verify clean after every recovery and at the end.
HarnessConfig FuzzDistilledConfig(RecoveryConfig rc, uint16_t nodes,
                                  size_t records, uint16_t record_bytes,
                                  WorkloadSpec workload,
                                  std::vector<CrashPlan> crashes,
                                  double steal, uint64_t harness_seed) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = nodes;
  cfg.db.record_data_size = record_bytes;
  cfg.db.recovery = rc;
  cfg.num_records = records;
  cfg.workload = workload;
  cfg.crashes = std::move(crashes);
  cfg.steal_flush_prob = steal;
  cfg.seed = harness_seed;
  return cfg;
}

void ExpectCleanRun(const HarnessConfig& cfg, size_t recoveries) {
  Harness h(cfg);
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->recoveries.size(), recoveries);
  EXPECT_TRUE(report->verify_status.ok()) << report->verify_status.ToString();
}

// AbortDependents, 6 nodes, steal 0.03: {2,1} crash for good at step 46,
// {0} crashes and restarts at step 231, {5} at step 270. Node 5's active
// transaction updated p2.s9 before the second crash; that crash's redo
// re-noted node 5's older records for page 2 in the WAL (page, LSN) table,
// lowering node 5's requirement below the volatile update. A steal flush
// then wrote the uncommitted value to disk without forcing its log record,
// and once node 5 crashed the tag undo found nothing in the log to rewind
// the stolen value with: the committed value (zeros) never came back.
TEST(RecoveryEdgeTest, RedoDoesNotLowerWalRequirementUnderSteal) {
  WorkloadSpec w;
  w.txns_per_node = 5;
  w.ops_per_txn = 7;
  w.write_ratio = 0.48872484969683394;
  w.index_op_ratio = 0.23006450987309571;
  w.dirty_read_ratio = 0.05;
  w.zipf_theta = 0.9;
  w.shared_fraction = 1.0;
  w.voluntary_abort_ratio = 0.0;
  w.index_key_space = 256;
  w.seed = 16818056104277171811ULL;
  ExpectCleanRun(
      FuzzDistilledConfig(RecoveryConfig::BaselineAbortDependents(), 6, 128,
                          16, w,
                          {CrashPlan{270, {5, 5}, true},
                           CrashPlan{46, {2, 1}, false},
                           CrashPlan{231, {0}, true}},
                          /*steal=*/0.03, 8190346514531792530ULL),
      3);
}

// Stable-Triggered LBM + Selective Redo, 7 nodes: {0} crashes at step
// 208 and {5} at 341 (no restarts), then every remaining node crashes at
// 382: a whole-machine restart. Node 5's active transaction had deleted a
// committed key; the second recovery undid the delete and logged the
// compensation on a survivor. The whole-machine redo replayed the delete
// (a tagged tombstone) and then the compensation into a fresh slot, and
// the undo pass revived the tombstone too: two live entries for the key.
// Two workload seeds hit it, on keys 72 and 2.
TEST(RecoveryEdgeTest, WholeMachineRedoOfUndoneDeleteKeepsOneLiveEntry) {
  for (auto [workload_seed, harness_seed] :
       {std::pair{3968832524651798887ULL, 3840551785863347309ULL},
        std::pair{7504494818432822760ULL, 15282078022362701488ULL}}) {
    SCOPED_TRACE("workload seed " + std::to_string(workload_seed));
    WorkloadSpec w;
    w.txns_per_node = 10;
    w.ops_per_txn = 8;
    w.write_ratio = 0.5664357790883994;
    w.index_op_ratio = 0.28313703632704595;
    w.dirty_read_ratio = 0.0;
    w.zipf_theta = 0.0;
    w.shared_fraction = 0.5;
    w.voluntary_abort_ratio = 0.1;
    w.index_key_space = 256;
    w.seed = workload_seed;
    ExpectCleanRun(
        FuzzDistilledConfig(RecoveryConfig::StableTriggeredSelectiveRedo(), 7,
                            32, 30, w,
                            {CrashPlan{382, {0, 1, 2, 3, 4, 5, 6}, true},
                             CrashPlan{341, {5, 0}, false},
                             CrashPlan{208, {0}, false}},
                            /*steal=*/0.0, harness_seed),
        3);
  }
}

}  // namespace
}  // namespace smdb
