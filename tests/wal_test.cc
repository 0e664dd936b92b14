// Unit tests for the WAL layer: per-node logs with volatile tails, forces,
// crash destruction, checkpoints, and the log record taxonomy.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/recovery_manager.h"
#include "wal/checkpoint.h"

namespace smdb {
namespace {

struct WalFixture {
  WalFixture() : machine(MakeCfg()), stable(4), log(&machine, &stable) {}
  static MachineConfig MakeCfg() {
    MachineConfig c;
    c.num_nodes = 4;
    return c;
  }
  LogRecord Update(TxnId txn, RecordId rid, uint64_t usn) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn = txn;
    UpdatePayload u;
    u.rid = rid;
    u.usn = usn;
    u.before.assign(4, 0);
    u.after.assign(4, 1);
    rec.payload = std::move(u);
    return rec;
  }
  Machine machine;
  StableLogStore stable;
  LogManager log;
};

TEST(LogManagerTest, AppendAssignsMonotonicLsns) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  EXPECT_EQ(f.log.Append(0, f.Update(t, {1, 0}, 1)), 1u);
  EXPECT_EQ(f.log.Append(0, f.Update(t, {1, 1}, 2)), 2u);
  EXPECT_EQ(f.log.Append(1, f.Update(t, {1, 2}, 3)), 1u);  // per-node LSNs
  EXPECT_EQ(f.log.TailSize(0), 2u);
  EXPECT_EQ(f.log.stable_lsn(0), kInvalidLsn);
}

TEST(LogManagerTest, ForceMovesTailToStable) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  f.log.Append(0, f.Update(t, {1, 0}, 1));
  f.log.Append(0, f.Update(t, {1, 1}, 2));
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  EXPECT_EQ(f.log.TailSize(0), 0u);
  EXPECT_EQ(f.log.stable_lsn(0), 2u);
  EXPECT_TRUE(f.log.IsStable(0, 2));
  EXPECT_FALSE(f.log.IsStable(0, 3));
  EXPECT_EQ(f.stable.Records(0).size(), 2u);
}

TEST(LogManagerTest, ForceChargesRequestor) {
  WalFixture f;
  f.log.Append(2, f.Update(MakeTxnId(2, 1), {1, 0}, 1));
  SimTime t0 = f.machine.NodeClock(0);
  ASSERT_TRUE(f.log.Force(0, 2).ok());
  EXPECT_EQ(f.machine.NodeClock(0),
            t0 + f.machine.config().timing.log_force_ns);
}

TEST(LogManagerTest, NvramForceIsCheap) {
  MachineConfig c;
  c.num_nodes = 2;
  c.nvram_log = true;
  Machine m(c);
  StableLogStore stable(2);
  LogManager log(&m, &stable);
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn = MakeTxnId(0, 1);
  rec.payload = BeginPayload{};
  log.Append(0, std::move(rec));
  SimTime t0 = m.NodeClock(0);
  ASSERT_TRUE(log.Force(0, 0).ok());
  EXPECT_EQ(m.NodeClock(0), t0 + c.timing.nvram_force_ns);
}

TEST(LogManagerTest, EmptyForceIsFreeButCounted) {
  WalFixture f;
  SimTime t0 = f.machine.NodeClock(0);
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  // No records moved: no I/O time charged, no force counted.
  EXPECT_EQ(f.machine.NodeClock(0), t0);
  EXPECT_EQ(f.log.stats().forces, 0u);
  EXPECT_EQ(f.log.stats().forced_records, 0u);
}

TEST(LogManagerTest, ForceBatchAccounting) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  f.log.Append(0, f.Update(t, {1, 0}, 1));
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  for (uint64_t u = 2; u <= 6; ++u) {
    f.log.Append(0, f.Update(t, {1, 0}, u));
  }
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  const LogStats& s = f.log.stats();
  EXPECT_EQ(s.forces, 2u);
  EXPECT_EQ(s.forced_records, 6u);
  // Every force makes at least one record durable.
  EXPECT_LE(s.forces, s.forced_records);
  EXPECT_EQ(s.max_force_batch(), 5u);
  EXPECT_EQ(s.force_batch_bucket(LogStats::BatchBucket(1)), 1u);
  EXPECT_EQ(s.force_batch_bucket(LogStats::BatchBucket(5)), 1u);
}

TEST(LogManagerTest, BatchBucketsCoverPowersOfTwo) {
  EXPECT_EQ(LogStats::BatchBucket(1), 0u);
  EXPECT_EQ(LogStats::BatchBucket(2), 1u);
  EXPECT_EQ(LogStats::BatchBucket(3), 2u);
  EXPECT_EQ(LogStats::BatchBucket(4), 2u);
  EXPECT_EQ(LogStats::BatchBucket(5), 3u);
  EXPECT_EQ(LogStats::BatchBucket(8), 3u);
  EXPECT_EQ(LogStats::BatchBucket(64), 6u);
  EXPECT_EQ(LogStats::BatchBucket(65), 7u);
  EXPECT_EQ(LogStats::BatchBucket(100000), 7u);
  EXPECT_STREQ(LogStats::BatchBucketLabel(0), "1");
  EXPECT_STREQ(LogStats::BatchBucketLabel(7), "65+");
}

TEST(LogManagerTest, CrashDestroysVolatileTailOnly) {
  WalFixture f;
  TxnId t = MakeTxnId(1, 1);
  f.log.Append(1, f.Update(t, {1, 0}, 1));
  ASSERT_TRUE(f.log.Force(1, 1).ok());
  f.log.Append(1, f.Update(t, {1, 1}, 2));
  f.log.OnNodeCrash(1);
  EXPECT_EQ(f.log.TailSize(1), 0u);
  EXPECT_EQ(f.log.stable_lsn(1), 1u);  // durable prefix survives
  int stable_count = 0;
  f.log.ForEachStable(1, [&](const LogRecord&) { ++stable_count; });
  EXPECT_EQ(stable_count, 1);
}

TEST(LogManagerTest, CannotForceCrashedNodesLog) {
  WalFixture f;
  f.machine.CrashNode(2);
  EXPECT_TRUE(f.log.Force(0, 2).IsNodeFailed());
}

TEST(LogManagerTest, ForceHooksFire) {
  WalFixture f;
  NodeId forced = kInvalidNode;
  f.log.AddForceHook([&](NodeId n) { forced = n; });
  ASSERT_TRUE(f.log.Force(0, 3).ok());
  EXPECT_EQ(forced, 3);
}

TEST(LogManagerTest, ForEachAllCoversStableAndVolatile) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  f.log.Append(0, f.Update(t, {1, 0}, 1));
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  f.log.Append(0, f.Update(t, {1, 1}, 2));
  std::vector<Lsn> seen;
  f.log.ForEachAll(0, [&](const LogRecord& r) { seen.push_back(r.lsn); });
  EXPECT_EQ(seen, (std::vector<Lsn>{1, 2}));
}

TEST(LogManagerTest, FindLooksUpStableSuffixAndTail) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  for (uint64_t i = 1; i <= 6; ++i) f.log.Append(0, f.Update(t, {1, 0}, i));
  ASSERT_TRUE(f.log.Force(0, 0).ok());  // LSNs 1..6 stable
  for (uint64_t i = 7; i <= 9; ++i) f.log.Append(0, f.Update(t, {1, 0}, i));
  ASSERT_EQ(f.log.TailSize(0), 3u);     // LSNs 7..9 volatile
  for (Lsn lsn = 1; lsn <= 9; ++lsn) {
    const LogRecord* rec = f.log.Find(0, lsn);
    ASSERT_NE(rec, nullptr) << "lsn " << lsn;
    EXPECT_EQ(rec->lsn, lsn);
    EXPECT_EQ(rec->update().usn, lsn);
  }
  EXPECT_EQ(f.log.Find(0, kInvalidLsn), nullptr);
  EXPECT_EQ(f.log.Find(0, 10), nullptr);  // never assigned
  EXPECT_EQ(f.log.Find(1, 1), nullptr);   // another node's (empty) log

  // Truncated prefix: gone from the lookup; the suffix is still found.
  ASSERT_EQ(f.log.TruncateThrough(0, 3), 3u);
  for (Lsn lsn = 1; lsn <= 3; ++lsn) EXPECT_EQ(f.log.Find(0, lsn), nullptr);
  ASSERT_NE(f.log.Find(0, 4), nullptr);
  EXPECT_EQ(f.log.Find(0, 4)->lsn, 4u);

  // Annulled tail record: a gap; its neighbours are still found.
  f.log.AnnulVolatile(0, 8);
  EXPECT_EQ(f.log.Find(0, 8), nullptr);
  ASSERT_NE(f.log.Find(0, 7), nullptr);
  ASSERT_NE(f.log.Find(0, 9), nullptr);
  EXPECT_EQ(f.log.Find(0, 9)->lsn, 9u);

  // A crash loses the tail; the stable suffix survives.
  f.machine.CrashNode(0);
  f.log.OnNodeCrash(0);
  EXPECT_EQ(f.log.Find(0, 9), nullptr);
  ASSERT_NE(f.log.Find(0, 6), nullptr);
}

TEST(LogManagerTest, ForceMovesRecordsIntact) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  f.log.Append(0, f.Update(t, {2, 5}, 11));
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  const LogRecord* rec = f.log.Find(0, 1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->txn, t);
  EXPECT_EQ(rec->update().rid, (RecordId{2, 5}));
  EXPECT_EQ(rec->update().before, std::vector<uint8_t>(4, 0));
  EXPECT_EQ(rec->update().after, std::vector<uint8_t>(4, 1));
}

TEST(LogRecordTest, ToStringVariants) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = MakeTxnId(2, 9);
  rec.node = 2;
  rec.lsn = 4;
  UpdatePayload u;
  u.rid = {3, 7};
  u.usn = 12;
  u.is_clr = true;
  rec.payload = std::move(u);
  std::string s = rec.ToString();
  EXPECT_NE(s.find("UPDATE"), std::string::npos);
  EXPECT_NE(s.find("CLR"), std::string::npos);
  EXPECT_NE(s.find("p3.s7"), std::string::npos);

  LogRecord lk;
  lk.type = LogRecordType::kLockOp;
  lk.txn = MakeTxnId(0, 1);
  lk.payload = LockOpPayload{42, LockMode::kShared, LockOpPayload::Op::kQueue};
  EXPECT_NE(lk.ToString().find("LOCKOP"), std::string::npos);
}

TEST(LockModeTest, CompatibilityMatrix) {
  EXPECT_TRUE(Compatible(LockMode::kNone, LockMode::kExclusive));
  EXPECT_TRUE(Compatible(LockMode::kShared, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kShared, LockMode::kExclusive));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kExclusive));
}

TEST(CheckpointTest, AdvancesReplayStartAndFlushes) {
  DatabaseConfig c;
  c.machine.num_nodes = 3;
  Database db(c);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());

  Transaction* t = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t, (*table)[0],
                              std::vector<uint8_t>(22, 3)).ok());
  ASSERT_TRUE(db.txn().Commit(t).ok());
  EXPECT_TRUE(db.buffers().IsDirty((*table)[0].page));  // no-force!

  ASSERT_TRUE(db.Checkpoint(0).ok());
  EXPECT_FALSE(db.buffers().IsDirty((*table)[0].page));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_NE(db.log().checkpoint_lsn(n), kInvalidLsn);
    EXPECT_EQ(db.log().TailSize(n), 0u);
  }
  // The stable database now reflects the committed update.
  std::vector<uint8_t> img;
  ASSERT_TRUE(db.buffers().ReadStableImage(0, (*table)[0].page, &img).ok());
  EXPECT_EQ(db.records().DecodeStableSlot(img, 0).data,
            std::vector<uint8_t>(22, 3));
}

TEST(LogTruncationTest, DropsPrefixKeepsLsnNumbering) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  for (int i = 0; i < 5; ++i) {
    f.log.Append(0, f.Update(t, {1, uint16_t(i)}, i + 1));
  }
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  EXPECT_EQ(f.log.TruncateThrough(0, 3), 3u);
  std::vector<Lsn> kept;
  f.log.ForEachStable(0, [&](const LogRecord& r) { kept.push_back(r.lsn); });
  EXPECT_EQ(kept, (std::vector<Lsn>{4, 5}));
  // Appends continue with the old numbering.
  EXPECT_EQ(f.log.Append(0, f.Update(t, {1, 9}, 9)), 6u);
}

TEST(LogTruncationTest, CheckpointTruncatesBehindOldestActive) {
  DatabaseConfig c;
  c.machine.num_nodes = 2;
  Database db(c);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());

  // A long-running transaction pins the truncation point.
  Transaction* old_txn = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(old_txn, (*table)[0],
                              std::vector<uint8_t>(22, 1)).ok());
  for (int i = 0; i < 5; ++i) {
    Transaction* t = db.txn().Begin(0);
    ASSERT_TRUE(db.txn().Update(t, (*table)[1 + i],
                                std::vector<uint8_t>(22, 2)).ok());
    ASSERT_TRUE(db.txn().Commit(t).ok());
  }
  ASSERT_TRUE(db.Checkpoint(0).ok());
  // old_txn's records (its Begin onward) must survive the truncation so a
  // voluntary abort still works.
  ASSERT_TRUE(db.txn().Abort(old_txn).ok());
  auto slot = db.records().SnoopSlot((*table)[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, std::vector<uint8_t>(22, 0));

  // Without active transactions the checkpoint reclaims the whole prefix.
  uint64_t before = db.log().stats().truncated_records;
  ASSERT_TRUE(db.Checkpoint(0).ok());
  EXPECT_GT(db.log().stats().truncated_records, before);
}

TEST(LogTruncationTest, RecoveryWorksAfterTruncation) {
  DatabaseConfig c;
  c.machine.num_nodes = 4;
  c.recovery = RecoveryConfig::VolatileSelectiveRedo();
  Database db(c);
  IfaChecker checker(&db);
  db.txn().AddObserver(&checker);
  auto table = db.CreateTable(16);
  ASSERT_TRUE(table.ok());
  checker.RegisterTable(*table);
  // Several generations of work + checkpoints (each truncates), then a
  // crash with in-flight work.
  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 4; ++i) {
      Transaction* t = db.txn().Begin(static_cast<NodeId>(i));
      ASSERT_TRUE(db.txn()
                      .Update(t, (*table)[gen * 4 + i],
                              std::vector<uint8_t>(22, uint8_t(gen + 1)))
                      .ok());
      ASSERT_TRUE(db.txn().Commit(t).ok());
    }
    ASSERT_TRUE(db.Checkpoint(0).ok());
  }
  EXPECT_GT(db.log().stats().truncated_records, 0u);
  Transaction* active = db.txn().Begin(1);
  ASSERT_TRUE(db.txn()
                  .Update(active, (*table)[15], std::vector<uint8_t>(22, 9))
                  .ok());
  auto outcome = db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(checker.VerifyAll().ok()) << checker.VerifyAll().ToString();
}

TEST(StableLogStoreTest, PerNodeStreams) {
  StableLogStore s(3);
  LogRecord r;
  r.lsn = 1;
  s.Append(1, std::move(r));
  EXPECT_EQ(s.Records(0).size(), 0u);
  EXPECT_EQ(s.Records(1).size(), 1u);
  EXPECT_EQ(s.LastLsn(1), 1u);
  EXPECT_EQ(s.LastLsn(2), kInvalidLsn);
}

TEST(StableLogStoreTest, RecordsNeverMoveAndTruncateFreesWholeSegments) {
  // Stable records are stored in fixed-capacity segments (64, 128, ...,
  // doubling to LogStream::kSegment): appends never relocate a record, so
  // recovery can hold references into a stream while forces extend it.
  StableLogStore s(1);
  const Lsn n = 3 * LogStream::kSegment + 100;
  std::vector<const LogRecord*> where;
  for (Lsn lsn = 1; lsn <= n; ++lsn) {
    LogRecord r;
    r.lsn = lsn;
    s.Append(0, std::move(r));
    where.push_back(&s.Records(0).back());
  }
  const LogStream& stream = s.Records(0);
  ASSERT_EQ(stream.size(), n);
  EXPECT_EQ(s.LastLsn(0), n);
  for (Lsn lsn = 1; lsn <= n; ++lsn) {
    ASSERT_EQ(where[lsn - 1]->lsn, lsn);  // still there, unmoved
    ASSERT_EQ(stream.Find(lsn), where[lsn - 1]);
    ASSERT_EQ(&stream[lsn - 1], where[lsn - 1]);
  }
  // 64 + 128 + ... + 2048 = 4032 records, then 4096-record segments.
  const size_t segments = stream.segment_count();
  EXPECT_EQ(segments, 6u + (n - 4032 + LogStream::kSegment - 1) /
                               LogStream::kSegment);

  // Through the end of the second segment: exactly two segments freed.
  EXPECT_EQ(s.Truncate(0, 64 + 128), 192u);
  EXPECT_EQ(stream.segment_count(), segments - 2);
  // Mid-segment: records dropped, no segment freed.
  EXPECT_EQ(s.Truncate(0, 200), 8u);
  EXPECT_EQ(stream.segment_count(), segments - 2);
  EXPECT_EQ(stream.size(), n - 200);
  EXPECT_EQ(stream.Find(200), nullptr);
  EXPECT_EQ(stream.Find(201), where[200]);
  EXPECT_EQ(&stream[0], where[200]);
  for (Lsn lsn = 201; lsn <= n; ++lsn) {
    ASSERT_EQ(stream.Find(lsn), where[lsn - 1]);
  }

  std::vector<Lsn> seen;
  stream.ForEach([&](const LogRecord& r) { seen.push_back(r.lsn); });
  ASSERT_EQ(seen.size(), n - 200);
  for (size_t i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], 201 + i);
  seen.clear();
  stream.ForEachAfter(4032, [&](const LogRecord& r) { seen.push_back(r.lsn); });
  ASSERT_EQ(seen.size(), n - 4032);
  EXPECT_EQ(seen.front(), 4033u);
  EXPECT_EQ(seen.back(), n);

  // Everything: the stream is empty and owns no segment.
  EXPECT_EQ(s.Truncate(0, n), n - 200);
  EXPECT_EQ(stream.segment_count(), 0u);
  EXPECT_TRUE(stream.empty());
  EXPECT_EQ(s.LastLsn(0), kInvalidLsn);
}

TEST(LogManagerTest, FindAndForEachStableAcrossSegmentsAndTruncation) {
  // Forces of 100 records put batch boundaries inside segments and segment
  // boundaries inside batches.
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  const Lsn n = 5000;
  for (Lsn lsn = 1; lsn <= n; ++lsn) {
    f.log.Append(0, f.Update(t, {1, 0}, lsn));
    if (lsn % 100 == 0) {
      ASSERT_TRUE(f.log.Force(0, 0).ok());
    }
  }
  const LogRecord* first_kept = f.log.Find(0, 4000);
  auto check = [&](Lsn from) {
    std::vector<Lsn> seen;
    f.log.ForEachStable(0, [&](const LogRecord& r) {
      seen.push_back(r.lsn);
      EXPECT_EQ(r.update().usn, r.lsn);
    });
    ASSERT_EQ(seen.size(), n - from + 1);
    for (size_t i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], from + i);
    for (Lsn lsn = from; lsn <= n; ++lsn) {
      const LogRecord* rec = f.log.Find(0, lsn);
      ASSERT_NE(rec, nullptr) << "lsn " << lsn;
      ASSERT_EQ(rec->lsn, lsn);
    }
    for (Lsn lsn = 1; lsn < from; ++lsn) {
      ASSERT_EQ(f.log.Find(0, lsn), nullptr);
    }
  };
  check(1);
  ASSERT_EQ(f.log.TruncateThrough(0, 63), 63u);  // inside the first segment
  check(64);
  ASSERT_EQ(f.log.TruncateThrough(0, 3999), 3936u);  // across several
  check(4000);
  EXPECT_EQ(f.log.Find(0, 4000), first_kept);  // never moved
}

}  // namespace
}  // namespace smdb
