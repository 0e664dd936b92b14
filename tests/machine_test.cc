#include "sim/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/directory.h"

namespace smdb {
namespace {

MachineConfig SmallConfig(uint16_t nodes = 4) {
  MachineConfig c;
  c.num_nodes = nodes;
  return c;
}

TEST(MachineTest, ReadYourWrites) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(256);
  uint64_t v = 0xDEADBEEF;
  ASSERT_TRUE(m.WriteValue(0, a, v).ok());
  auto r = m.ReadValue<uint64_t>(0, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, v);
}

TEST(MachineTest, CoherentAcrossNodes) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 7).ok());
  auto r = m.ReadValue<uint32_t>(3, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7u);
  // After a remote write, node 3's copy must be invalidated.
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 9).ok());
  auto r2 = m.ReadValue<uint32_t>(3, a);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 9u);
}

TEST(MachineTest, WwMigrationLeavesSoleCopy) {
  // History H_ww1: w_x[l]; w_y[l] — the line migrates and only node y holds
  // it afterwards.
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 2).ok());
  const DirEntry* e = m.FindLine(line);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 1);
  EXPECT_EQ(e->num_sharers(), 1);
  EXPECT_GE(m.stats().migrations, 1u);
}

TEST(MachineTest, WrReplication) {
  // History H_wr: w_x[l]; r_y[l] — both nodes end with a valid copy.
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  auto r = m.ReadValue<uint32_t>(2, a);
  ASSERT_TRUE(r.ok());
  const DirEntry* e = m.FindLine(line);
  EXPECT_EQ(e->num_sharers(), 2);
  EXPECT_TRUE(e->cached_by(0));
  EXPECT_TRUE(e->cached_by(2));
  EXPECT_GE(m.stats().replications, 1u);
}

TEST(MachineTest, CrashDestroysSoleCopy) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 42).ok());
  m.CrashNode(1);
  EXPECT_TRUE(m.IsLineLost(line));
  EXPECT_FALSE(m.ProbeLine(line));
  auto r = m.ReadValue<uint32_t>(0, a);
  EXPECT_TRUE(r.status().IsLineLost());
}

TEST(MachineTest, CrashSparesReplicatedLine) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 42).ok());
  ASSERT_TRUE(m.ReadValue<uint32_t>(2, a).ok());  // replicate
  m.CrashNode(1);
  EXPECT_FALSE(m.IsLineLost(line));
  EXPECT_TRUE(m.ProbeLine(line));
  auto r = m.ReadValue<uint32_t>(0, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42u);
}

TEST(MachineTest, CrashDestroysHomeMemory) {
  Machine m(SmallConfig(2));
  // Find an address homed on node 1.
  Addr a = m.AllocShared(1024);
  Addr on1 = a;
  while (m.HomeOf(m.LineOf(on1)) != 1) on1 += m.line_size();
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, on1, 5).ok());
  // Install to memory then drop cached copies so only home memory holds it.
  uint32_t v = 5;
  m.InstallToMemory(on1, &v, sizeof(v));
  m.CrashNode(1);
  EXPECT_TRUE(m.IsLineLost(m.LineOf(on1)));
}

TEST(MachineTest, InstallToMemoryRecoversLostLine) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 7).ok());
  m.CrashNode(1);
  ASSERT_TRUE(m.IsLineLost(m.LineOf(a)));
  uint32_t v = 3;
  m.InstallToMemory(a, &v, sizeof(v));
  EXPECT_FALSE(m.IsLineLost(m.LineOf(a)));
  auto r = m.ReadValue<uint32_t>(0, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3u);
}

TEST(MachineTest, LineLockMutualExclusionAndTiming) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.GetLine(0, line).ok());
  EXPECT_TRUE(m.LineLockHeldBy(line, 0));
  SimTime t0 = m.NodeClock(1);
  m.ReleaseLine(0, line);
  ASSERT_TRUE(m.GetLine(1, line).ok());
  EXPECT_TRUE(m.LineLockHeldBy(line, 1));
  m.ReleaseLine(1, line);
  EXPECT_GT(m.NodeClock(1), t0);
}

TEST(MachineTest, LineLockContentionSerializes) {
  Machine m(SmallConfig(8));
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  // All nodes contend for the same line at time ~0.
  for (NodeId n = 0; n < 8; ++n) {
    ASSERT_TRUE(m.GetLine(n, line).ok());
    m.Tick(n, 500);  // hold
    m.ReleaseLine(n, line);
  }
  // Later acquirers waited for earlier holders: node 7's clock >> node 0's.
  EXPECT_GT(m.NodeClock(7), m.NodeClock(0));
  EXPECT_GT(m.stats().line_lock_wait_ns, 0u);
}

TEST(MachineTest, CrashReleasesLineLocks) {
  Machine m(SmallConfig());
  // Pick a line homed on node 0 with a valid (clean) home-memory copy, so
  // it survives node 1's crash even while node 1 holds it exclusively via
  // the line lock (getline of a clean line leaves memory valid).
  Addr a = m.AllocShared(1024);
  while (m.HomeOf(m.LineOf(a)) != 0) a += m.line_size();
  uint32_t v = 1;
  m.InstallToMemory(a, &v, sizeof(v));
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.GetLine(1, line).ok());
  EXPECT_TRUE(m.LineLockHeldBy(line, 1));
  m.CrashNode(1);
  EXPECT_FALSE(m.LineLockHeldBy(line, 1));
  EXPECT_FALSE(m.IsLineLost(line));
  EXPECT_TRUE(m.GetLine(2, line).ok());
  m.ReleaseLine(2, line);
}

TEST(MachineTest, WriteBroadcastKeepsAllCopiesValid) {
  MachineConfig c = SmallConfig();
  c.coherence = CoherenceKind::kWriteBroadcast;
  Machine m(c);
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  ASSERT_TRUE(m.ReadValue<uint32_t>(1, a).ok());  // replicate
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 2).ok());
  const DirEntry* e = m.FindLine(m.LineOf(a));
  // Under write-broadcast the write updates node 0's copy in place.
  EXPECT_EQ(e->num_sharers(), 2);
  auto r = m.ReadValue<uint32_t>(0, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2u);
  EXPECT_GE(m.stats().broadcast_updates, 1u);
  // Crash of the writer does not lose the line.
  m.CrashNode(1);
  EXPECT_FALSE(m.IsLineLost(m.LineOf(a)));
}

TEST(MachineTest, CoherenceHooksFire) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  std::vector<CoherenceEvent> events;
  m.AddCoherenceHook([&](const CoherenceEvent& ev) { events.push_back(ev); });
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  ASSERT_TRUE(m.ReadValue<uint32_t>(1, a).ok());  // downgrade 0
  ASSERT_TRUE(m.WriteValue<uint32_t>(2, a, 2).ok());  // invalidate 0 and 1
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0].kind, CoherenceEvent::Kind::kDowngrade);
  EXPECT_EQ(events[0].from, 0);
  EXPECT_EQ(events[0].to, 1);
  bool saw_invalidate = false;
  for (const auto& ev : events) {
    if (ev.kind == CoherenceEvent::Kind::kInvalidate) saw_invalidate = true;
  }
  EXPECT_TRUE(saw_invalidate);
}

TEST(MachineTest, ActiveBitTravelsWithEvents) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  m.SetLineActive(m.LineOf(a), true);
  bool saw_active = false;
  m.AddCoherenceHook([&](const CoherenceEvent& ev) {
    if (ev.active_bit) saw_active = true;
  });
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 2).ok());
  EXPECT_TRUE(saw_active);
}

TEST(MachineTest, RebootAllLosesEverything) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(512);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  m.RebootAll();
  EXPECT_TRUE(m.IsLineLost(m.LineOf(a)));
  for (NodeId n = 0; n < 4; ++n) EXPECT_TRUE(m.NodeAlive(n));
}

TEST(MachineTest, SnoopReadSeesCoherentPicture) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(2, a, 77).ok());
  uint32_t v = 0;
  ASSERT_TRUE(m.SnoopRead(a, &v, sizeof(v)).ok());
  EXPECT_EQ(v, 77u);
  // Snooping must not change any state.
  const DirEntry* e = m.FindLine(m.LineOf(a));
  EXPECT_EQ(e->owner, 2);
}

TEST(MachineTest, MultiLineReadWrite) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(1024);
  std::vector<uint8_t> data(500);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7);
  ASSERT_TRUE(m.Write(0, a + 50, data.data(), data.size()).ok());
  std::vector<uint8_t> out(500);
  ASSERT_TRUE(m.Read(3, a + 50, out.data(), out.size()).ok());
  EXPECT_EQ(data, out);
}

TEST(MachineTest, AllocLocalHomesOnNode) {
  Machine m(SmallConfig());
  Addr a = m.AllocLocal(2, 4096);
  for (uint32_t i = 0; i < 4096 / m.line_size(); ++i) {
    EXPECT_EQ(m.HomeOf(m.LineOf(a) + i), 2);
  }
}

TEST(MachineTest, HitPathAccountsLikeTheSlowPath) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(256);
  ASSERT_TRUE(m.WriteValue<uint64_t>(1, a + 8, 0x1122334455667788ULL).ok());
  const MachineStats before = m.stats();
  const SimTime clock = m.NodeClock(1);
  // A single-line local hit: one read, one hit, one cache_hit_ns.
  auto r = m.ReadValue<uint64_t>(1, a + 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0x1122334455667788ULL);
  EXPECT_EQ(m.stats().reads, before.reads + 1);
  EXPECT_EQ(m.stats().local_hits, before.local_hits + 1);
  EXPECT_EQ(m.NodeClock(1), clock + m.config().timing.cache_hit_ns);
  // A read spanning two lines (one hit, one miss) counts one read.
  uint8_t buf[16];
  ASSERT_TRUE(m.Read(1, a + 120, buf, sizeof(buf)).ok());
  EXPECT_EQ(m.stats().reads, before.reads + 2);
  EXPECT_EQ(m.stats().local_hits, before.local_hits + 2);
  // A zero-length read counts a read but touches no line.
  ASSERT_TRUE(m.Read(1, a + 200, buf, 0).ok());
  EXPECT_EQ(m.stats().reads, before.reads + 3);
  EXPECT_EQ(m.stats().local_hits, before.local_hits + 2);
}

TEST(MachineTest, NeverTouchedLinesHaveNoEntry) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(512);
  LineAddr touched = m.LineOf(a);
  LineAddr untouched = touched + 2;
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 1).ok());
  EXPECT_NE(m.FindLine(touched), nullptr);
  EXPECT_EQ(m.FindLine(untouched), nullptr);
  EXPECT_EQ(m.FindLine(untouched + 1000000), nullptr);  // past any index
  EXPECT_EQ(m.cache(1).Find(untouched), nullptr);
  EXPECT_FALSE(m.ProbeLine(untouched));
  // A crash marks only created lines lost; untouched lines stay absent.
  m.CrashNode(1);
  EXPECT_EQ(m.stats().lines_lost, 1u);
  EXPECT_TRUE(m.IsLineLost(touched));
  EXPECT_FALSE(m.IsLineLost(untouched));
  EXPECT_EQ(m.FindLine(untouched), nullptr);
  m.DiscardLine(untouched);  // no-op on a never-touched line
  EXPECT_EQ(m.FindLine(untouched), nullptr);
}

TEST(MachineTest, EntriesStayPutAcrossLaterLines) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 42).ok());
  const DirEntry* e = m.FindLine(m.LineOf(a));
  const Cache::Entry* ce = m.cache(0).Find(m.LineOf(a));
  ASSERT_NE(e, nullptr);
  ASSERT_NE(ce, nullptr);
  const uint8_t* data = ce->data;
  // Create thousands of other lines, on every node.
  Addr more = m.AllocShared(5000 * 128);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(m.WriteValue<uint32_t>(NodeId(i % 4), more + i * 128, i).ok());
  }
  EXPECT_EQ(m.FindLine(m.LineOf(a)), e);
  EXPECT_EQ(m.cache(0).Find(m.LineOf(a)), ce);
  EXPECT_EQ(ce->data, data);
  EXPECT_EQ(e->owner, 0);
  uint32_t v = 0;
  std::memcpy(&v, data, sizeof(v));
  EXPECT_EQ(v, 42u);
}

TEST(LineStorageTest, CacheFindIsNullUntilInserted) {
  Cache c(64);
  EXPECT_EQ(c.Find(0), nullptr);
  EXPECT_EQ(c.Find(7), nullptr);
  EXPECT_EQ(c.Find(kInvalidLine), nullptr);
  std::vector<uint8_t> bytes(64, 0xAB);
  c.Insert(7, LineState::kShared, bytes.data());
  EXPECT_EQ(c.Find(6), nullptr);
  ASSERT_NE(c.Find(7), nullptr);
  EXPECT_EQ(c.Find(7)->state, LineState::kShared);
  EXPECT_EQ(c.Find(7)->data[63], 0xAB);
  c.Erase(7);
  EXPECT_EQ(c.Find(7), nullptr);
  EXPECT_EQ(c.size(), 0u);
}

TEST(LineStorageTest, CacheReferencesStayValidAcrossInserts) {
  Cache c(128);
  std::vector<uint8_t> bytes(128, 1);
  Cache::Entry* first = &c.Insert(3, LineState::kExclusive, bytes.data());
  uint8_t* first_data = first->data;
  for (LineAddr l = 4; l < 3000; ++l) {
    bytes[0] = uint8_t(l);
    c.Insert(l, LineState::kShared, bytes.data());
  }
  EXPECT_EQ(c.Find(3), first);
  EXPECT_EQ(first->data, first_data);
  EXPECT_EQ(first->state, LineState::kExclusive);
  EXPECT_EQ(first_data[0], 1);
  // Re-inserting a resident line from its own bytes keeps them.
  c.Insert(3, LineState::kShared, first->data);
  EXPECT_EQ(c.Find(3), first);
  EXPECT_EQ(first_data[0], 1);
}

TEST(LineStorageTest, ForEachVisitsExactlyResidentAndCreatedLines) {
  Cache c(128);
  std::vector<uint8_t> bytes(128, 0);
  for (LineAddr l : {5, 9, 200, 11, 64}) {
    c.Insert(l, LineState::kShared, bytes.data());
  }
  c.Erase(9);
  c.Erase(10);  // absent: no-op
  std::vector<LineAddr> seen;
  c.ForEachLine([&](LineAddr l, const Cache::Entry& e) {
    EXPECT_EQ(e.state, LineState::kShared);
    seen.push_back(l);
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<LineAddr>{5, 11, 64, 200}));
  EXPECT_EQ(c.size(), 4u);

  Directory d(128);
  for (LineAddr l : {3, 1, 300}) d.Create(l, NodeId(l % 4));
  std::vector<LineAddr> created;
  d.ForEach([&](LineAddr l, DirEntry& e) {
    EXPECT_EQ(e.home, NodeId(l % 4));
    EXPECT_TRUE(e.mem_valid);
    EXPECT_EQ(e.mem_data[0], 0);
    created.push_back(l);
  });
  std::sort(created.begin(), created.end());
  EXPECT_EQ(created, (std::vector<LineAddr>{1, 3, 300}));
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.Find(2), nullptr);
}

TEST(LineStorageTest, ClearThenReinsertReusesStorage) {
  Cache c(128);
  std::vector<uint8_t> bytes(128, 0);
  std::vector<const uint8_t*> before;
  for (LineAddr l = 0; l < 100; ++l) {
    before.push_back(c.Insert(l, LineState::kShared, bytes.data()).data);
  }
  c.Clear();
  EXPECT_EQ(c.size(), 0u);
  for (LineAddr l = 0; l < 100; ++l) EXPECT_EQ(c.Find(l), nullptr);
  c.ForEachLine([](LineAddr, const Cache::Entry&) { ADD_FAILURE(); });
  // Re-insert different lines with fresh contents: every one lands in
  // storage the cache already owned, and reads back its own bytes.
  for (LineAddr l = 500; l < 600; ++l) {
    bytes[0] = uint8_t(l);
    const uint8_t* data = c.Insert(l, LineState::kExclusive, bytes.data()).data;
    EXPECT_NE(std::find(before.begin(), before.end(), data), before.end());
  }
  EXPECT_EQ(c.size(), 100u);
  for (LineAddr l = 500; l < 600; ++l) {
    ASSERT_NE(c.Find(l), nullptr);
    EXPECT_EQ(c.Find(l)->data[0], uint8_t(l));
    EXPECT_EQ(c.Find(l)->state, LineState::kExclusive);
  }
  EXPECT_EQ(c.Find(0), nullptr);
  // Erased slots are reused too.
  const uint8_t* freed = c.Find(550)->data;
  c.Erase(550);
  EXPECT_EQ(c.Insert(9999, LineState::kShared, bytes.data()).data, freed);
}

}  // namespace
}  // namespace smdb
