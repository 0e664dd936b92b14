// On-demand (instant) recovery: the Recovering serving state must change
// *when* recovery work happens, never *what* state it produces.
//
// The core oracle is differential: an on-demand run whose obligations are
// drained immediately after the crash-time prefix (before any new traffic)
// must be bit-identical — every captured StateDigest — to the plain eager
// run of the same schedule, across fuzz seeds, protocol presets, and
// recovery stream widths. On top of that, lazy runs that actually serve
// traffic through the Recovering window (first-touch discharge racing the
// background sweeper, crashes landing mid-recovery) must keep the IFA
// oracle clean, and the availability decoupling must be visible: commits
// land while obligations are still pending.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/on_demand.h"
#include "core/state_digest.h"
#include "fuzz/fuzzer.h"
#include "run_matrix.h"
#include "workload/harness.h"

namespace smdb {
namespace {

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(22, fill);
}

/// The protocol presets the on-demand prefix applies to (the baselines
/// RebootAll / AbortDependents keep their own eager schemes).
std::vector<RecoveryConfig> OnDemandProtocols() {
  return {
      RecoveryConfig::VolatileSelectiveRedo(),
      RecoveryConfig::VolatileRedoAll(),
      RecoveryConfig::StableEagerRedoAll(),
      RecoveryConfig::StableTriggeredRedoAll(),
      RecoveryConfig::StableTriggeredSelectiveRedo(),
  };
}

/// Eager vs drain-immediately at one stream width: with the Recovering
/// window collapsed the two runs must be step-for-step identical, so every
/// digest (per recovery and final) matches bit for bit.
void ExpectLazyDrainMatchesEager(const std::string& where,
                                 const Result<HarnessReport>& eager_report,
                                 const Result<HarnessReport>& lazy_report) {
  ASSERT_TRUE(eager_report.ok())
      << where << ": " << eager_report.status().ToString();
  ASSERT_TRUE(eager_report->verify_status.ok())
      << where << ": " << eager_report->verify_status.ToString();
  ASSERT_TRUE(lazy_report.ok())
      << where << ": " << lazy_report.status().ToString();
  ASSERT_TRUE(lazy_report->verify_status.ok())
      << where << ": " << lazy_report->verify_status.ToString();

  ASSERT_EQ(lazy_report->recoveries.size(), eager_report->recoveries.size())
      << where;
  ASSERT_EQ(lazy_report->digests.size(), eager_report->digests.size())
      << where;
  for (size_t i = 0; i < eager_report->digests.size(); ++i) {
    ASSERT_EQ(lazy_report->digests[i], eager_report->digests[i])
        << where << " digest " << i
        << "\n  eager: " << eager_report->digests[i].ToString()
        << "\n  lazy:  " << lazy_report->digests[i].ToString();
  }
  // Transaction verdicts are part of the digest, but assert the headline
  // outcome fields directly for readable failures.
  for (size_t i = 0; i < eager_report->recoveries.size(); ++i) {
    EXPECT_EQ(lazy_report->recoveries[i].annulled,
              eager_report->recoveries[i].annulled)
        << where;
    EXPECT_EQ(lazy_report->recoveries[i].preserved,
              eager_report->recoveries[i].preserved)
        << where;
    EXPECT_EQ(lazy_report->recoveries[i].forced_aborts,
              eager_report->recoveries[i].forced_aborts)
        << where;
    EXPECT_EQ(lazy_report->recoveries[i].whole_machine_restart,
              eager_report->recoveries[i].whole_machine_restart)
        << where;
  }
  EXPECT_EQ(lazy_report->exec.committed, eager_report->exec.committed)
      << where;
}

/// Every (seed, protocol) cell runs eager and drain-immediately; the runs
/// fan out over a ThreadPool and are compared in matrix order.
void RunDigestMatrix(uint64_t begin, uint64_t end, uint32_t threads) {
  std::vector<std::string> names;
  std::vector<HarnessConfig> cfgs;  // eager, lazy, eager, lazy, ...
  for (uint64_t seed = begin; seed < end; ++seed) {
    FuzzCase fc = SampleFuzzCase(seed);
    for (const RecoveryConfig& rc : OnDemandProtocols()) {
      names.push_back("seed " + std::to_string(seed) + " protocol " +
                      rc.Name() + " W=" + std::to_string(threads));
      HarnessConfig eager = MakeHarnessConfig(fc, rc);
      eager.db.recovery.recovery_threads = threads;
      eager.capture_digests = true;
      HarnessConfig lazy = eager;
      lazy.db.recovery.on_demand = true;
      lazy.drain_recovery_immediately = true;
      cfgs.push_back(std::move(eager));
      cfgs.push_back(std::move(lazy));
    }
  }
  const std::vector<Result<HarnessReport>> runs = RunAll(cfgs);
  for (size_t c = 0; c < names.size(); ++c) {
    ExpectLazyDrainMatchesEager(names[c], runs[2 * c], runs[2 * c + 1]);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(OnDemandDigest, DrainMatchesEagerSerialShard0) {
  RunDigestMatrix(0, 12, 1);
}
TEST(OnDemandDigest, DrainMatchesEagerSerialShard1) {
  RunDigestMatrix(12, 24, 1);
}
TEST(OnDemandDigest, DrainMatchesEagerW4) { RunDigestMatrix(0, 8, 4); }
TEST(OnDemandDigest, DrainMatchesEagerW8) { RunDigestMatrix(8, 16, 8); }

// The sweeper with a per-step budget at recovery_threads > 1: performers
// are drawn in sweep order from the same round-robin sequence at every
// width, and the sweep runs serially, so the USN stream — and therefore
// every captured digest — must match the W = 1 sweep bit for bit.
// Single-crash schedules only: CLR placement inside the eager prefix is
// performer-dependent at W > 1 and feeds later recoveries' log scans, so
// only the first partitioned recovery is digest-comparable (the repo-wide
// caveat, cf. recovery_equivalence_test).
TEST(OnDemandDigest, ParallelSweepMatchesSerialSweep) {
  const std::vector<uint32_t> widths = {1, 4, 8};
  std::vector<std::string> names;
  std::vector<HarnessConfig> cfgs;  // widths.size() runs per cell
  for (uint64_t seed : {2u, 9u, 17u, 29u}) {
    FuzzCase fc = SampleFuzzCase(seed);
    for (const RecoveryConfig& rc : OnDemandProtocols()) {
      HarnessConfig base = MakeHarnessConfig(fc, rc);
      if (base.crashes.empty()) continue;
      base.crashes.resize(1);
      base.db.recovery.on_demand = true;
      // Small pages spread the fuzz table across many heap pages, so the
      // streams' page partitions differ from the serial assignment.
      base.db.page_size = 512;
      base.pump_recovery_per_step = 4;
      base.capture_digests = true;
      names.push_back("seed " + std::to_string(seed) + " " + rc.Name());
      for (uint32_t threads : widths) {
        cfgs.push_back(base);
        cfgs.back().db.recovery.recovery_threads = threads;
      }
    }
  }
  const std::vector<Result<HarnessReport>> runs = RunAll(cfgs);
  for (size_t c = 0; c < names.size(); ++c) {
    const Result<HarnessReport>& serial = runs[c * widths.size()];
    ASSERT_TRUE(serial.ok()) << names[c] << ": " << serial.status().ToString();
    ASSERT_TRUE(serial->verify_status.ok())
        << names[c] << ": " << serial->verify_status.ToString();
    for (size_t w = 1; w < widths.size(); ++w) {
      std::string where = names[c] + " W=" + std::to_string(widths[w]);
      const Result<HarnessReport>& report = runs[c * widths.size() + w];
      ASSERT_TRUE(report.ok())
          << where << ": " << report.status().ToString();
      ASSERT_TRUE(report->verify_status.ok())
          << where << ": " << report->verify_status.ToString();
      ASSERT_EQ(report->digests.size(), serial->digests.size()) << where;
      for (size_t i = 0; i < serial->digests.size(); ++i) {
        ASSERT_EQ(report->digests[i], serial->digests[i])
            << where << " digest " << i
            << "\n  serial:   " << serial->digests[i].ToString()
            << "\n  parallel: " << report->digests[i].ToString();
      }
      EXPECT_EQ(report->exec.committed, serial->exec.committed) << where;
    }
  }
}

// Serving traffic through the Recovering window: first-touch discharges
// race the background sweeper at several budgets, and the IFA oracle must
// stay clean (the harness defers verification until the final drain).
TEST(OnDemandServing, FirstTouchRacesSweeperCleanly) {
  for (uint64_t seed : {3u, 11u, 27u, 40u}) {
    for (int pump : {0, 1, 5}) {
      FuzzCase fc = SampleFuzzCase(seed);
      for (const RecoveryConfig& rc : OnDemandProtocols()) {
        HarnessConfig cfg = MakeHarnessConfig(fc, rc);
        cfg.db.recovery.on_demand = true;
        cfg.pump_recovery_per_step = pump;
        std::string where = "seed " + std::to_string(seed) + " pump " +
                            std::to_string(pump) + " " + rc.Name();
        Harness h(cfg);
        auto report = h.Run();
        ASSERT_TRUE(report.ok()) << where << ": "
                                 << report.status().ToString();
        EXPECT_TRUE(report->verify_status.ok())
            << where << ": " << report->verify_status.ToString();
      }
    }
  }
}

// A second crash landing while the first crash's obligations are still
// pending: RecoveryManager supersedes the open window and re-derives the
// obligations from stable state, so back-to-back crash plans with no
// draining traffic between them must still verify.
TEST(OnDemandServing, CrashDuringRecoveringWindowVerifies) {
  for (uint64_t seed : {5u, 19u, 33u}) {
    FuzzCase fc = SampleFuzzCase(seed);
    for (const RecoveryConfig& rc : OnDemandProtocols()) {
      HarnessConfig cfg = MakeHarnessConfig(fc, rc);
      cfg.db.recovery.on_demand = true;
      cfg.pump_recovery_per_step = 0;  // nothing sweeps between crashes
      // Stack a second crash plan right after each existing one so the
      // second recovery starts while the first window is still open.
      std::vector<CrashPlan> doubled;
      for (const CrashPlan& p : cfg.crashes) {
        doubled.push_back(p);
        CrashPlan follow = p;
        follow.at_step = p.at_step + 2;
        doubled.push_back(follow);
      }
      cfg.crashes = std::move(doubled);
      std::string where = "seed " + std::to_string(seed) + " " + rc.Name();
      Harness h(cfg);
      auto report = h.Run();
      ASSERT_TRUE(report.ok()) << where << ": " << report.status().ToString();
      EXPECT_TRUE(report->verify_status.ok())
          << where << ": " << report->verify_status.ToString();
    }
  }
}

// A crash that supersedes a Recovering window after one of that window's
// dead nodes has restarted. Node 2 crashes at step 102 with an uncommitted
// update that migrated into a survivor's cache (tagged n2) and restarts;
// node 3 crashes at step 105 before anything discharges that tag. Node 2
// is alive at the second crash, so the second recovery's dead set no
// longer names it — the superseded window must hand its owed tags over, or
// the annulled update survives as committed state (the fuzzer found this
// as seed 223 of `smdb_fuzz --on-demand-recovery`; shrunk here).
/// Runs a fuzz case (JSON, as in a replay document's "case") under
/// volatile-selective with on-demand recovery and the fuzzer's sweep budget.
Result<HarnessReport> RunOnDemandCase(const std::string& case_json) {
  auto doc = json::Value::Parse(case_json);
  if (!doc.ok()) return doc.status();
  auto fc = FuzzCase::FromJson(*doc);
  if (!fc.ok()) return fc.status();
  RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
  rc.on_demand = true;
  HarnessConfig cfg = MakeHarnessConfig(*fc, rc);
  cfg.pump_recovery_per_step = 2;  // the fuzzer's on-demand sweep budget
  Harness h(cfg);
  return h.Run();
}

TEST(OnDemandServing, SupersedingCrashKeepsRestartedNodesTagUndo) {
  auto report = RunOnDemandCase(R"({
    "num_nodes": 7, "num_records": 64, "record_data_size": 16,
    "workload": {"txns_per_node": 7, "ops_per_txn": 3,
                 "write_ratio": 0.87704901621706721, "index_op_ratio": 0,
                 "dirty_read_ratio": 0, "zipf_theta": 0,
                 "shared_fraction": 1, "voluntary_abort_ratio": 0,
                 "index_key_space": 256, "seed": 4855629465752585930},
    "crashes": [{"at_step": 102, "nodes": [2], "restart_after": true},
                {"at_step": 88, "nodes": [5], "restart_after": false},
                {"at_step": 105, "nodes": [3], "restart_after": false}],
    "steal_flush_prob": 0, "checkpoint_every_steps": 0,
    "harness_seed": 8230382531274601360})");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->recoveries.size(), 3u);
  EXPECT_TRUE(report->verify_status.ok()) << report->verify_status.ToString();
}

// The deferred tag scan must cover every live cache. Node 5 crashes at step
// 202 holding an uncommitted index insert of key 32 whose leaf line
// migrated to a survivor (tagged n5, never logged stably), and restarts.
// Its new transactions pull that leaf line into node 5's own cache before
// the sweeper reaches the residual tag scan, so a scan over the crash-time
// survivors alone misses the tag and key 32 stays live (the fuzzer found
// this as seed 1710 of `smdb_fuzz --on-demand-recovery`; shrunk here).
TEST(OnDemandServing, DeferredTagScanCoversRestartedNodesCache) {
  auto report = RunOnDemandCase(R"({
    "num_nodes": 6, "num_records": 128, "record_data_size": 16,
    "workload": {"txns_per_node": 6, "ops_per_txn": 6,
                 "write_ratio": 0.8521001647650155,
                 "index_op_ratio": 0.2654122013665983,
                 "dirty_read_ratio": 0, "zipf_theta": 0.9,
                 "shared_fraction": 1, "voluntary_abort_ratio": 0,
                 "index_key_space": 256, "seed": 1675615872171126815},
    "crashes": [{"at_step": 41, "nodes": [1], "restart_after": false},
                {"at_step": 14, "nodes": [0], "restart_after": false},
                {"at_step": 194, "nodes": [3], "restart_after": false},
                {"at_step": 202, "nodes": [5], "restart_after": true}],
    "steal_flush_prob": 0, "checkpoint_every_steps": 0,
    "harness_seed": 5489097691503353357})");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->recoveries.size(), 4u);
  EXPECT_TRUE(report->verify_status.ok()) << report->verify_status.ToString();
}

struct Fx {
  explicit Fx(RecoveryConfig rc, uint16_t nodes = 4) : db(MakeCfg(rc, nodes)) {
    auto t = db.CreateTable(32);
    EXPECT_TRUE(t.ok());
    table = *t;
    EXPECT_TRUE(db.Checkpoint(0).ok());
  }
  static DatabaseConfig MakeCfg(RecoveryConfig rc, uint16_t nodes) {
    DatabaseConfig c;
    c.machine.num_nodes = nodes;
    rc.on_demand = true;
    c.recovery = rc;
    return c;
  }
  Database db;
  std::vector<RecordId> table;
};

// The decoupling itself: after the crash-time prefix returns, obligations
// are pending, new transactions commit, and the first touch of an
// unrecovered record serves its recovered (committed) value.
TEST(OnDemandServing, CommitsLandWhileObligationsPending) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  // Survivor work on node 0 whose line migrates: committed, needs redo.
  Transaction* t0 = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[1], Value(0xC1)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t0).ok());
  // Crashed-node work: committed (forced) update on node 1.
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[2], Value(0xC2)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t1).ok());
  // Uncommitted update on node 1 — needs undo after the crash.
  Transaction* t2 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[3], Value(0xBB)).ok());

  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(fx.db.RecoveringActive());
  ASSERT_NE(fx.db.on_demand(), nullptr);
  EXPECT_GT(fx.db.on_demand()->pending_objects(), 0u);

  // A brand-new transaction on an untouched record commits immediately,
  // while the crash's obligations are still pending.
  size_t pending_before = fx.db.on_demand()->pending_objects();
  Transaction* t3 = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t3, fx.table[9], Value(0x33)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t3).ok());
  EXPECT_TRUE(fx.db.RecoveringActive())
      << "an untouched-record commit must not force a full drain";

  // First touch of the unrecovered records discharges them on demand and
  // returns recovered values: the undone record shows its pre-t2 state,
  // the committed one its committed bytes.
  Transaction* t4 = fx.db.txn().Begin(2);
  auto v2 = fx.db.txn().Read(t4, fx.table[2]);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, Value(0xC2));
  auto v3 = fx.db.txn().Read(t4, fx.table[3]);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_NE(*v3, Value(0xBB)) << "uncommitted crash work must be undone";
  ASSERT_TRUE(fx.db.txn().Commit(t4).ok());
  EXPECT_LT(fx.db.on_demand()->pending_objects(), pending_before);
  EXPECT_GT(fx.db.on_demand()->stats().first_touch_discharges, 0u);

  // The sweeper finishes the rest; the drained state verifies.
  while (fx.db.RecoveringActive()) {
    auto swept = fx.db.PumpRecovery(4);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  }
  EXPECT_EQ(fx.db.on_demand()->pending_objects(), 0u);
  EXPECT_GT(fx.db.on_demand()->stats().sweep_discharges, 0u);
}

// Checkpoints truncate the stable logs lazy obligations still reference;
// Database::Checkpoint must drain first rather than corrupt the window.
TEST(OnDemandServing, CheckpointDrainsPendingObligations) {
  Fx fx(RecoveryConfig::VolatileRedoAll());
  Transaction* t0 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[4], Value(0x44)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t0).ok());
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(fx.db.RecoveringActive());
  ASSERT_TRUE(fx.db.Checkpoint(0).ok());
  EXPECT_FALSE(fx.db.RecoveringActive());
  auto slot = fx.db.records().SnoopSlot(fx.table[4]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0x44));
}

// The observatory's availability record splits the crash timeline: the
// eager prefix ends at recovery_end_ts, the last lazy obligation at
// drain_end_ts. With traffic between them, TTFC is decoupled from the
// total recovery span.
TEST(OnDemandServing, DrainTimestampExtendsPastEagerPrefix) {
  RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
  rc.on_demand = true;
  DatabaseConfig c;
  c.machine.num_nodes = 4;
  c.recovery = rc;
  c.obs.enabled = true;
  Database db(c);
  auto t = db.CreateTable(32);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db.Checkpoint(0).ok());
  Transaction* t0 = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t0, (*t)[1], Value(0x77)).ok());
  ASSERT_TRUE(db.txn().Commit(t0).ok());
  ASSERT_TRUE(db.Crash({1}).ok());
  ASSERT_TRUE(db.RecoveringActive());

  // Commit through the Recovering window, then drain.
  Transaction* t1 = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t1, (*t)[20], Value(0x78)).ok());
  ASSERT_TRUE(db.txn().Commit(t1).ok());
  ASSERT_TRUE(db.DrainRecovery().ok());

  LatencyReport rep = db.observatory().Snapshot();
  ASSERT_EQ(rep.availability.crashes.size(), 1u);
  const CrashAvailability& ca = rep.availability.crashes[0];
  EXPECT_GT(ca.recovery_end_ts, ca.crash_ts);
  EXPECT_GT(ca.drain_end_ts, ca.recovery_end_ts)
      << "lazy work must finish after the eager prefix";
  EXPECT_TRUE(ca.saw_commit_after);
  EXPECT_LT(ca.first_commit_ts, ca.drain_end_ts)
      << "TTFC must not wait for the full drain";
}

// The fuzzer's on-demand mode (Options::on_demand, smdb_fuzz
// --on-demand-recovery) composes with every default protocol and with the
// parallel differential, and the flag round-trips through replay files.
// Runs the DEFAULT protocol set — including the baselines. The knob must
// be a strict no-op for RebootAll/AbortDependents: they delegate into the
// schemes (AbortDependents calls RunSelectiveRedo) and their contracts
// assume a fully recovered state on return, so the lazy gate keys on the
// *configured* restart kind. Seed 23 caught exactly that: AbortDependents
// going lazy aborted dependents against a half-recovered state.
TEST(OnDemandFuzz, CampaignSliceRunsClean) {
  CrashScheduleFuzzer::Options opts;
  opts.on_demand = true;
  CrashScheduleFuzzer fuzzer(opts);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    auto failure = fuzzer.RunSeed(seed);
    ASSERT_FALSE(failure.has_value())
        << "seed " << seed << " failed under " << failure->protocol.Name()
        << ": [" << failure->verdict.kind << "] " << failure->verdict.detail;
  }
  EXPECT_GT(fuzzer.stats().committed, 0u);
  EXPECT_GT(fuzzer.stats().crashes_fired, 0u);
}

TEST(OnDemandFuzz, FlagRoundTripsThroughReplays) {
  CrashScheduleFuzzer::Options opts;
  opts.on_demand = true;
  CrashScheduleFuzzer fuzzer(opts);
  FuzzFailure failure;
  failure.seed = 4;
  failure.fuzz_case = SampleFuzzCase(4);
  failure.protocol =
      fuzzer.EffectiveProtocol(RecoveryConfig::VolatileSelectiveRedo());
  failure.verdict = {true, "ifa-verify", "synthetic"};
  ASSERT_TRUE(failure.protocol.on_demand);
  std::string text = fuzzer.ReplayJson(failure, failure.fuzz_case);
  auto doc = CrashScheduleFuzzer::ParseReplay(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->on_demand);
  EXPECT_TRUE(doc->protocol.on_demand);
}

}  // namespace
}  // namespace smdb
