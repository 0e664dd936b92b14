// Differential test matrix for partitioned recovery: recovery over N
// simulated performer streams must be *machine-state equivalent* to serial
// recovery.
//
// For every sampled fuzz scenario and every protocol preset, a serial run
// (recovery_threads = 1) captures a StateDigest — stable DB bytes, coherent
// heap/index pages, lock table, transaction verdicts — right after each
// recovery. Then, per fired recovery k and per stream count W ∈ {2, 4, 8},
// the schedule re-runs with exactly recovery k at W streams (all
// earlier recoveries serial) and the k-th digest must match the serial
// run's bit for bit, along with the recovery outcome's logical counters.
// Digests past the parallelised recovery are not compared: CLR log
// placement is performer-dependent (performance state, like timing) and
// may legitimately steer later log forces differently.
//
// W = 1 re-runs double as a determinism check: the whole digest sequence,
// including the end-of-run digest, must be bit-identical.
//
// The matrix is sharded into four seed ranges; together they cover 200
// fuzz-style seeds x 7 protocols. Within a shard the independent runs fan
// out over a ThreadPool (run_matrix.h), one Harness per task, and are
// compared on the main thread in matrix order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "run_matrix.h"

namespace smdb {
namespace {

/// Logical outcome fields that must be stream-count-invariant (everything
/// in RecoveryOutcome except recovery_time_ns, which is performance).
void ExpectSameOutcome(const RecoveryOutcome& serial,
                       const RecoveryOutcome& parallel,
                       const std::string& where) {
  EXPECT_EQ(serial.annulled, parallel.annulled) << where;
  EXPECT_EQ(serial.preserved, parallel.preserved) << where;
  EXPECT_EQ(serial.forced_aborts, parallel.forced_aborts) << where;
  EXPECT_EQ(serial.redo_applied, parallel.redo_applied) << where;
  EXPECT_EQ(serial.redo_skipped, parallel.redo_skipped) << where;
  EXPECT_EQ(serial.undo_applied, parallel.undo_applied) << where;
  EXPECT_EQ(serial.tag_undos, parallel.tag_undos) << where;
  EXPECT_EQ(serial.pages_reloaded, parallel.pages_reloaded) << where;
  EXPECT_EQ(serial.lines_reinstalled, parallel.lines_reinstalled) << where;
  EXPECT_EQ(serial.lcbs_rebuilt, parallel.lcbs_rebuilt) << where;
  EXPECT_EQ(serial.locks_dropped, parallel.locks_dropped) << where;
  EXPECT_EQ(serial.whole_machine_restart, parallel.whole_machine_restart)
      << where;
}

void RunSeedRange(uint64_t begin, uint64_t end) {
  const std::vector<RecoveryConfig> protocols =
      CrashScheduleFuzzer::DefaultProtocols();
  // First wave: the serial run of every (seed, protocol) cell.
  std::vector<std::string> names;
  std::vector<HarnessConfig> bases;
  for (uint64_t seed = begin; seed < end; ++seed) {
    FuzzCase fc = SampleFuzzCase(seed);
    for (const RecoveryConfig& rc : protocols) {
      names.push_back("seed " + std::to_string(seed) + " protocol " +
                      rc.Name());
      bases.push_back(MakeHarnessConfig(fc, rc));
      bases.back().capture_digests = true;
    }
  }
  const std::vector<Result<HarnessReport>> serial = RunAll(bases);

  // Second wave, per cell: a W = 1 re-run, then for each W and fired
  // recovery k a run with exactly recovery k at W streams.
  struct Job {
    size_t cell;
    uint32_t w;
    size_t k;
  };
  std::vector<Job> jobs;
  std::vector<HarnessConfig> cfgs;
  for (size_t c = 0; c < bases.size(); ++c) {
    ASSERT_TRUE(serial[c].ok())
        << names[c] << ": " << serial[c].status().ToString();
    ASSERT_TRUE(serial[c]->verify_status.ok())
        << names[c] << ": " << serial[c]->verify_status.ToString();
    jobs.push_back({c, 1, 0});
    cfgs.push_back(bases[c]);
    for (uint32_t w : {2u, 4u, 8u}) {
      for (size_t k = 0; k < serial[c]->recoveries.size(); ++k) {
        HarnessConfig cfg = bases[c];
        cfg.recovery_thread_overrides.assign(k + 1, 1u);
        cfg.recovery_thread_overrides[k] = w;
        jobs.push_back({c, w, k});
        cfgs.push_back(std::move(cfg));
      }
    }
  }
  const std::vector<Result<HarnessReport>> runs = RunAll(cfgs);

  size_t parallel_runs = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const HarnessReport& base = *serial[job.cell];
    const Result<HarnessReport>& report = runs[j];
    if (job.w == 1) {
      // W = 1: full determinism — every digest, including the final one.
      ASSERT_TRUE(report.ok()) << names[job.cell];
      ASSERT_EQ(report->digests.size(), base.digests.size())
          << names[job.cell];
      for (size_t i = 0; i < base.digests.size(); ++i) {
        ASSERT_EQ(report->digests[i], base.digests[i])
            << names[job.cell] << " digest " << i << " not deterministic";
      }
      continue;
    }
    const size_t k = job.k;
    std::string where = names[job.cell] + " W=" + std::to_string(job.w) +
                        " recovery #" + std::to_string(k);
    ASSERT_TRUE(report.ok()) << where << ": " << report.status().ToString();
    EXPECT_TRUE(report->verify_status.ok())
        << where << ": " << report->verify_status.ToString();
    ASSERT_GT(report->recoveries.size(), k) << where;
    ASSERT_GT(report->digests.size(), k) << where;
    ASSERT_EQ(report->digests[k], base.digests[k])
        << where << "\n  serial:   " << base.digests[k].ToString()
        << "\n  parallel: " << report->digests[k].ToString();
    ExpectSameOutcome(base.recoveries[k], report->recoveries[k], where);
    ++parallel_runs;
  }
  // The shard must actually exercise partitioned recoveries — a sampler
  // regression that stops firing crashes would otherwise pass vacuously.
  EXPECT_GT(parallel_runs, 0u);
}

TEST(RecoveryEquivalence, SeedsShard0) { RunSeedRange(0, 50); }
TEST(RecoveryEquivalence, SeedsShard1) { RunSeedRange(50, 100); }
TEST(RecoveryEquivalence, SeedsShard2) { RunSeedRange(100, 150); }
TEST(RecoveryEquivalence, SeedsShard3) { RunSeedRange(150, 200); }

// The fuzzer-integrated differential (Options::recovery_threads) must see
// the same clean matrix — this is the path `smdb_fuzz --recovery-threads`
// and its shrinker use.
TEST(RecoveryEquivalence, FuzzerDifferentialPathIsClean) {
  CrashScheduleFuzzer::Options opts;
  opts.recovery_threads = 4;
  CrashScheduleFuzzer fuzzer(opts);
  for (uint64_t seed = 200; seed < 212; ++seed) {
    auto failure = fuzzer.RunSeed(seed);
    ASSERT_FALSE(failure.has_value())
        << "seed " << seed << " under " << failure->protocol.Name() << ": ["
        << failure->verdict.kind << "] " << failure->verdict.detail;
  }
}

// Sweeping more worker streams than the machine has survivors (or nodes)
// must degrade gracefully to sharing performers, never crash or diverge.
TEST(RecoveryEquivalence, MoreThreadsThanSurvivors) {
  FuzzCase fc = SampleFuzzCase(3);
  RecoveryConfig rc = RecoveryConfig::VolatileRedoAll();
  HarnessConfig base = MakeHarnessConfig(fc, rc);
  base.capture_digests = true;
  Harness hs(base);
  auto serial = hs.Run();
  ASSERT_TRUE(serial.ok());
  for (size_t k = 0; k < serial->recoveries.size(); ++k) {
    HarnessConfig cfg = base;
    cfg.recovery_thread_overrides.assign(k + 1, 1u);
    cfg.recovery_thread_overrides[k] = 32;  // >> num_nodes
    Harness hp(cfg);
    auto report = hp.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_GT(report->digests.size(), k);
    EXPECT_EQ(report->digests[k], serial->digests[k]);
  }
}

}  // namespace
}  // namespace smdb
