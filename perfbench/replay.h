#ifndef SMDB_PERFBENCH_REPLAY_H_
#define SMDB_PERFBENCH_REPLAY_H_

#include <memory>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "spans.h"
#include "txn/executor.h"
#include "workload/harness.h"

namespace perfbench {

/// Re-drives Harness::Run's classic single-threaded loop from public calls
/// only, recording one span around each call: Database construction,
/// CreateTable and the initial Checkpoint, WorkloadGenerator::Generate,
/// SystemExecutor::StepOnce, OnCrash + Database::Crash + RestartNodes, the
/// steal daemon's BufferManager::FlushPage (with the harness's own Rng
/// draws), periodic checkpoints, IfaChecker::VerifyAll and
/// ComputeStateDigest. For a configuration the classic loop serves, the
/// replay must reach the same committed count, sim time and final
/// StateDigest as Harness::Run; the benchmark checks that on every run.
class TracedReplay {
 public:
  TracedReplay(smdb::HarnessConfig config, SpanRecorder& spans);

  /// Runs to completion. The report carries the same fields Harness::Run
  /// fills, plus the final StateDigest as its only `digests` entry.
  smdb::Result<smdb::HarnessReport> Run();

  /// The run's final database (valid after Run), for the layer probes.
  smdb::Database& db() { return *db_; }

 private:
  smdb::Status Setup();
  smdb::Status StealFlushOne();
  void FillReport(smdb::HarnessReport* report);

  smdb::HarnessConfig config_;
  SpanRecorder& spans_;
  std::unique_ptr<smdb::Database> db_;
  std::unique_ptr<smdb::IfaChecker> checker_;
  std::unique_ptr<smdb::SystemExecutor> exec_;
  std::vector<smdb::RecordId> table_;
  smdb::Rng rng_;
};

}  // namespace perfbench

#endif  // SMDB_PERFBENCH_REPLAY_H_
