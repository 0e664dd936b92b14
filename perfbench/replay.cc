#include "replay.h"

#include <algorithm>

#include "core/state_digest.h"
#include "workload/workload.h"

namespace perfbench {

using namespace smdb;

TracedReplay::TracedReplay(HarnessConfig config, SpanRecorder& spans)
    : config_(std::move(config)), spans_(spans), rng_(config_.seed) {}

Status TracedReplay::Setup() {
  {
    ScopedSpan s(spans_, "workload.setup_db");
    {
      ScopedSpan c(spans_, "core.Database");
      db_ = std::make_unique<Database>(config_.db);
    }
    checker_ = std::make_unique<IfaChecker>(db_.get());
    db_->txn().AddObserver(checker_.get());
    {
      ScopedSpan c(spans_, "core.CreateTable");
      SMDB_ASSIGN_OR_RETURN(table_, db_->CreateTable(config_.num_records));
    }
    checker_->RegisterTable(table_);
    ScopedSpan c(spans_, "core.Checkpoint");
    SMDB_RETURN_IF_ERROR(db_->Checkpoint(0));
  }
  std::vector<std::vector<TxnScript>> scripts;
  {
    ScopedSpan s(spans_, "workload.generate");
    WorkloadGenerator gen(config_.workload, table_,
                          config_.db.machine.num_nodes,
                          config_.db.record_data_size);
    scripts = gen.Generate();
  }
  exec_ = std::make_unique<SystemExecutor>(&db_->txn(), &db_->machine(),
                                           config_.seed ^ 0x5eed,
                                           config_.exec);
  exec_->set_profiler(db_->profiler_ptr());
  exec_->set_tracer(db_->tracer_ptr());
  for (NodeId n = 0; n < config_.db.machine.num_nodes; ++n) {
    for (auto& s : scripts[n]) exec_->executor(n).Enqueue(std::move(s));
  }
  return Status::Ok();
}

Status TracedReplay::StealFlushOne() {
  auto dirty = db_->buffers().DirtyPages();
  if (dirty.empty()) return Status::Ok();
  PageId page = dirty[rng_.Uniform(dirty.size())];
  auto alive = db_->machine().AliveNodes();
  if (alive.empty()) return Status::Ok();
  NodeId node = alive[rng_.Uniform(alive.size())];
  Status s;
  {
    ScopedSpan f(spans_, "db.FlushPage");
    s = db_->buffers().FlushPage(node, page);
  }
  if (s.IsNodeFailed() || s.IsLineLost()) return Status::Ok();
  return s;
}

Result<HarnessReport> TracedReplay::Run() {
  // Only the classic single-threaded loop is mirrored; the sharded path,
  // on-demand sweeping and per-recovery overrides are refused rather than
  // approximated.
  if (config_.exec.execution_threads > 1 || config_.db.recovery.on_demand ||
      config_.capture_digests || !config_.recovery_thread_overrides.empty()) {
    return Status::InvalidArgument(
        "traced replay mirrors only the classic single-threaded loop");
  }
  ScopedSpan run(spans_, "workload.run");
  SMDB_RETURN_IF_ERROR(Setup());
  HarnessReport report;

  size_t next_crash = 0;
  std::sort(config_.crashes.begin(), config_.crashes.end(),
            [](const CrashPlan& a, const CrashPlan& b) {
              return a.at_step < b.at_step;
            });

  while (exec_->steps() < config_.max_steps) {
    while (next_crash < config_.crashes.size() &&
           exec_->steps() >= config_.crashes[next_crash].at_step) {
      const CrashPlan& plan = config_.crashes[next_crash];
      size_t plan_index = next_crash;
      ++next_crash;
      std::vector<NodeId> to_crash;
      for (NodeId n : plan.nodes) {
        if (db_->machine().NodeAlive(n) &&
            std::find(to_crash.begin(), to_crash.end(), n) ==
                to_crash.end()) {
          to_crash.push_back(n);
        }
      }
      if (to_crash.empty()) {
        report.skipped_crashes.push_back(
            {plan_index, plan, SkippedCrash::Reason::kTargetsAlreadyDead});
        continue;
      }
      for (NodeId n : to_crash) exec_->executor(n).OnCrash();
      RecoveryOutcome outcome;
      {
        ScopedSpan c(spans_, "core.Crash");
        SMDB_ASSIGN_OR_RETURN(outcome, db_->Crash(to_crash));
      }
      report.recoveries.push_back(outcome);
      if (config_.verify) {
        Status v;
        {
          ScopedSpan c(spans_, "core.VerifyAll");
          v = checker_->VerifyAll();
        }
        if (!v.ok()) {
          report.verify_status = v;
          FillReport(&report);
          return report;
        }
      }
      if (plan.restart_after && !outcome.whole_machine_restart) {
        ScopedSpan c(spans_, "core.RestartNodes");
        db_->RestartNodes(to_crash);
      }
    }

    {
      ScopedSpan s(spans_, "txn.StepOnce");
      if (!exec_->StepOnce()) break;
    }
    if (config_.steal_flush_prob > 0.0 &&
        rng_.Bernoulli(config_.steal_flush_prob)) {
      SMDB_RETURN_IF_ERROR(StealFlushOne());
    }
    if (config_.checkpoint_every_steps > 0 &&
        exec_->steps() % config_.checkpoint_every_steps == 0) {
      auto alive = db_->machine().AliveNodes();
      if (!alive.empty()) {
        ScopedSpan c(spans_, "core.Checkpoint");
        SMDB_RETURN_IF_ERROR(db_->Checkpoint(alive[0]));
      }
    }
  }

  for (; next_crash < config_.crashes.size(); ++next_crash) {
    report.skipped_crashes.push_back({next_crash, config_.crashes[next_crash],
                                      SkippedCrash::Reason::kNeverReached});
  }
  if (config_.verify) {
    ScopedSpan c(spans_, "core.VerifyAll");
    report.verify_status = checker_->VerifyAll();
  }
  {
    ScopedSpan c(spans_, "core.ComputeStateDigest");
    report.digests.push_back(ComputeStateDigest(*db_));
  }
  FillReport(&report);
  return report;
}

void TracedReplay::FillReport(HarnessReport* report) {
  report->exec = exec_->TotalStats();
  report->machine = db_->machine().stats();
  report->logs = db_->log().stats();
  report->txns = db_->txn().stats();
  report->locks = db_->locks().stats();
  report->btree = db_->index().stats();
  report->disk_reads = db_->stable_db().reads();
  report->disk_writes = db_->stable_db().writes();
  report->steps = exec_->steps();
  report->total_time_ns = db_->machine().GlobalTime();
  report->latency = db_->observatory().Snapshot();
  report->profile = db_->profiler().Snapshot();
}

}  // namespace perfbench
