#include "workload/run_flags.h"

#include "common/parse.h"

namespace smdb {
namespace {

// Parses one "--key[=value]" argument into `f`; false = unknown flag or a
// value that does not parse.
bool ParseFlag(RunFlags& f, const std::string& arg) {
  auto eq = arg.find('=');
  std::string key = arg.substr(0, eq);
  std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
  HarnessConfig& cfg = f.cfg;
  if (key == "--nodes") {
    return ParseUint(val, &cfg.db.machine.num_nodes);
  } else if (key == "--protocol") {
    return RecoveryConfig::FromFlagName(val, &cfg.db.recovery);
  } else if (key == "--coherence") {
    if (val == "broadcast") {
      cfg.db.machine.coherence = CoherenceKind::kWriteBroadcast;
    } else if (val != "invalidate") {
      return false;
    }
  } else if (key == "--records") {
    return ParseUint(val, &cfg.num_records);
  } else if (key == "--record-bytes") {
    return ParseUint(val, &cfg.db.record_data_size);
  } else if (key == "--txns") {
    return ParseUint(val, &cfg.workload.txns_per_node);
  } else if (key == "--ops") {
    return ParseUint(val, &cfg.workload.ops_per_txn);
  } else if (key == "--write-ratio") {
    return ParseDouble(val, &cfg.workload.write_ratio);
  } else if (key == "--index-ratio") {
    return ParseDouble(val, &cfg.workload.index_op_ratio);
  } else if (key == "--dirty-read-ratio") {
    return ParseDouble(val, &cfg.workload.dirty_read_ratio);
  } else if (key == "--zipf") {
    return ParseDouble(val, &cfg.workload.zipf_theta);
  } else if (key == "--shared") {
    return ParseDouble(val, &cfg.workload.shared_fraction);
  } else if (key == "--abort-ratio") {
    return ParseDouble(val, &cfg.workload.voluntary_abort_ratio);
  } else if (key == "--crash") {
    // STEP:NODE or STEP:NODE:r
    CrashPlan plan;
    size_t colon = val.find(':');
    if (colon == std::string::npos) return false;
    std::string rest = val.substr(colon + 1);
    size_t colon2 = rest.find(':');
    NodeId node = 0;
    if (!ParseUint(val.substr(0, colon), &plan.at_step) ||
        !ParseUint(rest.substr(0, colon2), &node)) {
      return false;
    }
    if (colon2 != std::string::npos && rest.substr(colon2 + 1) != "r") {
      return false;
    }
    plan.nodes = {node};
    plan.restart_after = colon2 != std::string::npos;
    cfg.crashes.push_back(plan);
  } else if (key == "--steal") {
    return ParseDouble(val, &cfg.steal_flush_prob);
  } else if (key == "--checkpoint-every") {
    return ParseUint(val, &cfg.checkpoint_every_steps);
  } else if (key == "--recovery-threads") {
    return ParseUint(val, &cfg.db.recovery.recovery_threads) &&
           cfg.db.recovery.recovery_threads > 0;
  } else if (key == "--on-demand-recovery") {
    cfg.db.recovery.on_demand = true;
    if (cfg.pump_recovery_per_step == 0) cfg.pump_recovery_per_step = 1;
  } else if (key == "--pump-recovery") {
    uint32_t n = 0;
    if (!ParseUint(val, &n) || n > INT32_MAX) return false;
    cfg.pump_recovery_per_step = static_cast<int>(n);
  } else if (key == "--group-commit") {
    cfg.db.recovery.group_commit = true;
  } else if (key == "--group-commit-window") {
    cfg.db.recovery.group_commit = true;
    return ParseUint(val, &cfg.db.recovery.group_commit_window_ns);
  } else if (key == "--group-commit-max-batch") {
    cfg.db.recovery.group_commit = true;
    return ParseUint(val, &cfg.db.recovery.group_commit_max_batch);
  } else if (key == "--nvram") {
    cfg.db.machine.nvram_log = true;
  } else if (key == "--two-line-lcb") {
    cfg.db.lock_table.two_line_lcb = true;
  } else if (key == "--seed") {
    if (!ParseUint(val, &cfg.workload.seed)) return false;
    cfg.seed = cfg.workload.seed ^ 0xBEEF;
  } else if (key == "--trace-out") {
    f.trace_out = val;
    cfg.db.trace.enabled = true;
    return !val.empty();
  } else if (key == "--trace-capacity") {
    return ParseUint(val, &cfg.db.trace.capacity_per_node);
  } else if (key == "--stats-json") {
    f.stats_json = val;
    return !val.empty();
  } else if (key == "--latency-json") {
    f.latency_json = val;
    cfg.db.obs.enabled = true;
    return !val.empty();
  } else if (key == "--obs") {
    cfg.db.obs.enabled = true;
  } else if (key == "--obs-window") {
    cfg.db.obs.enabled = true;
    return ParseUint(val, &cfg.db.obs.window_ns);
  } else if (key == "--obs-influence") {
    cfg.db.obs.enabled = true;
    return ParseUint(val, &cfg.db.obs.crash_influence_ns);
  } else if (key == "--obs-top-contended") {
    cfg.db.obs.enabled = true;
    return ParseUint(val, &cfg.db.obs.top_contended);
  } else if (key == "--profile-out") {
    f.profile_out = val;
    cfg.db.profiler.enabled = true;
    return !val.empty();
  } else if (key == "--verbose") {
    f.verbose = true;
  } else {
    return false;
  }
  return true;
}

}  // namespace

Result<RunFlags> ParseRunFlags(const std::vector<std::string>& args) {
  RunFlags flags;
  for (const std::string& arg : args) {
    if (!ParseFlag(flags, arg)) {
      return Status::InvalidArgument("bad flag: " + arg);
    }
  }
  SMDB_RETURN_IF_ERROR(flags.cfg.Validate());
  return flags;
}

}  // namespace smdb
