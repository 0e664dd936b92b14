// smdb_run — command-line experiment runner: assemble any workload/crash
// configuration from flags, run it on the simulator, and print the report.
//
// Examples:
//   smdb_run --nodes=8 --protocol=volatile-selective --txns=50
//   smdb_run --nodes=16 --protocol=reboot-all --crash=200:3 --crash=500:7
//   smdb_run --nodes=8 --coherence=broadcast --zipf=0.9 --write-ratio=0.8

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "workload/run_flags.h"

namespace smdb {
namespace {

void Usage() {
  std::printf(
      "usage: smdb_run [flags]\n"
      "  --nodes=N                machine size (default 4, max 64)\n"
      "  --protocol=P             volatile-selective | volatile-redoall |\n"
      "                           stable-eager | stable-triggered |\n"
      "                           stable-triggered-selective | reboot-all |\n"
      "                           abort-dependents\n"
      "  --coherence=K            invalidate (default) | broadcast\n"
      "  --records=N              heap table size (default 256)\n"
      "  --record-bytes=N         record payload size (default 22)\n"
      "  --txns=N                 transactions per node (default 20)\n"
      "  --ops=N                  operations per transaction (default 8)\n"
      "  --write-ratio=F          update fraction of record ops (default .5)\n"
      "  --index-ratio=F          index-op fraction (default 0)\n"
      "  --dirty-read-ratio=F     browse-mode read fraction (default 0)\n"
      "  --zipf=F                 record skew theta (default 0)\n"
      "  --shared=F               shared (vs partitioned) fraction "
      "(default 1)\n"
      "  --abort-ratio=F          voluntary abort fraction (default 0)\n"
      "  --crash=STEP:NODE[:r]    inject a crash (repeatable; ':r' "
      "restarts)\n"
      "  --steal=F                per-step steal flush probability\n"
      "  --checkpoint-every=N     steps between checkpoints (default 0)\n"
      "  --recovery-threads=N     simulated performer streams for restart\n"
      "                           recovery (default 1 = serial)\n"
      "  --on-demand-recovery     instant recovery: run only the eager\n"
      "                           crash-time prefix, serve traffic in the\n"
      "                           Recovering state, discharge obligations\n"
      "                           on first touch / via the sweeper\n"
      "  --pump-recovery=N        sweeper budget: discharge up to N pending\n"
      "                           objects per workload step (default 1\n"
      "                           when --on-demand-recovery is set)\n"
      "  --group-commit           coalesce commit + eager-LBM forces into\n"
      "                           batched appends (ack after the force)\n"
      "  --group-commit-window=NS coalescing window in sim-ns\n"
      "  --group-commit-max-batch=N  batch size bound\n"
      "  --nvram                  NVRAM log device (cheap forces)\n"
      "  --two-line-lcb           split LCBs over two cache lines\n"
      "  --seed=N                 workload seed (default 1234)\n"
      "  --trace-out=PATH         record event traces and write a Chrome\n"
      "                           trace-event file (chrome://tracing)\n"
      "  --trace-capacity=N       per-node trace ring capacity (default "
      "4096)\n"
      "  --stats-json=PATH        write the unified metrics snapshot\n"
      "  --latency-json=PATH      enable the latency observatory and write\n"
      "                           its full export (histograms, windowed\n"
      "                           series, availability timeline)\n"
      "  --obs                    enable the observatory without the JSON\n"
      "                           export (percentiles land in --stats-json)\n"
      "  --obs-window=NS          time-series window in sim-ns (default "
      "50000)\n"
      "  --obs-influence=NS       post-recovery span still counted as\n"
      "                           through-crash (default 200000)\n"
      "  --obs-top-contended=N    lock-contention profile size (default 8)\n"
      "  --profile-out=PATH       enable the execution/recovery profiler\n"
      "                           and write its JSON export (sim-time cost\n"
      "                           per phase path: ns, ticks, samples) plus\n"
      "                           PATH.collapsed, a flamegraph.pl-compatible\n"
      "                           collapsed stack\n"
      "  --verbose                dump per-subsystem statistics\n");
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content << "\n";
  return true;
}

int Run(const RunFlags& flags) {
  Harness h(flags.cfg);
  auto report = h.Run();
  // The trace is written even for a failed run — the event history leading
  // into the failure is exactly what it is for.
  if (!flags.trace_out.empty()) {
    if (!WriteFile(flags.trace_out, h.db().tracer().ToChromeTrace())) {
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%llu events, %llu dropped)\n",
                 flags.trace_out.c_str(),
                 static_cast<unsigned long long>(
                     h.db().tracer().total_recorded()),
                 static_cast<unsigned long long>(
                     h.db().tracer().total_dropped()));
  }
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!flags.stats_json.empty()) {
    MetricsRegistry reg = MetricsRegistry::FromReport(*report);
    reg.AddTrace(h.db().tracer());
    if (!WriteFile(flags.stats_json, reg.ToJson().Dump(1))) return 1;
  }
  if (!flags.latency_json.empty()) {
    if (!WriteFile(flags.latency_json,
                   report->latency.ToJson().Dump(1))) {
      return 1;
    }
  }
  if (!flags.profile_out.empty()) {
    if (!WriteFile(flags.profile_out,
                   ProfileJsonFromReport(*report).Dump(1))) {
      return 1;
    }
    if (!WriteFile(flags.profile_out + ".collapsed",
                   report->profile.ToCollapsed())) {
      return 1;
    }
    std::fprintf(stderr, "profile: %s (+ .collapsed)\n",
                 flags.profile_out.c_str());
  }
  const HarnessReport& r = *report;
  std::printf("protocol            %s\n",
              flags.cfg.db.recovery.Name().c_str());
  std::printf("committed           %llu\n",
              static_cast<unsigned long long>(r.exec.committed));
  std::printf("aborted (deadlock)  %llu\n",
              static_cast<unsigned long long>(r.exec.aborted_deadlock));
  std::printf("aborted (other)     %llu\n",
              static_cast<unsigned long long>(r.exec.aborted_other));
  std::printf("sim time            %.3f ms\n", r.total_time_ns / 1e6);
  std::printf("throughput          %.1f txn/sim-s\n", r.throughput_tps());
  std::printf("log forces          %llu (LBM: %llu)\n",
              static_cast<unsigned long long>(r.logs.forces),
              static_cast<unsigned long long>(r.logs.lbm_forces));
  std::printf("migrations          %llu\n",
              static_cast<unsigned long long>(r.machine.migrations));
  std::printf("replications        %llu\n",
              static_cast<unsigned long long>(r.machine.replications));
  for (size_t i = 0; i < r.recoveries.size(); ++i) {
    std::printf("recovery[%zu]         %s\n", i,
                r.recoveries[i].ToString().c_str());
  }
  if (r.latency.enabled) {
    std::printf("commit latency      p50 %s  p99 %s  p99.9 %s (n=%llu)\n",
                FormatSimTime(r.latency.commit_latency.P50()).c_str(),
                FormatSimTime(r.latency.commit_latency.P99()).c_str(),
                FormatSimTime(r.latency.commit_latency.P999()).c_str(),
                static_cast<unsigned long long>(
                    r.latency.commit_latency.count()));
    for (size_t i = 0; i < r.latency.availability.crashes.size(); ++i) {
      const CrashAvailability& c = r.latency.availability.crashes[i];
      std::printf(
          "availability[%zu]     ttfc %s  trough %.0f%% for %s  "
          "p99 steady %s vs through-crash %s\n",
          i, FormatSimTime(c.ttfc_ns()).c_str(), c.depth_pct,
          FormatSimTime(c.trough_duration_ns).c_str(),
          FormatSimTime(r.latency.commit_steady.P99()).c_str(),
          FormatSimTime(r.latency.commit_through_crash.P99()).c_str());
    }
  }
  std::printf("unnecessary aborts  %llu\n",
              static_cast<unsigned long long>(r.unnecessary_aborts()));
  std::printf("IFA verification    %s\n", r.verify_status.ToString().c_str());
  if (flags.verbose) {
    std::printf("\nmachine stats:\n%s\n", r.machine.ToString().c_str());
    std::printf("disk reads/writes   %llu / %llu\n",
                static_cast<unsigned long long>(r.disk_reads),
                static_cast<unsigned long long>(r.disk_writes));
    std::printf("undo tag writes     %llu\n",
                static_cast<unsigned long long>(r.txns.undo_tag_writes));
    std::printf("lock log records    %llu\n",
                static_cast<unsigned long long>(r.locks.lock_log_records));
    std::printf("btree splits        %llu (early commits %llu)\n",
                static_cast<unsigned long long>(r.btree.splits),
                static_cast<unsigned long long>(r.btree.early_commits));
  }
  return r.verify_status.ok() ? 0 : 2;
}

}  // namespace
}  // namespace smdb

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      smdb::Usage();
      return 0;
    }
  }
  auto flags = smdb::ParseRunFlags(args);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n\n", flags.status().ToString().c_str());
    smdb::Usage();
    return 1;
  }
  return smdb::Run(*flags);
}
