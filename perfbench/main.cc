// Two-clock benchmark for smdb: one workload per invocation, one thread.
//
//   smdb_perfbench --workload steady_long|crash_storm|fuzz_sweep --seed N
//                  --seconds S --trace 0|1 [--quick] [--spans-out PATH]
//
// A run has three phases. (1) Untraced rounds: the round's inputs run
// through Harness::Setup + Harness::Run (or the fuzzer's RunCase) with the
// observatory and profiler off, one warm-up round and then rounds until S
// seconds have passed, with set-up-only repetitions between rounds. Every
// slice of a round (one seeded run, or a block of fuzz cases) is timed
// between two readings of a fixed reference kernel, and its host time is
// scaled to the kernel's nominal speed. Throughput adds up each slice's
// fastest scaled time over the rounds; set-up time and memory are medians.
// Every round must reproduce the warm-up round exactly. (2) Two traced
// passes: TracedReplay re-drives each run from public calls with a span
// around each call, the observatory and the profiler on. Pass A must match
// the untraced run's committed count, sim time and final StateDigest; pass
// B must give byte-identical deterministic keys. The sim-clock metrics and
// per-layer counts come from pass A. (3) With --trace 1, fixed-count probes
// time single layer calls on pass A's final database. The last stdout line
// is the result object.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/state_digest.h"
#include "fuzz/fuzz_case.h"
#include "fuzz/fuzzer.h"
#include "replay.h"
#include "spans.h"
#include "workload/harness.h"

namespace perfbench {
namespace {

using namespace smdb;

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  /// The workloads at a tenth of their size, for the benchmark's own
  /// test; never used for figures.
  bool quick = false;
  std::string spans_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    std::string v = argv[++i];
    const char* b = v.data();
    const char* e = v.data() + v.size();
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      if (std::from_chars(b, e, a.seed).ptr != e) return std::nullopt;
      have_seed = true;
    } else if (k == "--seconds") {
      if (std::from_chars(b, e, a.seconds).ptr != e || !(a.seconds > 0) ||
          a.seconds > 600) {
        return std::nullopt;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v[0] - '0';
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0) {
    return std::nullopt;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Workloads.

/// The mixed workload of the repository's experiment benches
/// (bench::StandardConfig): 8 nodes, 256 records, 8 ops/txn, 50% updates,
/// 15% index ops, uniform over a fully shared table, steal 0.01. Pinned
/// here so that editing those benches cannot silently change this one.
HarnessConfig StandardMix(uint64_t seed, size_t txns_per_node) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = 8;
  cfg.db.recovery = RecoveryConfig::VolatileSelectiveRedo();
  cfg.num_records = 256;
  cfg.workload.txns_per_node = txns_per_node;
  cfg.workload.ops_per_txn = 8;
  cfg.workload.write_ratio = 0.5;
  cfg.workload.index_op_ratio = 0.15;
  cfg.workload.seed = seed;
  cfg.seed = seed ^ 0xBEEF;
  cfg.steal_flush_prob = 0.01;
  return cfg;
}

struct Workload {
  std::string name;
  bool fuzz = false;
  /// Run workloads: the harness runs of one round.
  std::vector<HarnessConfig> runs;
  /// crash_storm: crashes each run must fire (0 = no requirement).
  size_t planned_crashes = 0;
  /// fuzz_sweep: the fuzz cases of one round.
  std::vector<FuzzCase> cases;
};

// Lengths. steady_long's log grows with txns_per_node, which is what makes
// host cost per step grow; crash_storm's crash cadence is ~1000 steps and
// every planned crash must fire before the workload drains. --quick divides
// the transactions per node, the crash cadence and the number of fuzz
// shapes by kQuickDivisor; every other part of each shape is unchanged.
constexpr size_t kSteadyTxns = 800;
constexpr size_t kStormTxns = 400;
constexpr uint64_t kStormCrashEvery = 1000;
constexpr size_t kStormCrashes = 28;
constexpr size_t kFuzzSeeds = 240;
constexpr size_t kRunsPerRound = 3;
constexpr size_t kQuickDivisor = 10;
/// fuzz_sweep: fuzz cases per timed slice.
constexpr size_t kFuzzSlice = 24;

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              bool quick) {
  Workload w;
  w.name = name;
  const size_t div = quick ? kQuickDivisor : 1;
  // Each run workload pools several seeded runs so that the sim-clock
  // figures vary little from one --seed to the next.
  if (name == "steady_long") {
    for (size_t i = 0; i < kRunsPerRound; ++i) {
      w.runs.push_back(
          StandardMix(Rng(seed * 64 + i).Next(), kSteadyTxns / div));
    }
  } else if (name == "crash_storm") {
    // Nodes 6 and 7 crash and restart in turn. A crash drops the node's
    // remaining scripts, so nodes 0-5 carry the traffic. A full-size run
    // takes about 35k steps, so the plans end well before the workload
    // drains; the run fails if any plan does not fire.
    const uint64_t every = kStormCrashEvery / div;
    for (size_t i = 0; i < kRunsPerRound; ++i) {
      HarnessConfig cfg =
          StandardMix(Rng(seed * 64 + 32 + i).Next(), kStormTxns / div);
      cfg.workload.write_ratio = 0.3;
      cfg.workload.zipf_theta = 0.7;
      cfg.workload.dirty_read_ratio = 0.05;
      cfg.workload.voluntary_abort_ratio = 0.05;
      cfg.workload.index_op_ratio = 0.1;
      for (size_t c = 0; c < kStormCrashes; ++c) {
        cfg.crashes.push_back(
            {(c + 1) * every, {NodeId(c % 2 == 0 ? 6 : 7)}, true});
      }
      w.runs.push_back(cfg);
    }
    w.planned_crashes = kStormCrashes;
  } else if (name == "fuzz_sweep") {
    w.fuzz = true;
    // The case shapes of fuzzer seeds 1..N (machine size, table, mix,
    // crash schedule, cadences) are a fixed range; --seed re-draws each
    // case's workload and interleaving seeds. Shapes differ ~50x in work,
    // so re-drawing them per --seed would swamp every figure.
    const size_t n = kFuzzSeeds / div;
    for (size_t i = 0; i < n; ++i) {
      FuzzCase c = SampleFuzzCase(i + 1);
      c.workload.seed = Rng(seed * 4096 + i).Next();
      c.harness_seed = Rng(seed * 4096 + 2048 + i).Next();
      w.cases.push_back(c);
    }
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  for (const HarnessConfig& cfg : w.runs) {
    for (const CrashPlan& p : cfg.crashes) {
      for (NodeId n : p.nodes) {
        if (n >= cfg.db.machine.num_nodes) {
          return Status::InvalidArgument(
              "crash plan names node " + std::to_string(n) + " of " +
              std::to_string(cfg.db.machine.num_nodes));
        }
      }
    }
  }
  return w;
}

/// Every harness configuration one round runs, in round order.
std::vector<HarnessConfig> RoundConfigs(const Workload& w,
                                        const CrashScheduleFuzzer& fuzzer) {
  if (!w.fuzz) return w.runs;
  std::vector<HarnessConfig> out;
  for (const FuzzCase& c : w.cases) {
    for (const RecoveryConfig& p : CrashScheduleFuzzer::DefaultProtocols()) {
      out.push_back(MakeHarnessConfig(c, fuzzer.EffectiveProtocol(p)));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Helpers.

double Seconds(uint64_t a_ns, uint64_t b_ns) { return (b_ns - a_ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string DigestHex(const StateDigest& d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d.Combined()));
  return buf;
}

/// Every sim-clock quantity of a run, digest included: two runs of one
/// configuration must produce the same string.
std::string Fingerprint(const HarnessReport& r, const StateDigest& d) {
  std::string s = "steps=" + std::to_string(r.steps) +
                  " sim_ns=" + std::to_string(r.total_time_ns) +
                  " committed=" + std::to_string(r.exec.committed) +
                  " aborted=" +
                  std::to_string(r.exec.aborted_deadlock +
                                 r.exec.aborted_other) +
                  " retries=" + std::to_string(r.exec.retries) +
                  " lock_waits=" + std::to_string(r.exec.lock_waits) +
                  " forces=" + std::to_string(r.logs.forces) +
                  " appends=" + std::to_string(r.logs.appends) +
                  " migrations=" + std::to_string(r.machine.migrations) +
                  " disk_writes=" + std::to_string(r.disk_writes) +
                  " digest=" + DigestHex(d);
  for (const RecoveryOutcome& o : r.recoveries) {
    s += " rec=" + std::to_string(o.recovery_time_ns);
  }
  return s;
}

/// Returns freed heap memory to the kernel, then restarts the kernel's
/// peak-RSS mark (VmHWM) from the RSS that is left, so the next reading
/// covers only what is allocated from here on.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

/// Peak RSS since the last ResetPeakRss (whole process life where the
/// mark cannot be reset), in MB.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// ---------------------------------------------------------------------------
// Host speed reference.
//
// Identical runs on a shared virtual machine took anywhere from 1x to 2x
// their fastest time, in slow spells that last from seconds to minutes, so
// neither the fastest nor the median run of one invocation repeats across
// invocations. Every timed slice of work therefore sits between two
// readings of a fixed kernel that uses no smdb code, and its host time is
// scaled by kRefNominalS over the mean of the readings around it: the
// figure is what the work would take on a host that runs the kernel in
// kRefNominalS. A change to smdb moves the figures in full; a slow spell
// slows the kernel too and largely cancels out.

/// About the kernel's fastest time on the 4-CPU Xeon virtual machine the
/// benchmark was tuned on. Any fixed value would do; changing it rescales
/// every host figure, so it must stay fixed across commits.
constexpr double kRefNominalS = 0.010;

/// Keeps the reference kernel's result alive.
volatile uint64_t ref_sink = 0;

/// A fixed kernel shaped like the simulator's own work: ordered-map
/// inserts, lookups and erases, vector allocation and a sort. Returns its
/// host time in seconds.
double RefKernelSeconds() {
  uint64_t t0 = NowNs();
  uint64_t x = 0x9E3779B97F4A7C15ull, sum = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 40000; ++i) {
    auto [it, fresh] = m.try_emplace(next() % 8192, i);
    sum += it->second;
    if (!fresh && (x & 1)) m.erase(it);
  }
  std::vector<uint64_t> v(70000);
  for (uint64_t& e : v) e = next();
  std::sort(v.begin(), v.end());
  ref_sink = sum + v[v.size() / 2];
  return Seconds(t0, NowNs());
}

/// Host seconds of one slice of work and the reference reading taken just
/// before it.
struct Timed {
  double host_s = 0;
  size_t ref = 0;
};

/// The reference readings of one invocation, in order.
class SpeedRef {
 public:
  SpeedRef() { Read(); }

  /// Takes a reading.
  void Read() { readings_.push_back(RefKernelSeconds()); }

  /// Starts timing a slice: the slice runs after the latest reading.
  Timed Start() const { return {0, readings_.size() - 1}; }

  /// `t` scaled to the reference speed by the mean of the two readings
  /// before it and the two after it (fewer at the ends). Call once every
  /// slice has its readings after it.
  double Scaled(const Timed& t) const {
    size_t lo = t.ref == 0 ? 0 : t.ref - 1;
    size_t hi = std::min(t.ref + 3, readings_.size());
    double sum = 0;
    for (size_t i = lo; i < hi; ++i) sum += readings_[i];
    return t.host_s * kRefNominalS / (sum / double(hi - lo));
  }

  const std::vector<double>& readings() const { return readings_; }

 private:
  std::vector<double> readings_;
};

// ---------------------------------------------------------------------------
// Operations. One operation is one harness run or one fuzz case (one case
// under one protocol).

struct OpResult {
  bool failed = false;
  std::string why;
  /// Deterministic identity of the outcome (compared across rounds).
  std::string fingerprint;
  uint64_t committed = 0;
  uint64_t crashes_fired = 0;
  /// Failed fuzz case: the fuzzer's replay document (smdb_fuzz --replay).
  std::string replay;
};

/// One untraced round. Slice i is the same work in every round: one seeded
/// run, or kFuzzSlice fuzz cases under every protocol.
struct Round {
  std::vector<Timed> slice_wall;  ///< every operation, set-up included
  std::vector<Timed> slice_run;   ///< inside Harness::Run / RunCase
  double raw_wall_s = 0;          ///< unscaled host time of the round
  uint64_t committed = 0;
  std::vector<OpResult> ops;
  /// Peak RSS of each seeded run or fuzz case (all its protocols), MB.
  std::vector<double> peak_rss_mb;
};

/// Checks shared by the untraced run and the traced replay.
void CheckReport(const HarnessConfig& cfg, const Workload& w,
                 const HarnessReport& r, OpResult* op) {
  if (!r.verify_status.ok()) {
    op->failed = true;
    op->why = "IFA verification: " + r.verify_status.ToString();
  } else if (w.planned_crashes > 0 &&
             (r.recoveries.size() != w.planned_crashes ||
              !r.skipped_crashes.empty())) {
    op->failed = true;
    op->why = "fired " + std::to_string(r.recoveries.size()) + " of " +
              std::to_string(w.planned_crashes) + " planned crashes";
  } else if (cfg.db.recovery.ensures_ifa() && r.unnecessary_aborts() > 0) {
    op->failed = true;
    op->why = "IFA protocol aborted surviving work";
  }
}

Round RunRound(const Workload& w, CrashScheduleFuzzer& fuzzer,
               SpeedRef& ref) {
  Round round;
  if (!w.fuzz) {
    for (const HarnessConfig& cfg : w.runs) {
      OpResult op;
      ResetPeakRss();
      Timed wall = ref.Start(), run = ref.Start();
      uint64_t t0 = NowNs();
      Harness h(cfg);
      Status s = h.Setup();
      uint64_t t1 = NowNs();
      auto rep = s.ok() ? h.Run() : Result<HarnessReport>(s);
      uint64_t t2 = NowNs();
      round.peak_rss_mb.push_back(PeakRssMb());
      ref.Read();
      wall.host_s = Seconds(t0, t2);
      run.host_s = Seconds(t1, t2);
      round.slice_wall.push_back(wall);
      round.slice_run.push_back(run);
      round.raw_wall_s += wall.host_s;
      if (!rep.ok()) {
        op.failed = true;
        op.why = "harness: " + rep.status().ToString();
      } else {
        CheckReport(cfg, w, *rep, &op);
        op.committed = rep->exec.committed;
        op.crashes_fired = rep->recoveries.size();
        op.fingerprint = Fingerprint(*rep, ComputeStateDigest(h.db()));
        round.committed += op.committed;
      }
      round.ops.push_back(std::move(op));
    }
    return round;
  }
  const auto protocols = CrashScheduleFuzzer::DefaultProtocols();
  Timed slice = ref.Start();
  for (size_t i = 0; i < w.cases.size(); ++i) {
    const FuzzCase& c = w.cases[i];
    ResetPeakRss();
    uint64_t t0 = NowNs();
    for (const RecoveryConfig& p : protocols) {
      FuzzStats before = fuzzer.stats();
      FuzzVerdict v = fuzzer.RunCase(c, p);
      const FuzzStats& after = fuzzer.stats();
      OpResult op;
      op.failed = v.failed;
      if (v.failed) {
        op.why = p.Name() + ": " + v.kind + ": " + v.detail;
        op.replay = fuzzer.ReplayJson({0, c, p, v}, c);
      }
      op.committed = after.committed - before.committed;
      op.crashes_fired = after.crashes_fired - before.crashes_fired;
      op.fingerprint =
          "verdict=" + v.kind + " committed=" + std::to_string(op.committed) +
          " fired=" + std::to_string(op.crashes_fired) + " skipped=" +
          std::to_string(after.crashes_skipped - before.crashes_skipped) +
          " reboots=" +
          std::to_string(after.whole_machine_restarts -
                         before.whole_machine_restarts);
      round.committed += op.committed;
      round.ops.push_back(std::move(op));
    }
    double dt = Seconds(t0, NowNs());
    round.peak_rss_mb.push_back(PeakRssMb());
    round.raw_wall_s += dt;
    slice.host_s += dt;
    if ((i + 1) % kFuzzSlice == 0 || i + 1 == w.cases.size()) {
      ref.Read();
      round.slice_wall.push_back(slice);
      round.slice_run.push_back(slice);
      slice = ref.Start();
    }
  }
  return round;
}

/// Host seconds to set up every harness of one round (Database, table,
/// initial checkpoint, workload generation).
Result<Timed> SetupOnce(const Workload& w, const CrashScheduleFuzzer& fuzzer,
                        SpeedRef& ref) {
  Timed t = ref.Start();
  uint64_t t0 = NowNs();
  for (const HarnessConfig& cfg : RoundConfigs(w, fuzzer)) {
    Harness h(cfg);
    SMDB_RETURN_IF_ERROR(h.Setup());
  }
  t.host_s = Seconds(t0, NowNs());
  ref.Read();
  return t;
}

// ---------------------------------------------------------------------------
// Traced pass and its aggregates.

/// Sums over the pass's runs of everything the metrics read.
struct Aggregate {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t sim_ns = 0;
  ExecutorStats exec;
  MachineStats machine;
  LogStats logs;
  LockTableStats locks;
  BTreeStats btree;
  uint64_t disk_writes = 0;
  uint64_t stable_records = 0;
  Histogram commit;
  std::vector<double> recovery_ms;
  std::vector<double> ttfc_ms;
  std::array<SimTime, kNumRecoveryPhases> phase_ns{};
  uint64_t unnecessary_aborts = 0;
  /// Sim-ns of the profiler's "step" tree by innermost phase ("step" for
  /// time no sub-phase claimed).
  std::map<std::string, SimTime> step_ns;

  void Add(const HarnessReport& r, Database& db) {
    committed += r.exec.committed;
    aborted += r.exec.aborted_deadlock + r.exec.aborted_other;
    sim_ns += r.total_time_ns;
    exec.retries += r.exec.retries;
    exec.lock_waits += r.exec.lock_waits;
    machine.migrations += r.machine.migrations;
    machine.replications += r.machine.replications;
    machine.invalidations += r.machine.invalidations;
    machine.line_lock_acquires += r.machine.line_lock_acquires;
    logs.appends += r.logs.appends;
    logs.forces += r.logs.forces;
    logs.forced_records += r.logs.forced_records;
    locks.acquires += r.locks.acquires;
    locks.queued += r.locks.queued;
    locks.lock_log_records += r.locks.lock_log_records;
    btree.inserts += r.btree.inserts;
    btree.lookups += r.btree.lookups;
    btree.splits += r.btree.splits;
    disk_writes += r.disk_writes;
    for (NodeId n = 0; n < db.stable_log().num_nodes(); ++n) {
      stable_records += db.stable_log().Records(n).size();
    }
    commit.Merge(r.latency.commit_latency);
    for (const RecoveryOutcome& o : r.recoveries) {
      recovery_ms.push_back(o.recovery_time_ns / 1e6);
      for (size_t i = 0; i < kNumRecoveryPhases; ++i) {
        phase_ns[i] += o.phase_ns[i];
      }
    }
    unnecessary_aborts += r.unnecessary_aborts();
    for (const CrashAvailability& c : r.latency.availability.crashes) {
      if (c.saw_commit_after) ttfc_ms.push_back(c.ttfc_ns() / 1e6);
    }
    for (const auto& [path, cell] : r.profile.phases) {
      if (path != "step" && path.rfind("step;", 0) != 0) continue;
      step_ns[path.substr(path.rfind(';') + 1)] += cell.ns;
    }
  }
};

struct Pass {
  double wall_s = 0;
  Aggregate agg;
  SpanRecorder spans;
  std::vector<OpResult> ops;
  /// Final state of the last run that ended with two live nodes: the probe
  /// target.
  std::unique_ptr<TracedReplay> probe_target;
};

std::unique_ptr<Pass> RunTracedPass(const Workload& w,
                                    const std::vector<HarnessConfig>& cfgs,
                                    const std::vector<OpResult>& reference,
                                    bool reference_runs) {
  auto pass = std::make_unique<Pass>();
  for (size_t i = 0; i < cfgs.size(); ++i) {
    HarnessConfig cfg = cfgs[i];
    cfg.db.obs.enabled = true;
    cfg.db.profiler.enabled = true;
    auto replay = std::make_unique<TracedReplay>(cfg, pass->spans);
    uint64_t t0 = NowNs();
    auto rep = replay->Run();
    pass->wall_s += Seconds(t0, NowNs());
    OpResult op;
    if (!rep.ok()) {
      op.failed = true;
      op.why = "replay: " + rep.status().ToString();
      pass->ops.push_back(std::move(op));
      continue;
    }
    CheckReport(cfgs[i], w, *rep, &op);
    op.committed = rep->exec.committed;
    op.crashes_fired = rep->recoveries.size();
    // A run stopped by a failed verification carries no final digest.
    op.fingerprint =
        Fingerprint(*rep, rep->digests.empty() ? StateDigest{}
                                               : rep->digests.back());
    pass->agg.Add(*rep, replay->db());
    // The replay must reproduce the untraced run: the fingerprint holds
    // its committed count, sim time and final digest. Fuzz cases ran
    // through RunCase, which exposes only committed/crash counts, so an
    // untraced Harness::Run of the same configuration gives the rest.
    if (!op.failed && i < reference.size()) {
      std::string want = reference[i].fingerprint;
      if (reference_runs) {
        Harness h(cfgs[i]);
        auto ref = h.Run();
        want = ref.ok() ? Fingerprint(*ref, ComputeStateDigest(h.db()))
                        : "harness error: " + ref.status().ToString();
        if (op.committed != reference[i].committed ||
            op.crashes_fired != reference[i].crashes_fired) {
          want = "RunCase committed=" +
                 std::to_string(reference[i].committed) +
                 " fired=" + std::to_string(reference[i].crashes_fired);
        }
      }
      if (want != op.fingerprint) {
        op.failed = true;
        op.why = "replay diverged: got {" + op.fingerprint + "} want {" +
                 want + "}";
      }
    }
    if (replay->db().machine().AliveNodes().size() >= 2) {
      pass->probe_target = std::move(replay);
    }
    pass->ops.push_back(std::move(op));
  }
  return pass;
}

/// Span statistics: call count and total time per name, self time per
/// layer (the name's "<module>" prefix).
struct SpanStats {
  struct Entry {
    uint64_t calls = 0;
    uint64_t total_ns = 0;
  };
  std::map<std::string, Entry> by_name;
  std::map<std::string, uint64_t> self_by_layer;
  /// StepOnce time in the last quarter of each run over the first quarter.
  double step_growth = 0;

  explicit SpanStats(const std::vector<Span>& spans) {
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<int32_t, std::vector<uint64_t>> steps_by_run;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      uint64_t dur = s.end_ns - s.start_ns;
      uint64_t self = dur - std::min(dur, child_ns[i]);
      Entry& e = by_name[s.name];
      ++e.calls;
      e.total_ns += dur;
      std::string name = s.name;
      self_by_layer[name.substr(0, name.find('.'))] += self;
      if (name == "txn.StepOnce") steps_by_run[s.parent].push_back(dur);
    }
    uint64_t first = 0, last = 0;
    for (const auto& [run, steps] : steps_by_run) {
      size_t q = steps.size() / 4;
      for (size_t i = 0; i < q; ++i) {
        first += steps[i];
        last += steps[steps.size() - q + i];
      }
    }
    step_growth = first == 0 ? 0.0 : double(last) / double(first);
  }

  double MeanUs(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() || it->second.calls == 0
               ? 0.0
               : it->second.total_ns / 1e3 / it->second.calls;
  }
  double SelfMs(const std::string& layer) const {
    auto it = self_by_layer.find(layer);
    return it == self_by_layer.end() ? 0.0 : it->second / 1e6;
  }
};

// ---------------------------------------------------------------------------
// Layer probes: a fixed number of calls each on the final database.

template <typename Fn>
double ProbeNs(int calls, Fn&& fn) {
  uint64_t t0 = NowNs();
  for (int i = 0; i < calls; ++i) fn(i);
  return double(NowNs() - t0) / calls;
}

struct ProbeResults {
  double write_local_ns = 0, write_remote_ns = 0, line_lock_ns = 0;
  double acquire_release_ns = 0, append_force_ns = 0;
  double insert_ns = 0, lookup_ns = 0;
};

Result<ProbeResults> RunProbes(Database& db) {
  ProbeResults p;
  Machine& m = db.machine();
  std::vector<NodeId> alive = m.AliveNodes();
  NodeId a = alive.at(0);
  NodeId b = alive.at(1);
  Status st;
  auto keep = [&st](Status s) {
    if (st.ok() && !s.ok()) st = s;
  };

  Addr local = m.AllocShared(128);
  p.write_local_ns = ProbeNs(20000, [&](int i) {
    keep(m.WriteValue<uint64_t>(a, local, uint64_t(i)));
  });
  Addr shared = m.AllocShared(128);
  p.write_remote_ns = ProbeNs(20000, [&](int i) {
    keep(m.WriteValue<uint64_t>(i % 2 == 0 ? a : b, shared, uint64_t(i)));
  });
  LineAddr line = m.LineOf(m.AllocShared(128));
  p.line_lock_ns = ProbeNs(20000, [&](int) {
    keep(m.GetLine(a, line));
    m.ReleaseLine(a, line);
  });

  // Names and txn ids far outside anything the workloads use.
  const uint64_t kFar = uint64_t{1} << 40;
  TxnId probe_txn = MakeTxnId(a, kFar);
  p.acquire_release_ns = ProbeNs(20000, [&](int i) {
    uint64_t name = kFar + uint64_t(i % 512);
    auto r = db.locks().Acquire(a, probe_txn, name, LockMode::kExclusive,
                                nullptr);
    keep(r.status());
    keep(db.locks().Release(a, probe_txn, name, nullptr));
  });

  p.append_force_ns = ProbeNs(500, [&](int i) {
    LogRecord rec;
    rec.type = LogRecordType::kBegin;
    rec.txn = MakeTxnId(a, kFar + uint64_t(i));
    rec.node = a;
    db.log().Append(a, std::move(rec));
    keep(db.log().Force(a, a));
  });

  Lsn chain = kInvalidLsn;
  RecordId value{1, 0};
  p.insert_ns = ProbeNs(2000, [&](int i) {
    keep(db.index().Insert(a, probe_txn, kFar + uint64_t(i), value, kTagNone,
                           &chain));
  });
  p.lookup_ns = ProbeNs(20000, [&](int i) {
    keep(db.index().Lookup(a, kFar + uint64_t(i % 2000)).status());
  });
  if (!st.ok()) return st;
  return p;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Sim-clock value or count: identical on every run of one input.
  bool deterministic = false;
  std::string note;
};

std::vector<Metric> EndToEnd(const Workload& w, const SpeedRef& ref,
                             const std::vector<Round>& timed,
                             const std::vector<Timed>& setups,
                             const Aggregate& agg) {
  // Each slice's scaled time is its median over the rounds; throughput
  // divides one round's work by the sum of those medians.
  double wall_s = 0, run_s = 0;
  for (size_t i = 0; i < timed.front().slice_wall.size(); ++i) {
    std::vector<double> wall, run;
    for (const Round& r : timed) {
      wall.push_back(ref.Scaled(r.slice_wall[i]));
      run.push_back(ref.Scaled(r.slice_run[i]));
    }
    wall_s += Median(wall);
    run_s += Median(run);
  }
  std::vector<double> setup_s, peak_rss_mb;
  for (const Timed& t : setups) setup_s.push_back(ref.Scaled(t));
  for (const Round& r : timed) {
    peak_rss_mb.insert(peak_rss_mb.end(), r.peak_rss_mb.begin(),
                       r.peak_rss_mb.end());
  }
  size_t instances = w.fuzz ? w.cases.size() : w.runs.size();
  double txn_per_s = timed.front().committed / run_s;
  double runs_per_s = instances / wall_s;
  std::string rounds = "median slices of " + std::to_string(timed.size()) +
                       " rounds, reference speed";
  double sim_s = agg.sim_ns / 1e9;
  return {
      {"host_txn_per_s", txn_per_s, "1/s", false, rounds},
      {"fuzz_seeds_per_s", runs_per_s, "1/s", false, rounds},
      {"setup_s", Median(setup_s), "s", false,
       "median of " + std::to_string(setups.size()) +
           " set-up repetitions, reference speed"},
      {"peak_rss_mb", Median(peak_rss_mb), "MB", false,
       "median over untraced runs"},
      {"sim_txn_per_s", sim_s == 0 ? 0 : agg.committed / sim_s, "1/s", true,
       ""},
      {"forces_per_commit",
       agg.committed == 0 ? 0 : double(agg.logs.forces) / agg.committed,
       "count", true, ""},
      {"commit_mean_sim_us", agg.commit.Mean() / 1e3, "us", true,
       std::to_string(agg.commit.count()) + " samples"},
      {"commit_p99_sim_us", agg.commit.ValueAtPercentile(99.0) / 1e3, "us",
       true, std::to_string(agg.commit.count()) + " samples"},
  };
}

std::vector<Metric> PerLayer(const Workload& w, const Aggregate& agg,
                             const SpanStats& sp, const ProbeResults& pr,
                             double case_ms, double overhead_ms) {
  auto count = [](const char* n, uint64_t v) {
    return Metric{n, double(v), "count", true, ""};
  };
  uint64_t ended = agg.committed + agg.aborted;
  std::vector<Metric> m = {
      {"workload.setup_db_us", sp.MeanUs("workload.setup_db"), "us", false,
       ""},
      {"workload.generate_ms", sp.MeanUs("workload.generate") / 1e3, "ms",
       false, ""},
      {"workload.self_ms", sp.SelfMs("workload"), "ms", false, ""},
      {"txn.step_us", sp.MeanUs("txn.StepOnce"), "us", false, ""},
      {"txn.step_growth", sp.step_growth, "ratio", false, ""},
      {"txn.self_ms", sp.SelfMs("txn"), "ms", false, ""},
      {"txn.abort_ratio", ended == 0 ? 0 : double(agg.aborted) / ended,
       "ratio", true,
       std::to_string(agg.aborted) + " of " + std::to_string(ended)},
      count("txn.lock_waits", agg.exec.lock_waits),
      count("txn.retries", agg.exec.retries),
      count("sim.migrations", agg.machine.migrations),
      count("sim.replications", agg.machine.replications),
      count("sim.invalidations", agg.machine.invalidations),
      count("sim.line_lock_acquires", agg.machine.line_lock_acquires),
      {"sim.write_local_ns", pr.write_local_ns, "ns", false, "probe"},
      {"sim.write_remote_ns", pr.write_remote_ns, "ns", false, "probe"},
      {"sim.line_lock_ns", pr.line_lock_ns, "ns", false, "probe"},
      count("lockmgr.acquires", agg.locks.acquires),
      count("lockmgr.queued", agg.locks.queued),
      count("lockmgr.lock_log_records", agg.locks.lock_log_records),
      {"lockmgr.acquire_release_ns", pr.acquire_release_ns, "ns", false,
       "probe"},
      count("wal.appends", agg.logs.appends),
      count("wal.forces", agg.logs.forces),
      count("wal.forced_records", agg.logs.forced_records),
      {"wal.append_force_ns", pr.append_force_ns, "ns", false, "probe"},
      count("storage.stable_records", agg.stable_records),
      count("btree.inserts", agg.btree.inserts),
      count("btree.lookups", agg.btree.lookups),
      count("btree.splits", agg.btree.splits),
      {"btree.insert_ns", pr.insert_ns, "ns", false, "probe"},
      {"btree.lookup_ns", pr.lookup_ns, "ns", false, "probe"},
      {"db.flush_us", sp.MeanUs("db.FlushPage"), "us", false, ""},
      {"db.self_ms", sp.SelfMs("db"), "ms", false, ""},
      count("db.disk_writes", agg.disk_writes),
      {"core.crash_ms", sp.MeanUs("core.Crash") / 1e3, "ms", false, ""},
      {"core.verify_ms", sp.MeanUs("core.VerifyAll") / 1e3, "ms", false, ""},
      {"core.digest_ms", sp.MeanUs("core.ComputeStateDigest") / 1e3, "ms",
       false, ""},
      {"core.self_ms", sp.SelfMs("core"), "ms", false, ""},
  };
  size_t recoveries = agg.recovery_ms.size();
  for (size_t i = 0; i < kNumRecoveryPhases; ++i) {
    m.push_back({std::string("core.phase.") +
                     RecoveryPhaseName(static_cast<RecoveryPhase>(i)) +
                     "_sim_us",
                 recoveries == 0 ? 0.0 : agg.phase_ns[i] / 1e3 / recoveries,
                 "us", true, "mean per recovery"});
  }
  m.push_back({"core.recovery_sim_ms", Median(agg.recovery_ms), "ms", true,
               "median of " + std::to_string(recoveries) + " recoveries"});
  m.push_back({"core.ttfc_sim_ms", Median(agg.ttfc_ms), "ms", true,
               "median of " + std::to_string(agg.ttfc_ms.size()) +
                   " restarts"});
  m.push_back(count("core.unnecessary_aborts", agg.unnecessary_aborts));
  m.push_back({"fuzz.case_ms", case_ms, "ms", false, ""});
  m.push_back(count("fuzz.crashes_fired", w.fuzz ? recoveries : 0));
  SimTime step_total = 0;
  for (const auto& [phase, ns] : agg.step_ns) step_total += ns;
  for (const char* phase : {"lock_wait", "coherence", "wal_append",
                            "wal_force", "index_descent", "apply"}) {
    auto it = agg.step_ns.find(phase);
    SimTime ns = it == agg.step_ns.end() ? 0 : it->second;
    m.push_back({std::string("obs.step.") + phase + "_share",
                 step_total == 0 ? 0.0 : double(ns) / step_total, "ratio",
                 true, "share of step sim time"});
  }
  m.push_back({"obs.commit_p50_sim_us", agg.commit.P50() / 1e3, "us", true,
               std::to_string(agg.commit.count()) + " samples"});
  m.push_back(count("obs.commit_samples", agg.commit.count()));
  m.push_back({"bench.trace_overhead_ms", overhead_ms, "ms", false,
               "traced pass minus untraced round"});
  return m;
}

std::string MetricsJson(const std::vector<Metric>& ms, bool deterministic) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : ms) {
    if (deterministic && !m.deterministic) continue;
    if (!first) out += ", ";
    first = false;
    if (deterministic) {
      out += "\"" + m.name + "\": " + Num(m.value);
    } else {
      out += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  return out + "}";
}

void PrintMetrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %-34s %16s %-6s %s%s\n", kind, m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(),
                m.deterministic ? "[sim/count] " : "[host] ", m.note.c_str());
  }
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int Main(int argc, char** argv) {
  // Keep freed memory in the process: no automatic trimming, no
  // per-allocation mmap below 32 MB. With glibc's adaptive defaults the
  // host figures depend on the heap state the previous round left behind:
  // over five crash_storm seeds on a shared 4-CPU virtual machine, setup_s
  // spread 16% with the defaults and 1% with these settings,
  // host_txn_per_s 7% and 4%. ResetPeakRss still trims explicitly.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  auto args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: smdb_perfbench --workload steady_long|crash_storm|"
                 "fuzz_sweep --seed N --seconds S --trace 0|1 [--quick] "
                 "[--spans-out PATH]\n");
    return 2;
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "refusing to measure a non-optimised build (%s); configure "
               "with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  auto wr = MakeWorkload(args->workload, args->seed, args->quick);
  if (!wr.ok()) {
    std::fprintf(stderr, "%s\n", wr.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *wr;
  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args->seed),
              Num(args->seconds).c_str(), args->trace,
              args->quick ? " quick" : "");
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf("env {\"host_cpus\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"threads\": 1}\n",
              std::thread::hardware_concurrency(), compiler,
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  CrashScheduleFuzzer::Options fuzz_options;
  fuzz_options.forensics = false;
  CrashScheduleFuzzer fuzzer(fuzz_options);
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  auto tally = [&](const std::vector<OpResult>& ops, const char* where) {
    for (const OpResult& op : ops) {
      ++attempted;
      if (op.failed) {
        ++failed;
        if (problems.size() < 8) problems.push_back(where + (": " + op.why));
      }
    }
  };

  // (1) Untraced rounds: one warm-up, then timed rounds until --seconds
  // have passed. Host speed drifts over seconds on a shared machine, so
  // the set-up repetitions are spread between the rounds rather than run
  // in one burst.
  SpeedRef ref;
  Round reference = RunRound(w, fuzzer, ref);
  tally(reference.ops, "warm-up");
  for (const OpResult& op : reference.ops) {
    if (!op.replay.empty()) {
      std::fprintf(stderr, "failing fuzz case, replay document:\n%s\n",
                   op.replay.c_str());
    }
  }
  std::vector<Round> timed;
  std::vector<Timed> setups;
  uint64_t t_start = NowNs();
  const size_t kMinRounds = 3;
  const int kSetupsPerRound = 8;
  while (timed.size() < kMinRounds ||
         Seconds(t_start, NowNs()) < args->seconds) {
    timed.push_back(RunRound(w, fuzzer, ref));
    tally(timed.back().ops, "round");
    for (size_t i = 0; i < reference.ops.size(); ++i) {
      if (timed.back().ops[i].fingerprint != reference.ops[i].fingerprint) {
        ++failed;
        problems.push_back("round " + std::to_string(timed.size()) +
                           " differs from the first: {" +
                           timed.back().ops[i].fingerprint + "} vs {" +
                           reference.ops[i].fingerprint + "}");
        break;
      }
    }
    for (int i = 0; i < kSetupsPerRound; ++i) {
      auto s = SetupOnce(w, fuzzer, ref);
      if (!s.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     s.status().ToString().c_str());
        return 1;
      }
      setups.push_back(*s);
    }
  }

  // (2) Traced passes A and B.
  std::vector<HarnessConfig> cfgs = RoundConfigs(w, fuzzer);
  auto pass_a = RunTracedPass(w, cfgs, reference.ops, w.fuzz);
  tally(pass_a->ops, "traced pass A");
  auto pass_b = RunTracedPass(w, cfgs, {}, false);
  tally(pass_b->ops, "traced pass B");
  for (size_t i = 0; i < pass_a->ops.size(); ++i) {
    if (pass_a->ops[i].fingerprint != pass_b->ops[i].fingerprint) {
      ++failed;
      problems.push_back("traced passes differ on operation " +
                         std::to_string(i));
      break;
    }
  }
  size_t replay_ok = 0;
  for (const OpResult& op : pass_a->ops) replay_ok += op.failed ? 0 : 1;
  std::printf("replay %zu/%zu runs reproduce the untraced run "
              "(committed, sim time, final StateDigest)\n",
              replay_ok, pass_a->ops.size());

  // (3) Probes.
  ProbeResults probes;
  if (args->trace == 1) {
    if (pass_a->probe_target == nullptr) {
      ++failed;
      problems.push_back("no run ended with two live nodes to probe");
    } else {
      auto pr = RunProbes(pass_a->probe_target->db());
      if (!pr.ok()) {
        ++failed;
        problems.push_back("probe: " + pr.status().ToString());
      } else {
        probes = *pr;
      }
    }
    if (!args->spans_out.empty()) {
      std::ofstream out(args->spans_out);
      out << pass_a->spans.ToChromeJson();
      if (!out) {
        ++failed;
        problems.push_back("cannot write " + args->spans_out);
      }
    }
  }

  std::vector<double> walls;
  for (const Round& r : timed) walls.push_back(r.raw_wall_s);
  double untraced_wall = Median(walls);
  double case_ms =
      w.fuzz ? untraced_wall * 1e3 / double(reference.ops.size()) : 0.0;
  SpanStats sp(pass_a->spans.spans());
  auto e2e = EndToEnd(w, ref, timed, setups, pass_a->agg);
  auto layers = PerLayer(w, pass_a->agg, sp, probes, case_ms,
                         (pass_a->wall_s - untraced_wall) * 1e3);
  auto e2e_b = EndToEnd(w, ref, timed, setups, pass_b->agg);
  auto layers_b = PerLayer(w, pass_b->agg, sp, probes, 0, 0);
  std::string det = MetricsJson(e2e, true) + " " + MetricsJson(layers, true);
  if (det != MetricsJson(e2e_b, true) + " " + MetricsJson(layers_b, true)) {
    ++failed;
    problems.push_back("deterministic keys differ between traced passes");
  }

  const std::vector<double>& rs = ref.readings();
  std::printf("speed_ref {\"nominal_ms\": %s, \"fastest_ms\": %s, "
              "\"median_ms\": %s, \"readings\": %zu}\n",
              Num(kRefNominalS * 1e3).c_str(),
              Num(*std::min_element(rs.begin(), rs.end()) * 1e3).c_str(),
              Num(Median(rs) * 1e3).c_str(), rs.size());
  PrintMetrics("e2e  ", e2e);
  PrintMetrics("layer", layers);
  std::printf("deterministic %s\n", det.c_str());
  for (const std::string& p : problems) std::printf("FAILED %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(args->trace == 1 ? layers : e2e, false).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
