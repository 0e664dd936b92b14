#ifndef SMDB_OBS_PROFILER_H_
#define SMDB_OBS_PROFILER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace smdb {

struct HarnessReport;

/// Why an on-demand sweeper discharge ran solo (off the ThreadPool batch
/// path). `sweeper.solo.<reason>` in the metrics snapshot.
enum class SweeperSoloReason : uint8_t {
  kIndexDescent,    ///< index-key obligation descends the B+-tree
  kPageLoad,        ///< page image still pending: lazy load first
  kUndoObligation,  ///< undo work allocates CLR USNs: strict order
  kTagDischarge,    ///< slot carries a dead node's tag
  kLoneRecord,      ///< clean record but no batch partner
  kSerialSweep,     ///< recovery_threads == 1: the whole sweep is serial
};
inline constexpr size_t kNumSweeperSoloReasons =
    static_cast<size_t>(SweeperSoloReason::kSerialSweep) + 1;
const char* SweeperSoloReasonName(SweeperSoloReason r);

/// Hierarchical sim-time phases. Roots (kStep, kSweep, kRecovery) open a
/// coordinator-thread attribution window; the others nest inside it.
enum class ProfPhase : uint8_t {
  kStep,      ///< one executor step
  kSweep,     ///< one solo sweeper discharge
  kRecovery,  ///< the eager crash-time recovery prefix
  kLockWait,
  kCoherence,
  kWalAppend,
  kWalForce,
  kIndexDescent,
  kApply,
};
const char* ProfPhaseName(ProfPhase p);

struct ProfilerConfig {
  /// Runtime switch. Profiling only reads the simulated clock, so enabling
  /// it never changes the schedule or the final state.
  bool enabled = false;
};

/// One collapsed-stack bucket: total sim-ns of Machine::Tick charges that
/// landed while this exact phase path was innermost, how many Tick calls
/// those were, and how many times the path was entered.
struct ProfPhaseCell {
  SimTime ns = 0;
  uint64_t ticks = 0;
  uint64_t samples = 0;
};

/// Copyable end-of-run snapshot (rides in HarnessReport::profile).
struct ProfilerReport {
  bool enabled = false;
  std::array<uint64_t, kNumSweeperSoloReasons> sweeper_solo{};
  /// Keyed by semicolon-joined phase path ("step;apply;wal_append").
  std::map<std::string, ProfPhaseCell> phases;

  uint64_t sweeper_solo_total() const;
  json::Value ToJson() const;
  /// flamegraph.pl-compatible collapsed stacks: "stack ns\n" per bucket.
  std::string ToCollapsed() const;
};

/// The execution/recovery profiler: solo-discharge attribution for the
/// on-demand sweeper, plus exact sim-time cost accounting. Time
/// attribution piggybacks on Machine::Tick — every simulated-time charge
/// that lands while a root scope is open on the current thread is credited
/// to the innermost phase path, so there is no clock sampling, no self-time
/// reconstruction, and (because roots only open on the coordinator thread)
/// no cross-thread traffic. The sweeper's pool workers see a thread_local
/// depth of zero and skip in one branch.
class Profiler {
 public:
  explicit Profiler(ProfilerConfig cfg = {}) : enabled_(cfg.enabled) {}

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const {
#ifdef SMDB_PROFILER_DISABLED
    return false;
#else
    return enabled_;
#endif
  }
  void set_enabled(bool on) { enabled_ = on; }

  /// True when a root scope is open on the *current thread* — the gate
  /// every emission site checks first (thread-local, no sharing).
  static bool InScope() { return tl_depth_ > 0; }

  // -- Conflict attribution (coordinator thread only) ---------------------
  void CountSweeperSolo(SweeperSoloReason r) {
    ++sweeper_solo_[static_cast<size_t>(r)];
  }

  // -- Sim-time attribution (use ProfRoot / ProfScope, not these) ---------
  void OnTick(SimTime ns) {
    if (cur_ != nullptr) {
      cur_->ns += ns;
      ++cur_->ticks;
    }
  }
  void BeginRoot(ProfPhase root);
  void EndRoot();
  void Enter(ProfPhase phase);
  void Exit();

  ProfilerReport Snapshot() const;
  void Reset();

 private:
  static thread_local uint32_t tl_depth_;

  bool enabled_ = false;
  std::array<uint64_t, kNumSweeperSoloReasons> sweeper_solo_{};
  std::map<std::string, ProfPhaseCell> cells_;
  std::string path_;
  std::vector<size_t> frames_;  ///< path_ lengths to restore on Exit
  ProfPhaseCell* cur_ = nullptr;
};

/// RAII attribution window for one coordinator-path unit of work (an
/// executor step, a sweeper discharge, the recovery prefix). No-ops when the
/// profiler is null/disabled or a root is already open on this thread.
class ProfRoot {
 public:
#ifdef SMDB_PROFILER_DISABLED
  ProfRoot(Profiler*, ProfPhase) {}
#else
  ProfRoot(Profiler* p, ProfPhase root) {
    if (p != nullptr && p->enabled() && !Profiler::InScope()) {
      p_ = p;
      p->BeginRoot(root);
    }
  }
  ~ProfRoot() {
    if (p_ != nullptr) p_->EndRoot();
  }

 private:
  Profiler* p_ = nullptr;
#endif
  ProfRoot(const ProfRoot&) = delete;
  ProfRoot& operator=(const ProfRoot&) = delete;
};

/// RAII nested phase. Engages only inside an open root on this thread, so
/// pool workers pay exactly one thread-local branch.
class ProfScope {
 public:
#ifdef SMDB_PROFILER_DISABLED
  ProfScope(Profiler*, ProfPhase) {}
#else
  ProfScope(Profiler* p, ProfPhase phase) {
    if (Profiler::InScope() && p != nullptr) {
      p_ = p;
      p->Enter(phase);
    }
  }
  ~ProfScope() {
    if (p_ != nullptr) p_->Exit();
  }

 private:
  Profiler* p_ = nullptr;
#endif
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
};

/// Assembles the standalone profile document `smdb_run --profile-out` and
/// bench_throughput write (and smdb_profile_check validates): the profiler
/// snapshot plus the sweeper's batch counters.
json::Value ProfileJsonFromReport(const HarnessReport& report);

}  // namespace smdb

/// Tick hook (sim/machine.h): attributes a sim-time charge to the current
/// phase path. Compiled out under SMDB_PROFILER_DISABLED; otherwise one
/// thread-local branch when no root is open.
#ifdef SMDB_PROFILER_DISABLED
#define SMDB_PROF_TICK(prof_expr, ns) ((void)0)
#else
#define SMDB_PROF_TICK(prof_expr, ns)               \
  do {                                              \
    if (::smdb::Profiler::InScope()) {              \
      ::smdb::Profiler* smdb_prof_p = (prof_expr);  \
      if (smdb_prof_p != nullptr) {                 \
        smdb_prof_p->OnTick(ns);                    \
      }                                             \
    }                                               \
  } while (0)
#endif

#endif  // SMDB_OBS_PROFILER_H_
