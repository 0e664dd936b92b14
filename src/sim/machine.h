#ifndef SMDB_SIM_MACHINE_H_
#define SMDB_SIM_MACHINE_H_

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/profiler.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/directory.h"
#include "sim/events.h"
#include "sim/line_lock.h"
#include "sim/stats.h"

namespace smdb {

class TraceRecorder;
class Observatory;

/// Deterministic functional + timing simulator of a cache-coherent shared
/// memory multiprocessor with independent node failures — the substrate the
/// paper assumes (Stanford FLASH-style fault containment, KSR-1 line locks).
///
/// Model:
///  * A single shared physical address space, divided into cache lines
///    (default 128 bytes, as on the KSR-1 and FLASH).
///  * Each node has a cache; home memory is distributed across nodes
///    (interleaved by line, or pinned by AllocLocal).
///  * A directory-based write-invalidate protocol (write-broadcast is also
///    available) keeps the caches coherent; every access charges simulated
///    time to the issuing node's clock.
///  * CrashNode destroys the node's cache and home memory, then performs the
///    FLASH-style low-level recovery step: the directory is restored to a
///    state consistent with the surviving caches. A line with no surviving
///    valid copy becomes "lost": referencing it returns an invalid flag
///    (Status::LineLost) — exactly the probe primitive Selective Redo needs.
///
/// All operations are sequential and deterministic; concurrency across nodes
/// is modelled by the per-node clocks and by the caller-controlled
/// interleaving of transaction steps (see txn/executor.h).
class Machine {
 public:
  explicit Machine(MachineConfig config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ---------------------------------------------------------------------
  // Address space.

  /// Allocates `bytes` of shared memory with line-interleaved home nodes.
  /// Returns the (line-aligned) starting address.
  Addr AllocShared(size_t bytes);

  /// Allocates `bytes` homed entirely on `node` (used for structures that
  /// must die with the node, per the paper's memory-alignment assumption for
  /// local logs).
  Addr AllocLocal(NodeId node, size_t bytes);

  LineAddr LineOf(Addr addr) const { return addr / config_.line_size; }
  Addr AddrOfLine(LineAddr line) const {
    return static_cast<Addr>(line) * config_.line_size;
  }
  NodeId HomeOf(LineAddr line) const;

  // ---------------------------------------------------------------------
  // Coherent memory operations, executed by `node`. May span lines.

  Status Read(NodeId node, Addr addr, void* out, size_t len) {
    // Inlined hit path: a single-line read that hits in `node`'s own cache
    // does exactly what ReadLine's hit branch does. Everything else (a
    // miss, a lost line, a crashed node, a multi-line span, len == 0)
    // takes ReadSlow.
    const uint32_t offset = static_cast<uint32_t>(addr % config_.line_size);
    if (len != 0 && offset + len <= config_.line_size && alive_[node]) {
      const LineAddr line = LineOf(addr);
      const DirEntry* e = directory_.Find(line);
      if (e != nullptr && !e->lost && e->cached_by(node)) {
        ++stats_.reads;
        ++stats_.local_hits;
        Tick(node, config_.timing.cache_hit_ns);
        std::memcpy(out, caches_[node].Find(line)->data + offset, len);
        return Status::Ok();
      }
    }
    return ReadSlow(node, addr, out, len);
  }
  Status Write(NodeId node, Addr addr, const void* data, size_t len);

  template <typename T>
  Result<T> ReadValue(NodeId node, Addr addr) {
    T v{};
    Status s = Read(node, addr, &v, sizeof(T));
    if (!s.ok()) return s;
    return v;
  }
  template <typename T>
  Status WriteValue(NodeId node, Addr addr, T v) {
    return Write(node, addr, &v, sizeof(T));
  }

  // ---------------------------------------------------------------------
  // Line locks (KSR-1 getline/releaseline, section 5.1).

  /// Acquires the line lock on `line`, bringing it exclusive into `node`'s
  /// cache. Charges the queueing delay and transfer cost to the node clock.
  Status GetLine(NodeId node, LineAddr line);

  /// Releases a previously acquired line lock.
  void ReleaseLine(NodeId node, LineAddr line);

  bool LineLockHeldBy(LineAddr line, NodeId node) const {
    return line_locks_.HeldBy(line, node);
  }

  // ---------------------------------------------------------------------
  // Non-coherent (DMA-style) access, used by the simulated I/O subsystem.

  /// Installs fresh contents directly into home memory (e.g. a disk read).
  /// Drops any cached copies and clears the `lost` flag.
  void InstallToMemory(Addr addr, const void* data, size_t len);

  /// Reads the current coherent contents without changing any state (used
  /// by disk writes to gather page contents, and by verification oracles).
  /// Fails with LineLost if a covered line has no surviving copy.
  Status SnoopRead(Addr addr, void* out, size_t len) const;

  // ---------------------------------------------------------------------
  // The per-line "active data" bit (Stable LBM trigger, section 5.2).

  void SetLineActive(LineAddr line, bool active);
  bool LineActive(LineAddr line) const;

  // ---------------------------------------------------------------------
  // Failure injection and recovery support.

  /// Crashes `node`: destroys its cache and home memory, releases its line
  /// locks, restores the directory (FLASH low-level recovery), marks lines
  /// with no surviving copy as lost, then fires crash hooks.
  void CrashNode(NodeId node);

  /// Brings a crashed node back with a cold cache. Its home memory stays
  /// lost until software re-materialises it.
  void RestartNode(NodeId node);

  /// Whole-machine failure (the fate of an SM database without independent
  /// node failures): every volatile byte is destroyed.
  void RebootAll();

  bool NodeAlive(NodeId node) const { return alive_[node]; }
  std::vector<NodeId> AliveNodes() const;

  /// True if a valid copy of `line` exists on a surviving node — the
  /// "temporarily disable cache-miss I/O and probe" primitive used by
  /// Selective Redo's no-redo test.
  bool ProbeLine(LineAddr line) const;

  /// True if the line has been marked lost by a crash.
  bool IsLineLost(LineAddr line) const;

  /// Drops all cached copies of `line` everywhere and invalidates the home
  /// memory copy (Redo All step 1: "discard all cached database records").
  void DiscardLine(LineAddr line);
  void DiscardRange(Addr addr, size_t len);

  /// Read-only view of a node's cache, for Selective Redo's sequential
  /// cache scan.
  const Cache& cache(NodeId node) const { return caches_[node]; }

  /// Read-only directory entry (diagnostics/tests).
  const DirEntry* FindLine(LineAddr line) const {
    return directory_.Find(line);
  }

  // ---------------------------------------------------------------------
  // Simulated time.

  SimTime NodeClock(NodeId node) const { return clocks_[node]; }
  /// Charges `ns` of simulated time to `node`. Single choke point for all
  /// sim time, so the profiler's phase attribution hooks here: any charge
  /// landing while a profiler root scope is open is
  /// credited to the innermost phase path.
  void Tick(NodeId node, SimTime ns) {
    SMDB_PROF_TICK(prof_, ns);
    clocks_[node] += ns;
  }
  /// Synchronises all live node clocks to the maximum (a barrier; used at
  /// the start and end of restart recovery).
  void SyncClocks();
  /// max over live nodes' clocks.
  SimTime GlobalTime() const;

  // ---------------------------------------------------------------------
  // Hooks and statistics.

  void AddCoherenceHook(CoherenceHook hook) {
    coherence_hooks_.push_back(std::move(hook));
  }
  void AddCrashHook(CrashHook hook) { crash_hooks_.push_back(std::move(hook)); }

  MachineStats& stats() { return stats_; }
  const MachineStats& stats() const { return stats_; }
  const MachineConfig& config() const { return config_; }
  uint16_t num_nodes() const { return config_.num_nodes; }
  uint32_t line_size() const { return config_.line_size; }

  /// Optional event tracer (owned by Database); null = no tracing. The
  /// machine emits coherence-action and crash events through it.
  void set_tracer(TraceRecorder* tracer) { tracer_ = tracer; }

  /// Optional latency observatory (owned by Database); null = none. The
  /// machine emits node down/up transitions through it.
  void set_observatory(Observatory* obs) { obs_ = obs; }

  /// Optional profiler (owned by Database); null = none. Tick charges and
  /// coherence miss-service phases route through it.
  void set_profiler(Profiler* prof) { prof_ = prof; }

 private:
  /// Read's general path: any span, one ReadLine per covered line.
  Status ReadSlow(NodeId node, Addr addr, void* out, size_t len);

  /// Makes `line` valid in `node`'s cache for reading; performs coherence
  /// transitions and charges costs. On success *data points at the node's
  /// cached copy.
  Status ReadLine(NodeId node, LineAddr line, const uint8_t** data);

  /// Makes `node` the exclusive holder of `line` with current contents
  /// (write-invalidate) and returns a mutable pointer to the cached copy.
  /// Under write-broadcast, WriteSpan updates all copies instead.
  Status AcquireExclusive(NodeId node, LineAddr line, bool for_line_lock);

  /// Applies a write of [offset, offset+len) within `line`.
  Status WriteSpan(NodeId node, LineAddr line, uint32_t offset,
                   const uint8_t* data, size_t len);

  /// Returns a pointer to the authoritative current bytes of `line`, or
  /// nullptr if the line is lost.
  const uint8_t* CurrentData(const DirEntry& e, LineAddr line) const;

  void FireCoherence(CoherenceEvent::Kind kind, LineAddr line, NodeId from,
                     NodeId to, bool active_bit);

  /// The directory entry for `line`, created (and its home computed) on
  /// first touch.
  DirEntry& Entry(LineAddr line) {
    if (DirEntry* e = directory_.Find(line)) return *e;
    return directory_.Create(line, HomeOf(line));
  }

  MachineConfig config_;
  Directory directory_;
  std::vector<Cache> caches_;
  std::vector<bool> alive_;
  std::vector<SimTime> clocks_;
  LineLockTable line_locks_;
  /// AcquireExclusive's line snapshot, kept between calls so the copy does
  /// not allocate (a nested call finds it taken and uses its own).
  std::vector<uint8_t> line_buf_;
  MachineStats stats_;
  TraceRecorder* tracer_ = nullptr;
  Observatory* obs_ = nullptr;
  Profiler* prof_ = nullptr;

  Addr next_addr_ = 0;
  std::unordered_map<LineAddr, NodeId> home_override_;

  std::vector<CoherenceHook> coherence_hooks_;
  std::vector<CrashHook> crash_hooks_;
};

}  // namespace smdb

#endif  // SMDB_SIM_MACHINE_H_
