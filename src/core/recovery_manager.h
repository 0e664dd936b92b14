#ifndef SMDB_CORE_RECOVERY_MANAGER_H_
#define SMDB_CORE_RECOVERY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/log_analysis.h"
#include "core/recovery.h"
#include "txn/transaction.h"
#include "wal/log_record.h"

namespace smdb {

class Database;

/// Orchestrates restart recovery after one or more node crashes, running
/// whichever scheme the database's RecoveryConfig selects:
///
///  * Redo All (section 4.1.2): discard all cached DB lines, reload the
///    stable images, redo from every reachable log, undo crashed
///    uncommitted work from stable logs, recover the lock table.
///  * Selective Redo: re-install only lost lines, redo only what neither
///    survived in a cache nor reached the stable database, undo migrated
///    crashed updates via the per-record undo tags, recover the lock table.
///  * RebootAll / AbortDependents baselines.
///
/// Neither IFA scheme ever consults a crashed node's volatile log (it no
/// longer exists); everything comes from stable storage, surviving caches,
/// surviving volatile logs, and the undo tags.
class RecoveryManager {
 public:
  explicit RecoveryManager(Database* db);

  /// Runs restart recovery for the given crashed set (the machine must
  /// already reflect the crashes). Returns what was done.
  Result<RecoveryOutcome> Run(const std::vector<NodeId>& crashed);

 private:
  friend class OnDemandRecovery;
  struct Ctx {
    std::vector<NodeId> crashed;
    std::vector<NodeId> survivors;
    std::set<NodeId> crashed_set;
    /// Every node that is down right now: the newly-crashed set plus any
    /// node still dead from an earlier, unrestarted crash. Stale undo tags
    /// and residual uncommitted log records can reference either kind.
    std::set<NodeId> dead_set;
    std::vector<Transaction*> crashed_active;
    std::vector<Transaction*> surviving_active;
    std::set<TxnId> crashed_active_ids;
    /// Surviving active transactions, whose effects recovery must preserve
    /// (never undo) — the IFA guarantee.
    std::set<TxnId> preserved_ids;
    /// Every transaction whose updates must not count as committed during
    /// reconstruction: all currently-active transactions plus transactions
    /// that appear in any stable log without a commit or abort record.
    std::set<TxnId> uncommitted_ids;
    /// Transactions begun in a stable log whose only finish record (an
    /// abort; commits always force) lives in a live node's volatile tail.
    /// Their rollback already ran, so node-granular schemes leave them
    /// alone — but RebootAll destroys that tail and must re-undo them.
    std::set<TxnId> volatile_finished;
    /// The recovery's log-analysis pass (BuildContext runs it). Later
    /// phases read their records from it plus what reached the logs since.
    /// The on-demand window keeps it until the window closes.
    std::shared_ptr<const LogAnalysis> analysis;
    RecoveryOutcome out;
    size_t rr = 0;

    /// Pages whose lost-line reinstall spliced stable-image lines into a
    /// partially *surviving* page. Such a page can pair a post-split header
    /// (surviving Page-LSN) with pre-split entry lines (reinstalled), so
    /// the structural redo guard must not trust its Page-LSN: entries a
    /// split moved away exist only in the structural page image, and
    /// skipping it would resurrect them as duplicate live keys.
    std::set<PageId> spliced_pages;

    /// Set while collecting the on-demand (instant-recovery) eager prefix:
    /// entry-level redo and the stable-log undo are deferred to lazy
    /// per-object discharge instead of applied here.
    bool lazy = false;
    /// Tag-scan guard for lazy discharge: a tag whose entry USN exceeds
    /// the cutoff was written by post-crash traffic (a restarted node's
    /// new transactions) and is not this recovery's business. UINT64_MAX
    /// (no-op) for eager passes; OnDemandRecovery pins it to the
    /// crash-time USN so the deferred tag scan stays sound.
    uint64_t tag_scan_usn_cutoff = UINT64_MAX;
    /// Tags a superseded on-demand recovery left undischarged: node -> that
    /// recovery's cutoff. The node may have restarted since, so it is no
    /// longer in dead_set, but its tags at or below the cutoff still mark
    /// updates of transactions that died with it.
    std::map<NodeId, uint64_t> owed_tags;

    /// True if a `tagged` undo tag on an entry stamped `usn` is this
    /// recovery's to resolve. A tag minted after the crash (usn above the
    /// cutoff) belongs to a restarted node's new traffic.
    bool DeadTag(NodeId tagged, uint64_t usn) const {
      if (dead_set.contains(tagged)) return usn <= tag_scan_usn_cutoff;
      auto it = owed_tags.find(tagged);
      return it != owed_tags.end() && usn <= it->second;
    }

    /// recovery_threads from the database config, clamped to >= 1: the
    /// number of simulated performer streams. 1 is the serial assignment;
    /// W > 1 partitions the work over W streams.
    uint32_t threads = 1;
    /// Stream -> pinned surviving performer (threads > 1 only).
    /// Partitioning work so that all records of one page (and all index
    /// ops of one key range) land on one stream keeps each stream's line
    /// traffic disjoint: line-lock grant chains and header-line transfers
    /// stop serialising the survivors' clocks, which is where the
    /// parallel recovery speedup comes from.
    std::vector<NodeId> streams;

    NodeId NextSurvivor() {
      NodeId n = survivors[rr % survivors.size()];
      ++rr;
      return n;
    }

    /// Performer of the stream owning `partition` (threads > 1).
    NodeId StreamPerformer(uint64_t partition) const {
      return streams[partition % streams.size()];
    }
  };

  Status BuildContext(const std::vector<NodeId>& crashed, Ctx* ctx);

  /// Runs `body` as one timed recovery phase: accumulates the global-time
  /// delta into ctx.out.phase_ns[phase] and emits a kRecoveryPhase trace
  /// span on the coordinator survivor's track. Pure accounting — it adds
  /// no Ticks, so timing semantics are identical with tracing off.
  Status TimedPhase(Ctx& ctx, RecoveryPhase phase,
                    const std::function<Status()>& body);

  // Shared passes -------------------------------------------------------

  /// Redo pass: replays update/index records (lsn > checkpoint) from every
  /// survivor's full log and every crashed node's stable log, guarded by
  /// USN comparison (idempotent, order-free).
  Status ReplayLogsWithGuard(Ctx& ctx);

  /// Collect half of the redo pass: every redo-relevant record (lsn >
  /// checkpoint) from every reachable log, sorted by global USN. Pure
  /// host-side reads of the analysis and of what reached the logs since.
  void CollectRedoRecords(const Ctx& ctx, RecordList* out);
  /// Apply half: structural records first (via NextSurvivor), then
  /// entry-level records in the list's (USN) order. With ctx.lazy set the
  /// entry-level half is skipped — OnDemandRecovery owns those records.
  Status ApplyRedoRecords(Ctx& ctx, const RecordList& records);

  /// Stable-log undo obligations, split out so the on-demand path can
  /// stash them and discharge per object.
  struct UndoWork {
    /// Non-CLR records of uncommitted dead transactions, reverse-USN order.
    RecordList to_undo;
    /// CLR maps for engagement pre-seeding (see UndoCrashedFromStableLogs).
    std::map<uint64_t, std::pair<TxnId, RecordId>> clr_slots;
    std::map<uint64_t, std::pair<TxnId, std::pair<uint32_t, uint64_t>>>
        clr_keys;
  };
  /// Collect half of the undo pass (pure host-side log reads).
  void CollectUndoWork(const Ctx& ctx, UndoWork* out);

  /// Undoes uncommitted dead work found in *any* stable log — stolen
  /// updates and pre-crash aborts whose CLRs were lost. The scan must cover
  /// every node, not just the newly-crashed ones: a steal flush can place an
  /// uncommitted update in the stable database, and if the compensation a
  /// previous recovery wrote for it is later lost with *its* performer's
  /// cache and volatile log, the stale value resurrects on reload. Each
  /// recovery therefore re-derives all pending undo from the stable logs;
  /// the USN engagement guard keeps the pass idempotent.
  Status UndoCrashedFromStableLogs(Ctx& ctx);

  /// Selective Redo's tag scan: each survivor sweeps its cache for records
  /// and index entries tagged with a dead node and undoes them using
  /// last committed values from stable store.
  Status TagScanUndo(Ctx& ctx);

  /// Lock-table recovery: clear lost LCB lines, drop crashed transactions'
  /// locks, rebuild LCBs of surviving active transactions from surviving
  /// logs (including *read* locks, which is why they are logged).
  Status RecoverLockTable(Ctx& ctx);

  Status ApplyRedoUpdate(Ctx& ctx, NodeId performer, const LogRecord& rec);
  Status ApplyRedoIndexOp(Ctx& ctx, NodeId performer, const LogRecord& rec);
  /// Re-applies an early-committed structural change from its physical
  /// page images (guarded by the Page-LSN).
  Status ApplyRedoStructural(Ctx& ctx, NodeId performer,
                             const LogRecord& rec);

  // Schemes --------------------------------------------------------------

  Status RunRedoAll(Ctx& ctx);          // redo_all.cc
  Status RunSelectiveRedo(Ctx& ctx);    // selective_redo.cc
  Status RunRebootAll(Ctx& ctx);        // baselines.cc
  Status RunAbortDependents(Ctx& ctx);  // baselines.cc

  // Partitioned recovery support -----------------------------------------

  /// Redo-pass performer: serial keeps the legacy rule (the record's own
  /// node if alive, else round-robin); W > 1 partitions heap updates by
  /// page and index ops by key so same-page records stay on one stream.
  NodeId RedoPerformer(Ctx& ctx, const LogRecord& rec);

  /// Undo-pass performer: serial round-robin, or the partition's stream.
  NodeId UndoPerformer(Ctx& ctx, const LogRecord& rec);

  Database* db_;
};

}  // namespace smdb

#endif  // SMDB_CORE_RECOVERY_MANAGER_H_
