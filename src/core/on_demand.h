#ifndef SMDB_CORE_ON_DEMAND_H_
#define SMDB_CORE_ON_DEMAND_H_

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/recovery_manager.h"
#include "txn/txn_manager.h"

namespace smdb {

class Database;
class StableStateReconstructor;

/// On-demand (instant) restart recovery, after the instant-restart idea:
/// decouple time-to-first-commit from total recovery work. At crash time the
/// IFA schemes run only an eager prefix — analysis, index reload +
/// structural redo, lock-table rebuild — and hand the deferred entry-level
/// obligations (redo records, stable-log undo work, tag discharge) to this
/// driver. The database then serves new transactions immediately:
///
///  * First touch of an unrecovered object (TxnManager's touch hooks fire
///    before any read or write) discharges that object's obligations under
///    its rebuilt lock — heap page load, its redo records in USN order, its
///    undo records in reverse-USN order, and its dead-node tag.
///  * A background sweeper (Database::PumpRecovery) discharges remaining
///    objects in global-USN order.
///  * Database::DrainRecovery applies everything still pending in the exact
///    eager phase order — when it runs before any new traffic, the
///    recovered machine state is bit-identical to the eager pass.
///
/// Redo and undo obligations are derived from stable logs and the
/// crash-time transaction table only, so a second crash during the
/// Recovering window simply re-derives them. Dead-node tags are the
/// exception: the next recovery's dead set no longer names a node that has
/// restarted since, so RecoveryManager::Run carries the superseded
/// recovery's undischarged tags forward (Supersede, Ctx::owed_tags).
class OnDemandRecovery {
 public:
  explicit OnDemandRecovery(Database* db);
  ~OnDemandRecovery();

  OnDemandRecovery(const OnDemandRecovery&) = delete;
  OnDemandRecovery& operator=(const OnDemandRecovery&) = delete;

  /// True while deferred obligations exist (the `Recovering` serving state).
  bool active() const { return active_; }

  struct Stats {
    /// Objects (records + index keys) that had deferred obligations.
    uint64_t objects_total = 0;
    uint64_t first_touch_discharges = 0;
    uint64_t sweep_discharges = 0;
    uint64_t drain_discharges = 0;
    uint64_t pages_loaded_lazily = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Objects still carrying deferred obligations.
  size_t pending_objects() const { return records_.size() + keys_.size(); }

  /// Ends the Recovering window because a new recovery supersedes it (the
  /// new run re-derives the redo and undo obligations from stable storage)
  /// and drops all pending state. Returns the dead-node tags still owed —
  /// node -> the USN cutoff of the recovery that owed them — when the tag
  /// work was not finished; RecoveryManager::Run hands them to the new
  /// recovery's context. Called at the start of every Run.
  std::map<NodeId, uint64_t> Supersede();

  /// Takes ownership of a crash's deferred obligations and enters the
  /// Recovering state. `entry_redo` is the full collected redo list in
  /// global-USN order (structural records were applied eagerly and are
  /// skipped here); `undo` is the stable-log undo work. Both lists, and
  /// `ctx`'s analysis, are kept until the window closes.
  Status Activate(const RecoveryManager::Ctx& ctx, RecordList entry_redo,
                  RecoveryManager::UndoWork undo);

  /// First-touch hooks, called by TxnManager before any access to the
  /// object. No-ops when inactive or already discharged.
  Status TouchRecord(NodeId performer, RecordId rid);
  Status TouchKey(NodeId performer, uint32_t tree_id, uint64_t key);

  /// Background sweeper: discharges up to `max_objects` pending objects in
  /// global-USN order, each on the next survivor in round-robin order;
  /// finishes the residual work (unreferenced page loads, the deferred tag
  /// scan) once no objects remain. Returns the number of objects
  /// discharged.
  Result<int> SweepStep(int max_objects);

  /// Applies every remaining obligation in the eager phase order (heap
  /// loads, redo in USN order, undo in reverse-USN order, tag scan), then
  /// leaves the Recovering state. Run before any post-crash traffic this
  /// reproduces the eager pass bit for bit.
  Status DrainAll();

 private:
  using KeyId = std::pair<uint32_t, uint64_t>;

  struct Pending {
    std::vector<size_t> redo;  // indices into redo_, USN ascending
    std::vector<size_t> undo;  // indices into undo_.to_undo, USN descending
  };

  /// How a discharge was driven, for stats attribution.
  enum class Via { kTouch, kSweep, kDrain };

  Status EnsureHeapPage(NodeId performer, PageId page);
  Status DischargeRecord(NodeId performer, RecordId rid, Via via);
  Status DischargeKey(NodeId performer, KeyId key, Via via);
  /// Dead-node tag handling for one object (Selective Redo only): classify
  /// via the stable-log owner map and either clear the stale tag or install
  /// the last committed state.
  Status DischargeRecordTag(NodeId performer, RecordId rid);
  Status DischargeKeyTag(NodeId performer, KeyId key);
  bool StaleCommittedTag(uint64_t usn, NodeId tagged) const;
  void CountDischarge(Via via);
  void Reset();
  /// Loads still-pending pages and runs the deferred tag scan, then leaves
  /// the Recovering state.
  Status FinishResidual();
  void Deactivate();

  Database* db_;
  bool active_ = false;
  /// Tag discharge applies (undo tagging on and scheme is Selective Redo).
  bool tagged_ = false;
  RestartKind restart_ = RestartKind::kSelectiveRedo;
  /// Reentrancy guard: a discharge must never recurse into the touch hooks.
  bool in_discharge_ = false;

  /// Crash-time recovery context (dead set, uncommitted ids, survivors,
  /// performer state). `lazy` and `tag_scan_usn_cutoff` are pinned here.
  RecoveryManager::Ctx ctx_;

  RecordList redo_;  // global-USN order, entry-level only
  std::vector<bool> redo_done_;
  RecoveryManager::UndoWork undo_;
  std::vector<bool> undo_done_;

  std::map<RecordId, Pending> records_;
  std::map<KeyId, Pending> keys_;
  /// Sweep order: objects by their smallest pending-obligation USN.
  std::vector<std::pair<uint64_t, std::pair<bool, size_t>>> sweep_order_;
  std::vector<RecordId> sweep_rids_;
  std::vector<KeyId> sweep_keys_;
  size_t sweep_pos_ = 0;

  /// Heap pages not yet (re)loaded. Index pages are always loaded eagerly.
  std::set<PageId> pending_pages_;
  std::set<RecordId> discharged_rids_;
  std::set<KeyId> discharged_keys_;
  std::set<RecordId> seeded_rids_;
  std::set<KeyId> seeded_keys_;
  /// Shared undo-engagement state across per-object discharges (one map
  /// spans the whole undo pass, exactly like the eager pass).
  TxnManager::UndoEngagement eng_;

  /// Tag-classification support (Selective Redo): USN -> owning txn from
  /// every stable log, plus the committed-value reconstructor.
  std::map<uint64_t, TxnId> usn_owner_;
  std::unique_ptr<StableStateReconstructor> reconstructor_;

  Stats stats_;
};

}  // namespace smdb

#endif  // SMDB_CORE_ON_DEMAND_H_
