#include "core/database.h"
#include "core/on_demand.h"
#include "core/recovery_manager.h"

namespace smdb {

// Redo All (section 4.1.2):
//   1. On each surviving node, all cached database records are discarded
//      from volatile memory (this also implicitly undoes any uncommitted
//      updates that migrated to surviving caches — including the crashed
//      transactions' updates, whose volatile undo records are gone).
//   2. The cache of database objects is reconstructed from the stable
//      database plus the redo logs: every update not reflected in the
//      stable database is redone (committed *and* surviving-active work —
//      the no-force policy makes redo of committed transactions necessary,
//      while the steal policy means some undo of crashed transactions from
//      stable logs may still be required).
//
// With on-demand recovery, only the eager prefix runs here: the discard,
// the index reload + structural redo (every later descent needs routing
// intact), and the lock-table rebuild. Heap reload and entry-level
// redo/undo are handed to OnDemandRecovery for per-object discharge.
Status RecoveryManager::RunRedoAll(Ctx& ctx) {
  Machine& m = db_->machine();
  OnDemandRecovery* od = db_->on_demand();
  // Lazy only when Redo All is the *configured* protocol: baselines (and
  // the whole-machine reboot path) delegate into the schemes and must stay
  // eager — their contracts assume a fully recovered state on return.
  const bool lazy =
      od != nullptr && db_->config().recovery.restart == RestartKind::kRedoAll;

  // Step 1: discard every database line (heap pages and index pages) from
  // all caches and volatile memory.
  auto discard_pages = [&](const std::vector<PageId>& pages) -> Status {
    for (PageId p : pages) {
      SMDB_ASSIGN_OR_RETURN(Addr base, db_->buffers().BaseOf(p));
      m.DiscardRange(base, db_->buffers().page_size());
    }
    return Status::Ok();
  };
  SMDB_RETURN_IF_ERROR(discard_pages(db_->records().pages()));
  SMDB_RETURN_IF_ERROR(discard_pages(db_->index().pages()));

  // Step 2a: reload the stable images. On-demand defers the heap pages —
  // index pages always reload now, since structural redo and every
  // subsequent descent depend on the tree's routing.
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kReload, [&] {
    auto reload_pages = [&](const std::vector<PageId>& pages) -> Status {
      for (PageId p : pages) {
        SMDB_RETURN_IF_ERROR(
            db_->buffers().ReinstallPage(ctx.NextSurvivor(), p));
        ++ctx.out.pages_reloaded;
      }
      return Status::Ok();
    };
    if (!lazy) SMDB_RETURN_IF_ERROR(reload_pages(db_->records().pages()));
    return reload_pages(db_->index().pages());
  }));

  if (!lazy) {
    // Step 2b: redo from every reachable log.
    SMDB_RETURN_IF_ERROR(TimedPhase(
        ctx, RecoveryPhase::kRedo, [&] { return ReplayLogsWithGuard(ctx); }));

    // Undo uncommitted work of crashed transactions that reached stable
    // store (steal). Purely volatile crashed updates vanished with step 1.
    SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kUndo, [&] {
      return UndoCrashedFromStableLogs(ctx);
    }));

    // Lock space recovery (section 4.2.2).
    return TimedPhase(ctx, RecoveryPhase::kLockRebuild,
                      [&] { return RecoverLockTable(ctx); });
  }

  // On-demand eager prefix: structural redo now, entry-level redo and undo
  // stashed for lazy discharge.
  ctx.lazy = true;
  RecordList records;
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kRedo, [&] {
    CollectRedoRecords(ctx, &records);
    return ApplyRedoRecords(ctx, records);  // structural only (ctx.lazy)
  }));
  UndoWork undo;
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kUndo, [&] {
    CollectUndoWork(ctx, &undo);
    return Status::Ok();
  }));
  // Lock rebuild runs in the prefix — new transactions need a sound lock
  // table before the first lazy discharge. Moving it ahead of undo is
  // safe: undo never touches LCBs, the drop set comes from analysis, and
  // the fold covers only surviving actives' lock-op records.
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kLockRebuild,
                                  [&] { return RecoverLockTable(ctx); }));
  return od->Activate(ctx, std::move(records), std::move(undo));
}

}  // namespace smdb
