#include "core/recovery_manager.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "core/database.h"
#include "core/on_demand.h"
#include "core/stable_state.h"
#include "db/page_layout.h"
#include "obs/trace.h"

namespace smdb {

const char* RecoveryPhaseName(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kLogAnalysis: return "log_analysis";
    case RecoveryPhase::kReboot: return "reboot";
    case RecoveryPhase::kReload: return "reload";
    case RecoveryPhase::kRedo: return "redo";
    case RecoveryPhase::kUndo: return "undo";
    case RecoveryPhase::kTagScan: return "tag_scan";
    case RecoveryPhase::kLockRebuild: return "lock_rebuild";
  }
  return "unknown";
}

std::string RecoveryOutcome::ToString() const {
  std::ostringstream os;
  os << "crashed=[";
  for (size_t i = 0; i < crashed_nodes.size(); ++i) {
    if (i > 0) os << ",";
    os << crashed_nodes[i];
  }
  os << "] annulled=" << annulled.size() << " preserved=" << preserved.size()
     << " forced_aborts=" << forced_aborts.size()
     << " redo_applied=" << redo_applied << " redo_skipped=" << redo_skipped
     << " undo_applied=" << undo_applied
     << " pages_reloaded=" << pages_reloaded
     << " lines_reinstalled=" << lines_reinstalled
     << " lcb_lines_cleared=" << lcb_lines_cleared
     << " lcbs_rebuilt=" << lcbs_rebuilt << " locks_dropped=" << locks_dropped
     << " tags_scanned=" << tags_scanned << " tag_undos=" << tag_undos
     << " recovery_time_ns=" << recovery_time_ns;
  for (size_t i = 0; i < kNumRecoveryPhases; ++i) {
    if (phase_ns[i] == 0) continue;
    os << " " << RecoveryPhaseName(static_cast<RecoveryPhase>(i))
       << "_ns=" << phase_ns[i];
  }
  os << (whole_machine_restart ? " WHOLE-MACHINE-RESTART" : "");
  return os.str();
}

RecoveryManager::RecoveryManager(Database* db) : db_(db) {}

namespace {

/// splitmix64 finaliser: spreads index keys across worker streams.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t KeyPartition(const IndexOpPayload& op) {
  return Mix64(op.key ^ (uint64_t{op.tree_id} << 32));
}

/// Pins worker stream i to survivors[i % survivors]: with W <= survivors
/// each stream owns a distinct node clock; with W > survivors the extra
/// streams share performers (the simulator has no more parallelism to
/// give, but determinism is preserved).
void PinStreams(std::vector<NodeId>* streams, uint32_t threads,
                const std::vector<NodeId>& survivors) {
  streams->clear();
  for (uint32_t i = 0; i < threads; ++i) {
    streams->push_back(survivors[i % survivors.size()]);
  }
}

bool IsRedoRecord(const LogRecord& rec) {
  return rec.type == LogRecordType::kUpdate ||
         rec.type == LogRecordType::kIndexOp ||
         rec.type == LogRecordType::kStructural;
}

/// A non-CLR update or index op: the records the undo pass reverses.
bool IsUndoable(const LogRecord& rec) {
  return (rec.type == LogRecordType::kUpdate && !rec.update().is_clr) ||
         (rec.type == LogRecordType::kIndexOp && !rec.index_op().is_clr);
}

}  // namespace

NodeId RecoveryManager::RedoPerformer(Ctx& ctx, const LogRecord& rec) {
  if (ctx.threads <= 1) {
    // Legacy serial rule: a surviving node replays its own records.
    return db_->machine().NodeAlive(rec.node) ? rec.node : ctx.NextSurvivor();
  }
  if (rec.type == LogRecordType::kUpdate) {
    return ctx.StreamPerformer(rec.update().rid.page);
  }
  return ctx.StreamPerformer(KeyPartition(rec.index_op()));
}

NodeId RecoveryManager::UndoPerformer(Ctx& ctx, const LogRecord& rec) {
  if (ctx.threads <= 1) return ctx.NextSurvivor();
  if (rec.type == LogRecordType::kUpdate) {
    return ctx.StreamPerformer(rec.update().rid.page);
  }
  return ctx.StreamPerformer(KeyPartition(rec.index_op()));
}

Status RecoveryManager::BuildContext(const std::vector<NodeId>& crashed,
                                     Ctx* ctx) {
  ctx->crashed = crashed;
  ctx->crashed_set.insert(crashed.begin(), crashed.end());
  for (NodeId n = 0; n < db_->machine().num_nodes(); ++n) {
    if (db_->machine().NodeAlive(n)) {
      ctx->survivors.push_back(n);
    } else {
      // Includes nodes still down from earlier crashes, not just the new
      // ones: their stale tags and residual log records are equally live.
      ctx->dead_set.insert(n);
    }
  }
  // survivors may be empty (every node failed); Run falls back to a
  // whole-machine restart in that case.
  // In a real system the crashed nodes' active transactions are identified
  // from the (recovered) lock table and the stable logs; the TxnManager's
  // transaction table stands in for that analysis here.
  for (NodeId c : ctx->crashed) {
    for (Transaction* t : db_->txn().ActiveOn(c)) {
      ctx->crashed_active.push_back(t);
      ctx->crashed_active_ids.insert(t->id);
      ctx->out.annulled.push_back(t->id);
    }
  }
  for (Transaction* t : db_->txn().ActiveAll()) {
    ctx->uncommitted_ids.insert(t->id);
    if (!ctx->crashed_set.contains(t->node())) {
      ctx->surviving_active.push_back(t);
      ctx->preserved_ids.insert(t->id);
      ctx->out.preserved.push_back(t->id);
    }
  }
  // The log-analysis pass: one walk over each node's log. It keeps the
  // surviving actives' lock-op records for the lock-table rebuild.
  ctx->analysis = std::make_shared<const LogAnalysis>(
      db_->log(), db_->machine(), ctx->preserved_ids);
  // Transactions visible in any stable log without a commit *or abort*
  // record are uncommitted too (e.g. an abort whose CLRs died with the
  // volatile tail). A stable Abort record implies the CLRs are stable as
  // well (log forces move the whole tail), so such transactions are fully
  // handled by the repeating-history redo pass. Every node's stable log is
  // analysed — not just the newly-crashed ones' — because a steal flush can
  // strand an uncommitted update in the stable database long after its
  // transaction's node crashed (or crashed and restarted), and the
  // compensations a previous recovery wrote for it are themselves volatile
  // until flushed or forced. Each log is judged on its own: a transaction
  // with records in several logs counts as uncommitted if any one of them
  // has begun it without finishing it.
  //
  // A live node's volatile tail is intact and authoritative: an abort
  // record there means the rollback already ran on this node's own log.
  // (A volatile-only *commit* is a pending group commit — unacknowledged by
  // construction, and excluding it from the uncommitted set here is right:
  // its node is alive, nothing needs redoing or undoing, and it completes
  // when its batch is forced after recovery.) Without this, a
  // normally-aborted transaction whose pre-abort updates were forced stable
  // would be re-flagged and re-undone on every recovery. RebootAll destroys
  // these tails, so the exclusions are recorded in volatile_finished and
  // revoked there.
  for (const LogAnalysis::TxnFacts& f : ctx->analysis->txns()) {
    if (!f.begun || f.finished) continue;
    if (f.finished_in_tail) {
      ctx->volatile_finished.insert(f.txn);
    } else {
      ctx->uncommitted_ids.insert(f.txn);
    }
  }
  return Status::Ok();
}

Status RecoveryManager::TimedPhase(Ctx& ctx, RecoveryPhase phase,
                                   const std::function<Status()>& body) {
  Machine& m = db_->machine();
  const SimTime t0 = m.GlobalTime();
  Status s = body();
  const SimTime dt = m.GlobalTime() - t0;
  ctx.out.phase_ns[static_cast<size_t>(phase)] += dt;
  if (!ctx.survivors.empty()) {
    SMDB_TRACE(db_->tracer_ptr(),
               {.kind = TraceEventKind::kRecoveryPhase,
                .node = ctx.survivors.front(),
                .ts = t0,
                .dur = dt,
                .label = RecoveryPhaseName(phase)});
  }
  return s;
}

Status RecoveryManager::ApplyRedoUpdate(Ctx& ctx, NodeId performer,
                                        const LogRecord& rec) {
  const UpdatePayload& u = rec.update();
  RecordStore& rs = db_->records();
  SMDB_ASSIGN_OR_RETURN(SlotImage cur, rs.ReadSlot(performer, u.rid));
  if (cur.usn >= u.usn) {
    ++ctx.out.redo_skipped;
    return Status::Ok();
  }
  ++ctx.out.redo_applied;
  uint16_t tag = kTagNone;
  if (!u.is_clr && db_->config().recovery.undo_tagging() &&
      ctx.uncommitted_ids.contains(rec.txn)) {
    tag = TagForNode(TxnNode(rec.txn));
  }
  SlotImage img;
  img.usn = u.usn;
  img.tag = tag;
  img.data = u.after;
  Machine& m = db_->machine();
  LineAddr header_line = rs.HeaderLine(u.rid.page);
  LineAddr record_line = rs.SlotLine(u.rid);
  SMDB_RETURN_IF_ERROR(m.GetLine(performer, header_line));
  Status st = m.GetLine(performer, record_line);
  if (!st.ok()) {
    m.ReleaseLine(performer, header_line);
    return st;
  }
  Status s = rs.WriteSlot(performer, u.rid, img);
  if (s.ok()) s = rs.WritePageLsn(performer, u.rid.page, u.usn);
  m.ReleaseLine(performer, record_line);
  m.ReleaseLine(performer, header_line);
  SMDB_RETURN_IF_ERROR(s);
  // The redone update's log record lives on rec.node; if that node was not
  // lost in the crash, the WAL gate must still cover it before any future
  // flush. Keyed on the crash-time dead set, not current liveness: lazy
  // discharge can run after the node restarted, and a restart does not
  // resurrect the lost volatile tail.
  if (!ctx.dead_set.contains(rec.node)) {
    db_->wal_table().NoteUpdate(u.rid.page, rec.node, rec.lsn);
  }
  db_->buffers().MarkDirty(u.rid.page);
  return Status::Ok();
}

Status RecoveryManager::ApplyRedoIndexOp(Ctx& ctx, NodeId performer,
                                         const LogRecord& rec) {
  const IndexOpPayload& op = rec.index_op();
  uint16_t tag = kTagNone;
  if (!op.is_clr && db_->config().recovery.undo_tagging() &&
      ctx.uncommitted_ids.contains(rec.txn)) {
    tag = TagForNode(TxnNode(rec.txn));
  }
  // RedoIndexOp is internally USN-guarded; count its effect by probing.
  SMDB_ASSIGN_OR_RETURN(auto before, db_->index().GetEntry(performer, op.key));
  bool would_apply = !before.has_value() || before->usn < op.usn;
  SMDB_RETURN_IF_ERROR(db_->index().RedoIndexOp(performer, op, tag));
  if (would_apply) {
    ++ctx.out.redo_applied;
  } else {
    ++ctx.out.redo_skipped;
  }
  return Status::Ok();
}

Status RecoveryManager::ApplyRedoStructural(Ctx& ctx, NodeId performer,
                                            const LogRecord& rec) {
  const StructuralPayload& sp = rec.structural();
  (void)performer;
  for (const auto& [page, image] : sp.page_images) {
    auto base = db_->buffers().BaseOf(page);
    if (!base.ok()) return base.status();
    uint64_t cur_lsn = 0;
    Status s = db_->machine().SnoopRead(
        *base + PageLayout::kPageLsnOffset, &cur_lsn, 8);
    // A spliced page's surviving Page-LSN vouches only for the lines that
    // survived — a reinstalled pre-split entry line can hide behind a
    // post-split header. Install the image unconditionally; the sorted
    // entry-level replay re-applies anything newer.
    if (s.ok() && cur_lsn >= sp.usn && !ctx.spliced_pages.contains(page)) {
      ++ctx.out.redo_skipped;
      continue;  // this or a later state is already in place
    }
    // Header lost or pre-change state: install the post-change image.
    // Sorted replay re-applies any higher-USN entry updates afterwards.
    db_->machine().InstallToMemory(*base, image.data(), image.size());
    db_->buffers().MarkDirty(page);
    ++ctx.out.redo_applied;
  }
  return Status::Ok();
}

Status RecoveryManager::ReplayLogsWithGuard(Ctx& ctx) {
  RecordList records;
  CollectRedoRecords(ctx, &records);
  return ApplyRedoRecords(ctx, records);
}

void RecoveryManager::CollectRedoRecords(const Ctx& ctx, RecordList* out) {
  // Gather the redo-relevant records from every reachable log, then apply
  // them in global USN order. Record updates are order-free under the USN
  // guard (each carries the full after-image), but logical index operations
  // are not: a delete replayed before the insert it follows would be
  // dropped. Strict 2PL makes USN order consistent with the original
  // execution order on every object, so a single sorted pass repeats
  // history exactly. The stable records come from the analysis by
  // reference; only the live tails are copied.
  const LogAnalysis& analysis = *ctx.analysis;
  for (NodeId n = 0; n < db_->machine().num_nodes(); ++n) {
    const Lsn start = db_->log().checkpoint_lsn(n);
    auto replayed = [start](const LogRecord& rec) {
      return start == kInvalidLsn || rec.lsn > start;
    };
    for (const LogAnalysis::UsnRef& ref : analysis.refs(n)) {
      if (replayed(*ref.rec)) out->Add(*ref.rec);
    }
    analysis.ForEachSince(n, [&](const LogRecord& rec, bool stable) {
      if (!IsRedoRecord(rec) || !replayed(rec)) return;
      if (stable) {
        out->Add(rec);
      } else {
        out->AddCopy(rec);
      }
    });
  }
  // USNs are globally unique, so this order is total and deterministic.
  out->SortByUsn(/*descending=*/false);
}

Status RecoveryManager::ApplyRedoRecords(Ctx& ctx, const RecordList& records) {
  // Structural changes first: index redo descends the tree, so the tree's
  // routing structure must be re-established before any entry-level record
  // is replayed (a reloaded pre-split root routes into garbage). The
  // Page-LSN and entry-USN guards make the two-phase order equivalent to a
  // strict USN-ordered replay.
  for (const RecordList::Entry& e : records.entries()) {
    if (e.rec->type != LogRecordType::kStructural) continue;
    SMDB_RETURN_IF_ERROR(ApplyRedoStructural(ctx, ctx.NextSurvivor(), *e.rec));
  }
  // On-demand prefix: entry-level records are discharged lazily (first
  // touch or sweep), in this same global-USN order for whatever remains at
  // drain time.
  if (ctx.lazy) return Status::Ok();
  // Entry-level replay stays in global USN order regardless of thread
  // count (the partitioned streams change *who* performs each record, not
  // *when*): same-page records replay in USN order by construction, and the
  // applied/skipped decisions — which depend only on coherent page state,
  // not on the performer — are identical across worker counts.
  for (const RecordList::Entry& e : records.entries()) {
    const LogRecord& rec = *e.rec;
    if (rec.type == LogRecordType::kStructural) continue;
    NodeId performer = RedoPerformer(ctx, rec);
    if (rec.type == LogRecordType::kUpdate) {
      SMDB_RETURN_IF_ERROR(ApplyRedoUpdate(ctx, performer, rec));
    } else {
      SMDB_RETURN_IF_ERROR(ApplyRedoIndexOp(ctx, performer, rec));
    }
  }
  return Status::Ok();
}

Status RecoveryManager::UndoCrashedFromStableLogs(Ctx& ctx) {
  UndoWork work;
  CollectUndoWork(ctx, &work);
  const RecordList& to_undo = work.to_undo;
  const auto& clr_slots = work.clr_slots;
  const auto& clr_keys = work.clr_keys;

  // A previous recovery's compensation chain for one of these transactions
  // can be split across several performers' logs (the undo pass round-robins
  // survivors), so a later crash can lose its tail while the redo pass
  // replays its surviving prefix. That leaves the object at an intermediate
  // CLR state whose USN matches no original record — which the engagement
  // guard would misread as "legitimately overwritten" and strand the object
  // mid-rollback. Pre-seed the engagement map: if an object's current USN
  // was produced by a CLR of a transaction being undone here, resume that
  // transaction's chain. Re-undoing an already-compensated record is value-
  // safe — the chain re-converges to the oldest before image.
  TxnManager::UndoEngagement eng;
  std::set<RecordId> seeded_rids;
  std::set<std::pair<uint32_t, uint64_t>> seeded_keys;
  for (const RecordList::Entry& e : to_undo.entries()) {
    const LogRecord& rec = *e.rec;
    if (rec.type == LogRecordType::kUpdate) {
      RecordId rid = rec.update().rid;
      if (!seeded_rids.insert(rid).second) continue;
      SMDB_ASSIGN_OR_RETURN(
          SlotImage cur, db_->records().ReadSlot(UndoPerformer(ctx, rec), rid));
      auto it = clr_slots.find(cur.usn);
      if (it != clr_slots.end() && it->second.second == rid) {
        eng.records[rid] = it->second.first;
      }
    } else {
      const IndexOpPayload& op = rec.index_op();
      std::pair<uint32_t, uint64_t> key{op.tree_id, op.key};
      if (!seeded_keys.insert(key).second) continue;
      SMDB_ASSIGN_OR_RETURN(
          auto entry, db_->index().GetEntry(UndoPerformer(ctx, rec), op.key));
      if (!entry.has_value()) continue;
      auto it = clr_keys.find(entry->usn);
      if (it != clr_keys.end() && it->second.second == key) {
        eng.keys[key] = it->second.first;
      }
    }
  }
  // The apply loop keeps the exact reverse-USN global order for every
  // thread count — ApplyUndo* allocates a fresh USN per CLR, so the
  // allocation order (and therefore all recovered page bytes) must be
  // thread-count-invariant. Partitioning changes only the performer, which
  // only affects performance state (clocks, cache residency, CLR log
  // placement).
  for (const RecordList::Entry& e : to_undo.entries()) {
    const LogRecord& rec = *e.rec;
    NodeId performer = UndoPerformer(ctx, rec);
    if (rec.type == LogRecordType::kUpdate) {
      SMDB_RETURN_IF_ERROR(db_->txn().ApplyUndoUpdate(performer, rec, &eng));
    } else {
      SMDB_RETURN_IF_ERROR(db_->txn().ApplyUndoIndexOp(performer, rec, &eng));
    }
    ++ctx.out.undo_applied;
  }
  return Status::Ok();
}

void RecoveryManager::CollectUndoWork(const Ctx& ctx, UndoWork* out) {
  // Collect every non-CLR update/index record of uncommitted dead
  // transactions from every stable log, to undo in reverse USN order.
  // Surviving active transactions are excluded — their (stolen) updates are
  // exactly what IFA preserves. The all-node scan re-derives undo work left
  // over from earlier crashes whose compensations were since lost; the
  // engagement guard in ApplyUndo* turns already-compensated records into
  // no-ops, so re-undoing is safe. USNs are globally unique, so the
  // reverse-USN sort below gives one deterministic undo schedule.
  const LogAnalysis& analysis = *ctx.analysis;
  const auto& facts = analysis.txns();
  auto undone = [&](TxnId t) {
    return ctx.uncommitted_ids.contains(t) && !ctx.preserved_ids.contains(t);
  };
  // Per analysed (log, transaction) pair: does the undo pass take it?
  std::vector<bool> mark(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) mark[i] = undone(facts[i].txn);
  RecordList& to_undo = out->to_undo;
  for (NodeId n = 0; n < db_->machine().num_nodes(); ++n) {
    for (const LogAnalysis::UsnRef& ref : analysis.refs(n)) {
      if (ref.facts != LogAnalysis::kNoTxn && mark[ref.facts] &&
          IsUndoable(*ref.rec)) {
        to_undo.Add(*ref.rec);
      }
    }
    analysis.ForEachSince(n, [&](const LogRecord& rec, bool stable) {
      if (stable && IsUndoable(rec) && undone(rec.txn)) to_undo.Add(rec);
    });
  }
  to_undo.SortByUsn(/*descending=*/true);

  // A previous recovery's compensation chain for one of these transactions
  // can be split across several performers' logs (the undo pass round-robins
  // survivors), so a later crash can lose its tail while the redo pass
  // replays its surviving prefix. That leaves the object at an intermediate
  // CLR state whose USN matches no original record — which the engagement
  // guard would misread as "legitimately overwritten" and strand the object
  // mid-rollback. Pre-seed the engagement map: if an object's current USN
  // was produced by a CLR of a transaction being undone here, resume that
  // transaction's chain. Re-undoing an already-compensated record is value-
  // safe — the chain re-converges to the oldest before image.
  std::set<TxnId> undo_txns;
  for (const RecordList::Entry& e : to_undo.entries()) {
    undo_txns.insert(e.rec->txn);
  }
  for (size_t i = 0; i < facts.size(); ++i) {
    mark[i] = undo_txns.contains(facts[i].txn);
  }
  auto note_clr = [&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kUpdate && rec.update().is_clr) {
      out->clr_slots[rec.update().usn] = {rec.txn, rec.update().rid};
    } else if (rec.type == LogRecordType::kIndexOp &&
               rec.index_op().is_clr) {
      const IndexOpPayload& op = rec.index_op();
      out->clr_keys[op.usn] = {rec.txn, {op.tree_id, op.key}};
    }
  };
  for (NodeId n = 0; n < db_->machine().num_nodes(); ++n) {
    for (const LogAnalysis::UsnRef& ref : analysis.refs(n)) {
      if (ref.facts != LogAnalysis::kNoTxn && mark[ref.facts]) {
        note_clr(*ref.rec);
      }
    }
    analysis.ForEachSince(n, [&](const LogRecord& rec, bool) {
      if (undo_txns.contains(rec.txn)) note_clr(rec);
    });
  }
}

Status RecoveryManager::TagScanUndo(Ctx& ctx) {
  Machine& m = db_->machine();
  RecordStore& rs = db_->records();
  BTree& index = db_->index();

  // A deferred (on-demand) scan runs on the recovery's analysis too: the
  // window keeps it, and ForEachSince covers what was logged since.
  const LogAnalysis& analysis = *ctx.analysis;
  StableStateReconstructor reconstructor(&m, &db_->buffers(), &rs,
                                         ctx.uncommitted_ids, analysis);

  // USN -> owning txn over every stable log, to distinguish "tag stale
  // because the commit beat the tag-clear" from "uncommitted": the
  // analysed records, plus those forced since, taken now (the scan below
  // can fire forces of its own).
  std::unordered_map<uint64_t, TxnId> forced_owner;
  for (NodeId c = 0; c < m.num_nodes(); ++c) {
    analysis.ForEachSince(c, [&](const LogRecord& rec, bool stable) {
      if (stable && (rec.type == LogRecordType::kUpdate ||
                     rec.type == LogRecordType::kIndexOp)) {
        forced_owner[RecordUsn(rec)] = rec.txn;
      }
    });
  }
  auto usn_owner = [&](uint64_t usn) -> std::optional<TxnId> {
    auto it = forced_owner.find(usn);
    if (it != forced_owner.end()) return it->second;
    return analysis.OwnerOf(usn);
  };
  auto stale_committed_tag = [&](uint64_t usn, NodeId tagged) {
    if (std::optional<TxnId> owner = usn_owner(usn)) {
      return !ctx.uncommitted_ids.contains(*owner);
    }
    // Not in any stable log. A tagged USN was appended to the tagged node's
    // own log, which is USN-monotone in LSN order: at or below that node's
    // truncation high-water mark, the record was reclaimed by a checkpoint
    // (only finished transactions' records are; the commit beat the
    // tag-clear). Above the mark, it only ever existed in the node's lost
    // volatile tail — uncommitted.
    return usn <= db_->log().max_truncated_usn(tagged);
  };

  // The scan is split into a collect phase and an apply phase. Collection
  // walks each survivor's cache in node order (survivor caches can share
  // replicated lines, so the same record may be found by several scanners —
  // first finder wins, like the legacy interleaved scan). Application then
  // runs in a *canonical* order — heap undos by record id, index undos by
  // (leaf, slot), stale-tag clears last — independent of which survivor
  // found what. That matters because every tag undo allocates a fresh
  // global USN: a canonical apply order makes the USN assignment (and
  // therefore all recovered page bytes) identical for every worker count,
  // which is what the differential oracle checks.
  struct HeapCand {
    RecordId rid;
    uint64_t usn = 0;  // observed at collect time, drives classification
    NodeId found_on = 0;
    bool stale_clear = false;
  };
  struct IdxCand {
    BTree::EntryRef ref;
    NodeId found_on = 0;
    bool stale_clear = false;
  };
  std::vector<HeapCand> heap_cands;
  std::vector<IdxCand> idx_cands;
  std::set<RecordId> seen_rids;
  std::set<std::pair<PageId, uint16_t>> seen_slots;

  // Every live cache, not just the crash-time survivors': a deferred
  // (on-demand) scan runs after dead nodes may have restarted, and a
  // restarted node's new transactions can pull a dead-tagged line into its
  // cache. Eager scans run before any restart, when the two sets agree.
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    if (!m.NodeAlive(s)) continue;
    // Snapshot the resident lines first (collection itself reads only).
    std::vector<LineAddr> lines;
    m.cache(s).ForEachLine(
        [&](LineAddr line, const Cache::Entry&) { lines.push_back(line); });
    for (LineAddr line : lines) {
      ++ctx.out.tags_scanned;
      // --- Heap records ---
      for (RecordId rid : rs.SlotsInLine(line)) {
        SMDB_ASSIGN_OR_RETURN(SlotImage img, rs.ReadSlot(s, rid));
        if (img.tag == kTagNone) continue;
        NodeId tagged = NodeOfTag(img.tag);
        if (!ctx.DeadTag(tagged, img.usn)) continue;
        if (!seen_rids.insert(rid).second) continue;
        HeapCand c;
        c.rid = rid;
        c.usn = img.usn;
        c.found_on = s;
        c.stale_clear = stale_committed_tag(img.usn, tagged);
        heap_cands.push_back(c);
      }
      // --- Index entries ---
      for (const auto& ref : index.EntriesInLine(line)) {
        if (ref.entry.tag == kTagNone) continue;
        NodeId tagged = NodeOfTag(ref.entry.tag);
        if (!ctx.DeadTag(tagged, ref.entry.usn)) continue;
        if (!seen_slots.insert({ref.leaf, ref.slot}).second) continue;
        IdxCand c;
        c.ref = ref;
        c.found_on = s;
        c.stale_clear = stale_committed_tag(ref.entry.usn, tagged);
        idx_cands.push_back(c);
      }
    }
  }

  std::sort(heap_cands.begin(), heap_cands.end(),
            [](const HeapCand& a, const HeapCand& b) { return a.rid < b.rid; });
  std::sort(idx_cands.begin(), idx_cands.end(),
            [](const IdxCand& a, const IdxCand& b) {
              return std::pair{a.ref.leaf, a.ref.slot} <
                     std::pair{b.ref.leaf, b.ref.slot};
            });

  // Serial keeps the finding survivor as performer (the legacy
  // assignment); W > 1 routes each undo to its partition's stream.
  auto heap_performer = [&](const HeapCand& c) {
    return ctx.threads <= 1 ? c.found_on : ctx.StreamPerformer(c.rid.page);
  };
  auto idx_performer = [&](const IdxCand& c) {
    return ctx.threads <= 1 ? c.found_on
                            : ctx.StreamPerformer(Mix64(c.ref.entry.key));
  };

  // Owning transaction of a tagged USN, for the tag-decision trace (and
  // forensics); kInvalidTxn when the record only ever lived in a lost tail.
  [[maybe_unused]] auto owner_of = [&](uint64_t usn) {
    return usn_owner(usn).value_or(kInvalidTxn);
  };
  for (const HeapCand& c : heap_cands) {
    NodeId p = heap_performer(c);
    [[maybe_unused]] const uint64_t rid_enc =
        (static_cast<uint64_t>(c.rid.page) << 16) | c.rid.slot;
    if (c.stale_clear) {
      // Commit happened; only the tag-clear was lost. Clear it now.
      LineAddr line = rs.SlotLine(c.rid);
      SMDB_RETURN_IF_ERROR(m.GetLine(p, line));
      Status st = rs.WriteTag(p, c.rid, kTagNone);
      m.ReleaseLine(p, line);
      SMDB_RETURN_IF_ERROR(st);
      SMDB_TRACE(db_->tracer_ptr(),
                 {.kind = TraceEventKind::kTagDecision,
                  .node = p,
                  .txn = owner_of(c.usn),
                  .ts = m.NodeClock(p),
                  .a = rid_enc,
                  .b = c.usn,
                  .label = "heap-stale"});
      continue;
    }
    // Undo: install the last committed value (from stable store).
    SMDB_ASSIGN_OR_RETURN(SlotImage committed,
                          reconstructor.CommittedValue(p, c.rid));
    LineAddr header_line = rs.HeaderLine(c.rid.page);
    LineAddr record_line = rs.SlotLine(c.rid);
    SMDB_RETURN_IF_ERROR(m.GetLine(p, header_line));
    Status st = m.GetLine(p, record_line);
    if (!st.ok()) {
      m.ReleaseLine(p, header_line);
      return st;
    }
    uint64_t usn = db_->usn().Next();
    SlotImage img2;
    img2.usn = usn;
    img2.tag = kTagNone;
    img2.data = committed.data;
    Status w = rs.WriteSlot(p, c.rid, img2);
    if (w.ok()) w = rs.WritePageLsn(p, c.rid.page, usn);
    m.ReleaseLine(p, record_line);
    m.ReleaseLine(p, header_line);
    SMDB_RETURN_IF_ERROR(w);
    db_->buffers().MarkDirty(c.rid.page);
    ++ctx.out.tag_undos;
    ++ctx.out.undo_applied;
    SMDB_TRACE(db_->tracer_ptr(),
               {.kind = TraceEventKind::kTagDecision,
                .node = p,
                .txn = owner_of(c.usn),
                .ts = m.NodeClock(p),
                .a = rid_enc,
                .b = c.usn,
                .label = "heap-undo"});
  }
  for (const IdxCand& c : idx_cands) {
    NodeId p = idx_performer(c);
    if (c.stale_clear) {
      SMDB_RETURN_IF_ERROR(index.ClearTag(p, c.ref.entry.key));
      SMDB_TRACE(db_->tracer_ptr(),
                 {.kind = TraceEventKind::kTagDecision,
                  .node = p,
                  .txn = owner_of(c.ref.entry.usn),
                  .ts = m.NodeClock(p),
                  .a = c.ref.entry.key,
                  .b = c.ref.entry.usn,
                  .label = "index-stale"});
      continue;
    }
    if (c.ref.entry.state == LeafEntryState::kLive) {
      // Undo of an uncommitted insert: physically remove this entry.
      // RemoveEntryAt blanks the slot in place (no compaction), so the
      // (leaf, slot) references collected above stay valid throughout.
      SMDB_RETURN_IF_ERROR(index.RemoveEntryAt(p, c.ref.leaf, c.ref.slot));
    } else {
      // Undo of an uncommitted logical delete: unmark this entry.
      SMDB_RETURN_IF_ERROR(index.UnmarkEntryAt(p, c.ref.leaf, c.ref.slot));
    }
    ++ctx.out.tag_undos;
    ++ctx.out.undo_applied;
    SMDB_TRACE(db_->tracer_ptr(),
               {.kind = TraceEventKind::kTagDecision,
                .node = p,
                .txn = owner_of(c.ref.entry.usn),
                .ts = m.NodeClock(p),
                .a = c.ref.entry.key,
                .b = c.ref.entry.usn,
                .label = "index-undo"});
  }
  return Status::Ok();
}

Status RecoveryManager::RecoverLockTable(Ctx& ctx) {
  LockTable& locks = db_->locks();
  NodeId performer = ctx.NextSurvivor();

  ctx.out.lcb_lines_cleared = locks.ClearLostLines();

  // 1. Release every lock of every crashed transaction that survived in
  // LCBs on live nodes (IFA lock guarantee 1). Posthumously-resolved group
  // commits (dead node, durable commit record) join the drop set: their
  // transactions are committed but could not release locks through their
  // dead node's log.
  std::set<TxnId> drop_ids = ctx.crashed_active_ids;
  drop_ids.insert(db_->txn().resolved_commit_ids().begin(),
                  db_->txn().resolved_commit_ids().end());
  if (!drop_ids.empty()) {
    SMDB_ASSIGN_OR_RETURN(int dropped,
                          locks.DropTxnLocks(performer, drop_ids));
    ctx.out.locks_dropped = dropped;
  }

  // 2. Rebuild lock state of surviving active transactions whose LCBs were
  // destroyed (IFA lock guarantee 2), by folding each survivor's logical
  // lock-op records — acquisitions (read and write), queued requests and
  // releases — into per-name LCB images.
  if (!db_->config().recovery.log_lock_ops) return Status::Ok();

  std::map<uint64_t, Lcb> folded;
  std::set<TxnId> surviving_ids;
  for (Transaction* t : ctx.surviving_active) surviving_ids.insert(t->id);

  // Fold each survivor's lock-op records in survivor order — the fold is
  // order-sensitive (acquire/queue/release replay). The analysis kept the
  // surviving actives' stable ones; the rest are read from the logs now.
  const LogAnalysis& analysis = *ctx.analysis;
  for (NodeId s : ctx.survivors) {
    if (ctx.dead_set.contains(s)) continue;
    auto fold = [&](const LogRecord& rec) {
      const LockOpPayload& op = rec.lock_op();
      Lcb& lcb = folded[op.lock_name];
      lcb.name = op.lock_name;
      auto erase_txn = [&](std::vector<LockEntry>& list) {
        for (size_t i = 0; i < list.size(); ++i) {
          if (list[i].txn == rec.txn) {
            list.erase(list.begin() + i);
            return;
          }
        }
      };
      switch (op.op) {
        case LockOpPayload::Op::kAcquire:
          erase_txn(lcb.holders);
          erase_txn(lcb.waiters);
          lcb.holders.push_back(LockEntry{rec.txn, op.mode});
          break;
        case LockOpPayload::Op::kQueue:
          erase_txn(lcb.waiters);
          lcb.waiters.push_back(LockEntry{rec.txn, op.mode});
          break;
        case LockOpPayload::Op::kRelease:
          erase_txn(lcb.holders);
          erase_txn(lcb.waiters);
          break;
      }
    };
    for (const LogRecord* rec : analysis.lock_ops(s)) fold(*rec);
    analysis.ForEachSince(s, [&](const LogRecord& rec, bool) {
      if (rec.type == LogRecordType::kLockOp &&
          surviving_ids.contains(rec.txn)) {
        fold(rec);
      }
    });
  }

  for (auto& [name, expected] : folded) {
    if (expected.holders.empty() && expected.waiters.empty()) continue;
    SMDB_ASSIGN_OR_RETURN(Lcb current, locks.GetLcb(performer, name));
    auto same = [](const std::vector<LockEntry>& a,
                   const std::vector<LockEntry>& b) {
      if (a.size() != b.size()) return false;
      for (const auto& e : a) {
        if (std::find(b.begin(), b.end(), e) == b.end()) return false;
      }
      return true;
    };
    if (same(current.holders, expected.holders) &&
        same(current.waiters, expected.waiters)) {
      continue;  // LCB survived intact
    }
    SMDB_RETURN_IF_ERROR(locks.RebuildLcb(performer, expected));
    ++ctx.out.lcbs_rebuilt;
  }
  return Status::Ok();
}

Result<RecoveryOutcome> RecoveryManager::Run(
    const std::vector<NodeId>& crashed) {
  // A crash during the Recovering window supersedes the previous on-demand
  // recovery: its undischarged obligations are re-derived from stable logs
  // and the transaction table by this run (whole-machine reboots and the
  // eager baselines recover everything themselves) — except the tags of
  // nodes that have restarted since, which it hands over explicitly.
  Ctx ctx;
  if (db_->on_demand() != nullptr) {
    ctx.owed_tags = db_->on_demand()->Supersede();
  }
  ctx.threads = std::max<uint32_t>(1, db_->config().recovery.recovery_threads);
  Machine& m = db_->machine();
  m.SyncClocks();
  SimTime t0 = m.GlobalTime();
  // BuildContext performs no machine operations — its log scans are pure
  // host-side reads — so timing it as the analysis phase costs nothing and
  // changes nothing (dt is 0 in simulated time, but the span marks where
  // analysis sits in the recovery timeline).
  SMDB_RETURN_IF_ERROR(TimedPhase(
      ctx, RecoveryPhase::kLogAnalysis,
      [&] { return BuildContext(crashed, &ctx); }));
  ctx.out.crashed_nodes = ctx.crashed;

  Status s;
  if (ctx.survivors.empty()) {
    // Every node failed: there is no survivor left to run the distributed
    // recovery schemes, so this is a whole-machine crash regardless of the
    // configured protocol. The machine reboots and restarts from stable
    // storage. All active transactions were on crashed nodes, so they are
    // annulled (not "unnecessarily aborted") and IFA holds trivially.
    for (NodeId n = 0; n < m.num_nodes(); ++n) ctx.survivors.push_back(n);
    PinStreams(&ctx.streams, ctx.threads, ctx.survivors);
    s = RunRebootAll(ctx);
  } else {
    PinStreams(&ctx.streams, ctx.threads, ctx.survivors);
    switch (db_->config().recovery.restart) {
      case RestartKind::kRedoAll:
        s = RunRedoAll(ctx);
        break;
      case RestartKind::kSelectiveRedo:
        s = RunSelectiveRedo(ctx);
        break;
      case RestartKind::kRebootAll:
        s = RunRebootAll(ctx);
        break;
      case RestartKind::kAbortDependents:
        s = RunAbortDependents(ctx);
        break;
    }
  }
  SMDB_RETURN_IF_ERROR(s);

  // Parallel transactions (section 9): the crash of any participant node
  // aborts the entire transaction. Crashed branches were handled by the
  // scheme above; surviving branches roll back normally on their intact
  // logs. These aborts are required by atomicity — they are not counted as
  // "unnecessary".
  std::set<TxnId> sibling_aborts;
  for (Transaction* t : ctx.crashed_active) {
    const std::vector<TxnId>* group = db_->txn().GroupOf(t->id);
    if (group == nullptr) continue;
    for (TxnId sib : *group) {
      Transaction* st = db_->txn().Find(sib);
      if (st != nullptr && st->state == TxnState::kActive &&
          !ctx.crashed_set.contains(st->node())) {
        sibling_aborts.insert(sib);
      }
    }
  }
  // Under on-demand recovery the sibling rollbacks would interleave their
  // first-touch discharges (and the fresh USNs those allocate) between the
  // eager prefix and the lazy remainder — a different allocation order than
  // the eager pass, which runs these aborts after *all* recovery undo.
  // Crashed parallel groups are rare; drain first so the rollback runs on
  // fully recovered state in the eager order and stays digest-identical.
  if (!sibling_aborts.empty() && db_->on_demand() != nullptr) {
    SMDB_RETURN_IF_ERROR(db_->on_demand()->DrainAll());
  }
  for (TxnId sib : sibling_aborts) {
    SMDB_RETURN_IF_ERROR(db_->txn().Abort(db_->txn().Find(sib)));
    ctx.out.annulled.push_back(sib);
  }
  if (!sibling_aborts.empty()) {
    std::vector<TxnId> kept;
    for (TxnId t : ctx.out.preserved) {
      if (!sibling_aborts.contains(t)) kept.push_back(t);
    }
    ctx.out.preserved = std::move(kept);
  }

  // Annul the crashed transactions (their effects are undone now).
  for (Transaction* t : ctx.crashed_active) {
    db_->txn().MarkCrashAnnulled(t);
  }

  m.SyncClocks();
  ctx.out.recovery_time_ns = m.GlobalTime() - t0;
  // Whole-recovery envelope span (the per-phase spans nest inside it in
  // the Chrome trace view). survivors is never empty here: the
  // whole-machine-restart path repopulates it with every node.
  SMDB_TRACE(db_->tracer_ptr(),
             {.kind = TraceEventKind::kRecoveryPhase,
              .node = ctx.survivors.front(),
              .ts = t0,
              .dur = ctx.out.recovery_time_ns,
              .label = "recovery"});
  return ctx.out;
}

}  // namespace smdb
