#include "txn/txn_manager.h"

#include <algorithm>
#include <cassert>

#include "db/page_layout.h"
#include "obs/observatory.h"
#include "obs/trace.h"
#include "sim/machine.h"
#include "wal/group_commit.h"

namespace smdb {

TxnManager::TxnManager(Machine* machine, LogManager* log, LockTable* locks,
                       RecordStore* records, BTree* index, WalTable* wal_table,
                       BufferManager* buffers, LbmPolicy* lbm, UsnSource* usn,
                       DependencyTracker* deps, RecoveryConfig config)
    : machine_(machine),
      log_(log),
      locks_(locks),
      records_(records),
      index_(index),
      wal_table_(wal_table),
      buffers_(buffers),
      lbm_(lbm),
      usn_(usn),
      deps_(deps),
      config_(config) {
  next_seq_.assign(machine_->num_nodes(), 0);
}

Transaction* TxnManager::Begin(NodeId node) {
  TxnId id = MakeTxnId(node, ++next_seq_[node]);
  auto txn = std::make_unique<Transaction>();
  txn->id = id;
  txn->begin_seq = ++begin_counter_;
  txn->begin_ts = machine_->NodeClock(node);
  Transaction* ptr = txn.get();
  txns_[id] = std::move(txn);
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn = id;
  rec.payload = BeginPayload{};
  ptr->last_lsn = log_->Append(node, std::move(rec));
  ptr->first_lsn = ptr->last_lsn;
  ++stats_.begins;
  SMDB_TRACE(tracer_, {.kind = TraceEventKind::kTxnBegin,
                       .node = node,
                       .txn = id,
                       .ts = machine_->NodeClock(node),
                       .a = ptr->first_lsn});
  SMDB_OBS(obs_, OnTxnBegin(node, id, ptr->begin_ts));
  for (auto* obs : observers_) obs->OnBegin(id);
  return ptr;
}

Transaction* TxnManager::Find(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

std::vector<Transaction*> TxnManager::ActiveOn(NodeId node) {
  std::vector<Transaction*> out;
  for (auto& [id, txn] : txns_) {
    if (txn->state == TxnState::kActive && txn->node() == node) {
      out.push_back(txn.get());
    }
  }
  return out;
}

std::vector<Transaction*> TxnManager::ActiveAll() {
  std::vector<Transaction*> out;
  for (auto& [id, txn] : txns_) {
    if (txn->state == TxnState::kActive) out.push_back(txn.get());
  }
  return out;
}

void TxnManager::NotifyCommit(TxnId id) {
  for (auto* obs : observers_) obs->OnCommit(id);
}
void TxnManager::NotifyAbort(TxnId id) {
  for (auto* obs : observers_) obs->OnAbort(id);
}

bool TxnManager::WouldDeadlock(Transaction* txn, uint64_t name) {
  // DFS over the waits-for graph: txn -> holders(name) -> what they wait
  // for -> ... A cycle back to txn means the queue attempt would deadlock.
  std::set<TxnId> visited;
  std::vector<uint64_t> frontier = {name};
  while (!frontier.empty()) {
    uint64_t n = frontier.back();
    frontier.pop_back();
    auto holders = locks_->Holders(txn->node(), n);
    if (!holders.ok()) continue;
    for (const auto& h : *holders) {
      if (h.txn == txn->id) return true;
      if (!visited.insert(h.txn).second) continue;
      auto it = waiting_for_.find(h.txn);
      if (it != waiting_for_.end()) frontier.push_back(it->second);
    }
  }
  return false;
}

Status TxnManager::AcquireLock(Transaction* txn, uint64_t name,
                               LockMode mode) {
  if (txn->granted_locks.contains(name)) {
    // Fast path re-acquire; the lock table resolves upgrades.
    if (mode == LockMode::kShared) return Status::Ok();
  }
  auto res_or = locks_->Acquire(txn->node(), txn->id, name, mode,
                                &txn->last_lsn);
  if (!res_or.ok()) {
    if (res_or.status().IsTryAgain()) {
      // Capacity rejection (full waiter list / probe window): the caller
      // must re-issue the acquire. The transaction is logically waiting on
      // `name` even though it holds no queue slot, so register the edge for
      // deadlock detection (a spinner holding other locks can deadlock with
      // a queued waiter).
      if (WouldDeadlock(txn, name)) {
        ++stats_.deadlock_aborts;
        return Status::Deadlock("waits-for cycle (while spinning)");
      }
      waiting_for_[txn->id] = name;
    }
    return res_or.status();
  }
  LockResult res = *res_or;
  if (res == LockResult::kGranted) {
    txn->granted_locks.insert(name);
    txn->queued_locks.erase(name);
    waiting_for_.erase(txn->id);
    return Status::Ok();
  }
  txn->queued_locks.insert(name);
  if (WouldDeadlock(txn, name)) {
    ++stats_.deadlock_aborts;
    return Status::Deadlock("waits-for cycle");
  }
  waiting_for_[txn->id] = name;
  return Status::Busy("lock queued");
}

Result<LockResult> TxnManager::PollLock(Transaction* txn, uint64_t name,
                                        LockMode mode) {
  SMDB_ASSIGN_OR_RETURN(
      LockResult res,
      locks_->PollGrant(txn->node(), txn->id, name, mode, &txn->last_lsn));
  if (res == LockResult::kGranted) {
    txn->granted_locks.insert(name);
    txn->queued_locks.erase(name);
    waiting_for_.erase(txn->id);
  }
  return res;
}

Result<std::vector<uint8_t>> TxnManager::Read(Transaction* txn, RecordId rid,
                                              Isolation isolation) {
  if (isolation == Isolation::kBrowse) {
    ++stats_.reads;
    return DirtyRead(txn->node(), rid);
  }
  uint64_t name = RecordLockName(rid);
  bool held_before = txn->granted_locks.contains(name);
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, name, LockMode::kShared));
  if (touch_record_) SMDB_RETURN_IF_ERROR(touch_record_(txn->node(), rid));
  SlotImage img;
  {
    ProfScope apply(prof_, ProfPhase::kApply);
    SMDB_ASSIGN_OR_RETURN(img, records_->ReadSlot(txn->node(), rid));
  }
  ++stats_.reads;
  if (isolation == Isolation::kCursorStability && !held_before) {
    // Degree 2: drop the read lock immediately (never a lock the
    // transaction holds for another reason, e.g. an earlier update).
    SMDB_RETURN_IF_ERROR(
        locks_->Release(txn->node(), txn->id, name, &txn->last_lsn));
    txn->granted_locks.erase(name);
  }
  return img.data;
}

Result<std::vector<uint8_t>> TxnManager::DirtyRead(NodeId node, RecordId rid) {
  if (touch_record_) SMDB_RETURN_IF_ERROR(touch_record_(node, rid));
  ProfScope apply(prof_, ProfPhase::kApply);
  SMDB_ASSIGN_OR_RETURN(SlotImage img, records_->ReadSlot(node, rid));
  return img.data;
}

Status TxnManager::DoUpdate(Transaction* txn, RecordId rid,
                            const std::vector<uint8_t>& value, bool is_clr,
                            uint64_t /*expected_usn*/) {
  ProfScope apply(prof_, ProfPhase::kApply);
  NodeId node = txn->node();
  uint16_t tag =
      (config_.undo_tagging() && !is_clr) ? TagForNode(node) : kTagNone;
  PageId page = rid.page;
  LineAddr header_line = records_->HeaderLine(page);
  LineAddr record_line = records_->SlotLine(rid);

  // Ordered-update-logging via line locks (section 6): lock the Page-LSN
  // line and the record line, update in place, log, then release. The log
  // record is written while the lines are pinned locally, which enforces
  // Volatile LBM.
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, header_line));
  Status st = machine_->GetLine(node, record_line);
  if (!st.ok()) {
    machine_->ReleaseLine(node, header_line);
    return st;
  }

  auto finish = [&](Status s) {
    machine_->ReleaseLine(node, record_line);
    machine_->ReleaseLine(node, header_line);
    return s;
  };

  auto cur_or = records_->ReadSlot(node, rid);
  if (!cur_or.ok()) return finish(cur_or.status());
  SlotImage cur = std::move(*cur_or);

  uint64_t usn = usn_->Next();
  SlotImage img;
  img.usn = usn;
  img.tag = tag;
  img.data = value;
  Status s = records_->WriteSlot(node, rid, img);
  if (s.ok()) s = records_->WritePageLsn(node, page, usn);
  if (!s.ok()) return finish(s);

  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  UpdatePayload up;
  up.rid = rid;
  up.usn = usn;
  up.before_usn = cur.usn;
  up.before = cur.data;
  up.after = value;
  up.is_clr = is_clr;
  rec.payload = std::move(up);
  Lsn lsn = log_->Append(node, std::move(rec));
  txn->last_lsn = lsn;
  s = lbm_->OnUpdateLogged(node, lsn, {record_line, header_line});
  if (!s.ok()) return finish(s);

  wal_table_->NoteUpdate(page, node, lsn);
  buffers_->MarkDirty(page);
  if (tag != kTagNone) ++stats_.undo_tag_writes;
  if (deps_ != nullptr && !is_clr) deps_->OnTxnUpdate(txn->id, record_line);
  return finish(Status::Ok());
}

Status TxnManager::Update(Transaction* txn, RecordId rid,
                          const std::vector<uint8_t>& value) {
  if (value.size() != records_->layout().record_data_size()) {
    return Status::InvalidArgument("value size != record size");
  }
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, RecordLockName(rid),
                                   LockMode::kExclusive));
  if (touch_record_) SMDB_RETURN_IF_ERROR(touch_record_(txn->node(), rid));
  SMDB_RETURN_IF_ERROR(DoUpdate(txn, rid, value, /*is_clr=*/false, 0));
  txn->updated_records.push_back(rid);
  ++stats_.updates;
  for (auto* obs : observers_) obs->OnUpdate(txn->id, rid, value);
  return Status::Ok();
}

Status TxnManager::IndexInsert(Transaction* txn, uint64_t key,
                               RecordId value) {
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, KeyLockName(index_->tree_id(), key),
                                   LockMode::kExclusive));
  if (touch_key_) {
    SMDB_RETURN_IF_ERROR(touch_key_(txn->node(), index_->tree_id(), key));
  }
  uint16_t tag =
      config_.undo_tagging() ? TagForNode(txn->node()) : kTagNone;
  {
    ProfScope descent(prof_, ProfPhase::kIndexDescent);
    SMDB_RETURN_IF_ERROR(index_->Insert(txn->node(), txn->id, key, value,
                                        tag, &txn->last_lsn));
  }
  txn->index_keys.emplace_back(index_->tree_id(), key);
  for (auto* obs : observers_) {
    obs->OnIndexInsert(txn->id, index_->tree_id(), key, value);
  }
  return Status::Ok();
}

Status TxnManager::IndexDelete(Transaction* txn, uint64_t key) {
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, KeyLockName(index_->tree_id(), key),
                                   LockMode::kExclusive));
  if (touch_key_) {
    SMDB_RETURN_IF_ERROR(touch_key_(txn->node(), index_->tree_id(), key));
  }
  uint16_t tag =
      config_.undo_tagging() ? TagForNode(txn->node()) : kTagNone;
  {
    ProfScope descent(prof_, ProfPhase::kIndexDescent);
    SMDB_RETURN_IF_ERROR(
        index_->Delete(txn->node(), txn->id, key, tag, &txn->last_lsn));
  }
  txn->index_keys.emplace_back(index_->tree_id(), key);
  for (auto* obs : observers_) {
    obs->OnIndexDelete(txn->id, index_->tree_id(), key);
  }
  return Status::Ok();
}

Result<std::optional<RecordId>> TxnManager::IndexLookup(Transaction* txn,
                                                        uint64_t key) {
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, KeyLockName(index_->tree_id(), key),
                                   LockMode::kShared));
  if (touch_key_) {
    SMDB_RETURN_IF_ERROR(touch_key_(txn->node(), index_->tree_id(), key));
  }
  ProfScope descent(prof_, ProfPhase::kIndexDescent);
  return index_->Lookup(txn->node(), key);
}

Status TxnManager::Commit(Transaction* txn) {
  return CommitImpl(txn, /*allow_group=*/true);
}

Status TxnManager::CommitImpl(Transaction* txn, bool allow_group) {
  assert(txn->state == TxnState::kActive);
  NodeId node = txn->node();

  // 1. Commit record + force: the durable commit point. With the
  // group-commit pipeline the force is deferred — the record joins the
  // node's pending batch and the transaction stays kActive (holding its
  // locks) until a covering force lands. Acknowledgement strictly after
  // durability preserves IFA: no observer learns of the commit while a
  // crash could still annul it.
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.payload = CommitPayload{};
  txn->last_lsn = log_->Append(node, std::move(rec));
  if (allow_group && gc_ != nullptr) {
    SMDB_RETURN_IF_ERROR(gc_->EnqueueCommit(node, txn->id, txn->last_lsn));
    if (!log_->IsStable(node, txn->last_lsn)) {
      SMDB_TRACE(tracer_, {.kind = TraceEventKind::kTxnCommitWait,
                           .node = node,
                           .txn = txn->id,
                           .ts = machine_->NodeClock(node),
                           .a = txn->last_lsn});
      return Status::Busy("commit pending group force");
    }
    // The enqueue itself tripped the size bound (or the record was already
    // covered): complete immediately.
    gc_->DropCommit(txn->id);
    return FinishCommit(txn);
  }
  SMDB_RETURN_IF_ERROR(log_->Force(node, node));
  return FinishCommit(txn);
}

Status TxnManager::PollCommit(Transaction* txn) {
  if (gc_ == nullptr) {
    return Status::InvalidArgument("group commit is not enabled");
  }
  if (txn->state == TxnState::kCommitted) return Status::Ok();
  if (txn->state != TxnState::kActive) {
    return Status::InvalidArgument("polled transaction is not pending");
  }
  NodeId node = txn->node();
  SMDB_RETURN_IF_ERROR(gc_->Poll(node));
  if (!log_->IsStable(node, txn->last_lsn)) {
    return Status::Busy("commit pending group force");
  }
  gc_->DropCommit(txn->id);
  return FinishCommit(txn);
}

Status TxnManager::FinishCommit(Transaction* txn) {
  NodeId node = txn->node();

  // 2. Clear undo tags ("once the data is no longer active, the node ID is
  // assigned a null value"). Safe after the commit point: the restart
  // procedure checks the stable log before undoing a tagged record, so a
  // crash in this window cannot roll back committed data.
  if (config_.undo_tagging()) {
    std::set<RecordId> seen(txn->updated_records.begin(),
                            txn->updated_records.end());
    // During on-demand recovery, discharge each object's lazy obligations
    // before clearing its tag — a tag clear must never race with a pending
    // redo/undo for the same object.
    if (touch_record_) {
      for (RecordId rid : seen) SMDB_RETURN_IF_ERROR(touch_record_(node, rid));
    }
    if (touch_key_) {
      for (const auto& [tree, key] : txn->index_keys) {
        SMDB_RETURN_IF_ERROR(touch_key_(node, tree, key));
      }
    }
    for (RecordId rid : seen) {
      LineAddr line = records_->SlotLine(rid);
      SMDB_RETURN_IF_ERROR(machine_->GetLine(node, line));
      Status s = records_->WriteTag(node, rid, kTagNone);
      machine_->ReleaseLine(node, line);
      SMDB_RETURN_IF_ERROR(s);
    }
    std::set<std::pair<uint32_t, uint64_t>> keys(txn->index_keys.begin(),
                                                 txn->index_keys.end());
    ProfScope descent(prof_, ProfPhase::kIndexDescent);
    for (const auto& [tree, key] : keys) {
      (void)tree;
      Status s = index_->ClearTag(node, key);
      // The entry may have been physically removed already (a delete of
      // this transaction's own insert); nothing to clear then.
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }

  // 3. Strict 2PL: release all locks only now.
  std::set<uint64_t> names = txn->granted_locks;
  names.insert(txn->queued_locks.begin(), txn->queued_locks.end());
  for (uint64_t name : names) {
    SMDB_RETURN_IF_ERROR(locks_->Release(node, txn->id, name,
                                         &txn->last_lsn));
  }
  txn->granted_locks.clear();
  txn->queued_locks.clear();
  waiting_for_.erase(txn->id);

  txn->state = TxnState::kCommitted;
  if (deps_ != nullptr) deps_->OnTxnEnd(txn->id);
  ++stats_.commits;
  const SimTime ack_ts = machine_->NodeClock(node);
  SMDB_TRACE(tracer_, {.kind = TraceEventKind::kTxnCommit,
                       .node = node,
                       .txn = txn->id,
                       .ts = ack_ts});
  SMDB_OBS(obs_, OnCommit(node, txn->id, ack_ts,
                          ack_ts >= txn->begin_ts ? ack_ts - txn->begin_ts
                                                  : 0));
  NotifyCommit(txn->id);
  return Status::Ok();
}

Status TxnManager::ResolvePendingCommits() {
  resolved_commit_ids_.clear();
  if (gc_ == nullptr) return Status::Ok();
  for (const auto& [node, pc] : gc_->PendingCommits()) {
    if (!log_->IsStable(node, pc.lsn)) continue;
    Transaction* txn = Find(pc.txn);
    gc_->DropCommit(pc.txn);
    if (txn == nullptr || txn->state != TxnState::kActive) continue;
    // The commit record is durable, so the transaction is committed — its
    // log decides — whether or not its node survived. We cannot run the
    // normal acknowledgement here: the node may be dead, and even on a
    // live node the machine is mid-crash (a line holding one of the
    // transaction's records may have migrated to the crashed node and not
    // be restored yet). Complete the bookkeeping only; RecoverLockTable
    // drops the LCB entries via resolved_commit_ids(), and leftover undo
    // tags are cleared lazily by the tag scan's stale-committed path
    // (identical to a crash landing between a synchronous commit's force
    // and its tag clears).
    txn->granted_locks.clear();
    txn->queued_locks.clear();
    waiting_for_.erase(txn->id);
    txn->state = TxnState::kCommitted;
    if (deps_ != nullptr) deps_->OnTxnEnd(txn->id);
    ++stats_.commits;
    const SimTime ack_ts = machine_->NodeClock(node);
    SMDB_TRACE(tracer_, {.kind = TraceEventKind::kTxnCommit,
                         .node = node,
                         .txn = txn->id,
                         .ts = ack_ts,
                         .label = "resolved"});
    SMDB_OBS(obs_, OnCommit(node, txn->id, ack_ts,
                            ack_ts >= txn->begin_ts ? ack_ts - txn->begin_ts
                                                    : 0));
    NotifyCommit(txn->id);
    resolved_commit_ids_.insert(txn->id);
  }
  return Status::Ok();
}

bool TxnManager::TryFinishDurablePendingCommit(Transaction* txn) {
  if (gc_ == nullptr || txn->state != TxnState::kActive) return false;
  Lsn lsn = gc_->PendingCommitLsn(txn->id);
  if (lsn == kInvalidLsn) return false;
  if (!log_->IsStable(txn->node(), lsn)) return false;
  gc_->DropCommit(txn->id);
  return FinishCommit(txn).ok();
}

Status TxnManager::ApplyUndoUpdate(NodeId performer, const LogRecord& rec,
                                   UndoEngagement* eng) {
  const UpdatePayload& u = rec.update();
  assert(!u.is_clr);
  SMDB_ASSIGN_OR_RETURN(SlotImage cur, records_->ReadSlot(performer, u.rid));
  auto it = eng->records.find(u.rid);
  bool engaged = it != eng->records.end() && it->second == rec.txn;
  if (cur.usn == u.usn) engaged = true;
  if (!engaged) {
    // Either the update never reached the surviving copy, or a later
    // (committed or compensating) version legitimately overwrote it.
    return Status::Ok();
  }
  eng->records[u.rid] = rec.txn;
  // Install the before image as a compensation update on the performer's
  // log (redo-only; never undone).
  PageId page = u.rid.page;
  LineAddr header_line = records_->HeaderLine(page);
  LineAddr record_line = records_->SlotLine(u.rid);
  SMDB_RETURN_IF_ERROR(machine_->GetLine(performer, header_line));
  Status st = machine_->GetLine(performer, record_line);
  if (!st.ok()) {
    machine_->ReleaseLine(performer, header_line);
    return st;
  }
  uint64_t usn = usn_->Next();
  SlotImage img;
  img.usn = usn;
  img.tag = kTagNone;
  img.data = u.before;
  Status s = records_->WriteSlot(performer, u.rid, img);
  if (s.ok()) s = records_->WritePageLsn(performer, page, usn);
  if (s.ok()) {
    LogRecord clr;
    clr.type = LogRecordType::kUpdate;
    clr.txn = rec.txn;
    UpdatePayload cp;
    cp.rid = u.rid;
    cp.usn = usn;
    cp.before_usn = cur.usn;
    cp.before = cur.data;
    cp.after = u.before;
    cp.is_clr = true;
    clr.payload = std::move(cp);
    Lsn lsn = log_->Append(performer, std::move(clr));
    s = lbm_->OnUpdateLogged(performer, lsn, {record_line, header_line});
    wal_table_->NoteUpdate(page, performer, lsn);
    buffers_->MarkDirty(page);
  }
  machine_->ReleaseLine(performer, record_line);
  machine_->ReleaseLine(performer, header_line);
  return s;
}

Status TxnManager::ApplyUndoIndexOp(NodeId performer, const LogRecord& rec,
                                    UndoEngagement* eng) {
  const IndexOpPayload& op = rec.index_op();
  assert(!op.is_clr);
  SMDB_ASSIGN_OR_RETURN(auto entry, index_->GetEntry(performer, op.key));
  auto mkey = std::make_pair(op.tree_id, op.key);
  auto it = eng->keys.find(mkey);
  bool engaged = it != eng->keys.end() && it->second == rec.txn;
  if (entry.has_value() && entry->usn == op.usn) engaged = true;
  if (!engaged) return Status::Ok();
  eng->keys[mkey] = rec.txn;
  if (op.op == IndexOpPayload::Op::kInsert) {
    return index_->UndoInsert(performer, rec.txn, op.key, nullptr,
                              /*log_clr=*/true);
  }
  if (!entry.has_value()) return Status::Ok();  // nothing left to unmark
  Status s = index_->UndoDelete(performer, rec.txn, op.key, nullptr,
                                /*log_clr=*/true);
  // An engaged chain being *resumed* (recovery re-undo) may land on a delete
  // whose compensation already ran — the entry is live again and there is no
  // tombstone left. Skipping it continues the chain at the next older record.
  if (s.IsNotFound()) return Status::Ok();
  return s;
}

Status TxnManager::Abort(Transaction* txn) {
  assert(txn->state == TxnState::kActive);
  NodeId node = txn->node();

  // Head of this transaction's prev_lsn chain, walked below.
  Lsn walk_from = txn->last_lsn;
  if (gc_ != nullptr) {
    // Withdraw a pending group commit before undoing anything. Once the
    // commit record is durable the transaction is committed — its log
    // decides — and can no longer abort.
    Lsn pending = gc_->PendingCommitLsn(txn->id);
    if (pending != kInvalidLsn) {
      if (log_->IsStable(node, pending)) {
        return Status::InvalidArgument("cannot abort: commit already durable");
      }
      gc_->DropCommit(txn->id);
      // The withdrawn record leaves an LSN gap, and txn->last_lsn keeps
      // pointing at it. Redo is USN-guarded and needs no contiguity; the
      // chain walk below starts from the record's prev_lsn, read before
      // annulling (the pending commit is the chain's head).
      assert(txn->last_lsn == pending);
      const LogRecord* commit = log_->Find(node, pending);
      assert(commit != nullptr);
      walk_from = commit->prev_lsn;
      log_->AnnulVolatile(node, pending);
    }
  }

  // Collect this transaction's loggable operations by walking its prev_lsn
  // chain through its own (intact) log, newest first: O(own records), not
  // O(log). The walk ends at the Begin record, whose prev_lsn is invalid.
  std::vector<LogRecord> ops;
  for (Lsn lsn = walk_from; lsn != kInvalidLsn;) {
    const LogRecord* rec = log_->Find(node, lsn);
    if (rec == nullptr) break;
    if (rec->txn == txn->id &&
        ((rec->type == LogRecordType::kUpdate && !rec->update().is_clr) ||
         (rec->type == LogRecordType::kIndexOp &&
          !rec->index_op().is_clr))) {
      ops.push_back(*rec);
    }
    lsn = rec->prev_lsn;
  }
  // LSN order, as the touch hooks and the reverse-order undo expect.
  std::reverse(ops.begin(), ops.end());
  // During on-demand recovery, discharge lazy obligations on every object
  // this rollback will touch, so the undo's before-images land on fully
  // recovered state.
  for (const LogRecord& rec : ops) {
    if (rec.type == LogRecordType::kUpdate) {
      if (touch_record_) {
        SMDB_RETURN_IF_ERROR(touch_record_(node, rec.update().rid));
      }
    } else if (touch_key_) {
      SMDB_RETURN_IF_ERROR(
          touch_key_(node, rec.index_op().tree_id, rec.index_op().key));
    }
  }
  UndoEngagement eng;
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (it->type == LogRecordType::kUpdate) {
      SMDB_RETURN_IF_ERROR(ApplyUndoUpdate(node, *it, &eng));
    } else {
      SMDB_RETURN_IF_ERROR(ApplyUndoIndexOp(node, *it, &eng));
    }
  }

  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.payload = AbortPayload{};
  txn->last_lsn = log_->Append(node, std::move(rec));

  std::set<uint64_t> names = txn->granted_locks;
  names.insert(txn->queued_locks.begin(), txn->queued_locks.end());
  for (uint64_t name : names) {
    SMDB_RETURN_IF_ERROR(locks_->Release(node, txn->id, name,
                                         &txn->last_lsn));
  }
  txn->granted_locks.clear();
  txn->queued_locks.clear();
  waiting_for_.erase(txn->id);

  txn->state = TxnState::kAborted;
  if (deps_ != nullptr) deps_->OnTxnEnd(txn->id);
  ++stats_.aborts;
  const SimTime end_ts = machine_->NodeClock(node);
  SMDB_TRACE(tracer_, {.kind = TraceEventKind::kTxnAbort,
                       .node = txn->node(),
                       .txn = txn->id,
                       .ts = end_ts});
  SMDB_OBS(obs_, OnAbort(node, txn->id, end_ts,
                         end_ts >= txn->begin_ts ? end_ts - txn->begin_ts
                                                 : 0));
  NotifyAbort(txn->id);
  return Status::Ok();
}

Result<ParallelTxn*> TxnManager::BeginParallel(
    const std::vector<NodeId>& nodes) {
  if (nodes.empty()) return Status::InvalidArgument("no participant nodes");
  auto ptxn = std::make_unique<ParallelTxn>();
  for (NodeId n : nodes) {
    if (!machine_->NodeAlive(n)) {
      return Status::NodeFailed("participant node is down");
    }
    ptxn->branches.push_back(Begin(n));
  }
  std::vector<TxnId> ids;
  for (Transaction* t : ptxn->branches) ids.push_back(t->id);
  ParallelTxn* out = ptxn.get();
  for (TxnId id : ids) groups_[id] = ids;
  parallel_.push_back(std::move(ptxn));
  return out;
}

Status TxnManager::CommitParallel(ParallelTxn* ptxn) {
  // Phase 1: make every branch's updates durable.
  for (Transaction* t : ptxn->branches) {
    SMDB_RETURN_IF_ERROR(log_->Force(t->node(), t->node()));
  }
  // Phase 2: per-branch commits. Atomic with respect to crashes in the
  // simulator's execution model (operations never interleave with crash
  // injection); a real implementation would write a single group-commit
  // record through the coordinator. Always synchronous — the group-wide
  // atomicity argument relies on the per-branch commits being durable
  // within this one crash-atomic operation, so the coalescing pipeline is
  // bypassed here.
  for (Transaction* t : ptxn->branches) {
    SMDB_RETURN_IF_ERROR(CommitImpl(t, /*allow_group=*/false));
  }
  return Status::Ok();
}

Status TxnManager::AbortParallel(ParallelTxn* ptxn) {
  for (Transaction* t : ptxn->branches) {
    if (t->state == TxnState::kActive) {
      SMDB_RETURN_IF_ERROR(Abort(t));
    }
  }
  return Status::Ok();
}

const std::vector<TxnId>* TxnManager::GroupOf(TxnId branch) const {
  auto it = groups_.find(branch);
  return it == groups_.end() ? nullptr : &it->second;
}

void TxnManager::MarkCrashAnnulled(Transaction* txn) {
  if (txn->state != TxnState::kActive) return;
  if (gc_ != nullptr) gc_->DropCommit(txn->id);
  txn->state = TxnState::kAborted;
  txn->granted_locks.clear();
  txn->queued_locks.clear();
  waiting_for_.erase(txn->id);
  if (deps_ != nullptr) deps_->OnTxnEnd(txn->id);
  const SimTime end_ts = machine_->NodeClock(txn->node());
  SMDB_TRACE(tracer_, {.kind = TraceEventKind::kTxnAbort,
                       .node = txn->node(),
                       .txn = txn->id,
                       .ts = end_ts,
                       .label = "annulled"});
  SMDB_OBS(obs_, OnAbort(txn->node(), txn->id, end_ts,
                         end_ts >= txn->begin_ts ? end_ts - txn->begin_ts
                                                 : 0));
  NotifyAbort(txn->id);
}

}  // namespace smdb
