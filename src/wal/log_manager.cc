#include "wal/log_manager.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"
#include "sim/machine.h"

namespace smdb {

std::string LogStats::ToString() const {
  std::ostringstream os;
  bool first = true;
  ForEachCounter(*this, [&](const auto& name, uint64_t value) {
    if (!first) os << " ";
    os << name << "=" << value;
    first = false;
  });
  return os.str();
}

LogManager::LogManager(Machine* machine, StableLogStore* stable)
    : machine_(machine), stable_(stable) {
  uint16_t n = machine_->num_nodes();
  tails_.resize(n);
  next_lsn_.assign(n, 1);
  checkpoint_lsn_.assign(n, kInvalidLsn);
  max_truncated_usn_.assign(n, 0);
}

Lsn LogManager::Append(NodeId node, LogRecord rec) {
  ProfScope wal_append(prof_, ProfPhase::kWalAppend);
  [[maybe_unused]] const TxnId txn = rec.txn;
  const Lsn lsn = next_lsn_[node]++;
  rec.lsn = lsn;
  rec.node = node;
  tails_[node].push_back(std::move(rec));
  ++stats_.appends;
  machine_->Tick(node, machine_->config().timing.volatile_log_write_ns);
  SMDB_TRACE(tracer_, {.kind = TraceEventKind::kLogAppend,
                       .node = node,
                       .txn = txn,
                       .ts = machine_->NodeClock(node),
                       .a = lsn});
  return lsn;
}

Status LogManager::Force(NodeId requestor, NodeId node) {
  ProfScope wal_force(prof_, ProfPhase::kWalForce);
  if (!machine_->NodeAlive(node)) {
    // The tail died with the node; only the already-stable prefix exists.
    return Status::NodeFailed("cannot force log of crashed node");
  }
  auto& tail = tails_[node];
  if (!tail.empty()) {
    const size_t batch_size = tail.size();
    ++stats_.forces;
    stats_.forced_records += batch_size;
    stats_.force_batches.Record(batch_size);
    const auto& timing = machine_->config().timing;
    machine_->Tick(requestor, machine_->config().nvram_log
                                  ? timing.nvram_force_ns
                                  : timing.log_force_ns);
    for (LogRecord& rec : tail) stable_->Append(node, std::move(rec));
    tail.clear();
    SMDB_TRACE(tracer_, {.kind = TraceEventKind::kLogForce,
                         .node = node,
                         .peer = requestor,
                         .ts = machine_->NodeClock(requestor),
                         .a = batch_size,
                         .b = stable_->LastLsn(node)});
  }
  // Hooks fire even for the empty no-op force: observers learn "this log
  // is stable through its last append", which is just as true.
  for (const auto& hook : force_hooks_) hook(node);
  return Status::Ok();
}

void LogManager::AnnulVolatile(NodeId node, Lsn lsn) {
  auto& tail = tails_[node];
  for (auto it = tail.begin(); it != tail.end(); ++it) {
    if (it->lsn == lsn) {
      tail.erase(it);
      return;
    }
  }
}

const LogRecord* LogManager::Find(NodeId node, Lsn lsn) const {
  // Every stable LSN precedes every tail LSN; the tail is LSN-ordered too
  // (it may have annul gaps).
  if (lsn <= stable_->LastLsn(node)) return stable_->Records(node).Find(lsn);
  const auto& tail = tails_[node];
  auto it = std::lower_bound(
      tail.begin(), tail.end(), lsn,
      [](const LogRecord& rec, Lsn l) { return rec.lsn < l; });
  return it != tail.end() && it->lsn == lsn ? &*it : nullptr;
}

bool LogManager::IsStable(NodeId node, Lsn lsn) const {
  if (lsn == kInvalidLsn) return true;
  return stable_->LastLsn(node) >= lsn;
}

void LogManager::OnNodeCrash(NodeId node) {
  tails_[node].clear();
}

}  // namespace smdb
