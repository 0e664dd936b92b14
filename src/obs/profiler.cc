#include "obs/profiler.h"

#include <cassert>

#include "workload/harness.h"

namespace smdb {

thread_local uint32_t Profiler::tl_depth_ = 0;

const char* SweeperSoloReasonName(SweeperSoloReason r) {
  switch (r) {
    case SweeperSoloReason::kIndexDescent:
      return "index-descent";
    case SweeperSoloReason::kPageLoad:
      return "page-load";
    case SweeperSoloReason::kUndoObligation:
      return "undo-obligation";
    case SweeperSoloReason::kTagDischarge:
      return "tag-discharge";
    case SweeperSoloReason::kLoneRecord:
      return "lone-record";
    case SweeperSoloReason::kSerialSweep:
      return "serial-sweep";
  }
  return "unknown";
}

const char* ProfPhaseName(ProfPhase p) {
  switch (p) {
    case ProfPhase::kStep:
      return "step";
    case ProfPhase::kSweep:
      return "sweep";
    case ProfPhase::kRecovery:
      return "recovery";
    case ProfPhase::kLockWait:
      return "lock_wait";
    case ProfPhase::kCoherence:
      return "coherence";
    case ProfPhase::kWalAppend:
      return "wal_append";
    case ProfPhase::kWalForce:
      return "wal_force";
    case ProfPhase::kIndexDescent:
      return "index_descent";
    case ProfPhase::kApply:
      return "apply";
  }
  return "unknown";
}

void Profiler::BeginRoot(ProfPhase root) {
  assert(tl_depth_ == 0);
  tl_depth_ = 1;
  path_.assign(ProfPhaseName(root));
  frames_.clear();
  cur_ = &cells_[path_];
  ++cur_->samples;
}

void Profiler::EndRoot() {
  assert(tl_depth_ == 1);
  tl_depth_ = 0;
  path_.clear();
  frames_.clear();
  cur_ = nullptr;
}

void Profiler::Enter(ProfPhase phase) {
  assert(tl_depth_ >= 1);
  ++tl_depth_;
  frames_.push_back(path_.size());
  path_.push_back(';');
  path_.append(ProfPhaseName(phase));
  cur_ = &cells_[path_];
  ++cur_->samples;
}

void Profiler::Exit() {
  assert(tl_depth_ >= 2 && !frames_.empty());
  path_.resize(frames_.back());
  frames_.pop_back();
  --tl_depth_;
  cur_ = &cells_[path_];
}

ProfilerReport Profiler::Snapshot() const {
  ProfilerReport rep;
  rep.enabled = enabled();
  rep.sweeper_solo = sweeper_solo_;
  rep.phases = cells_;
  return rep;
}

void Profiler::Reset() {
  sweeper_solo_.fill(0);
  cells_.clear();
  path_.clear();
  frames_.clear();
  cur_ = nullptr;
}

uint64_t ProfilerReport::sweeper_solo_total() const {
  uint64_t total = 0;
  for (uint64_t c : sweeper_solo) total += c;
  return total;
}

json::Value ProfilerReport::ToJson() const {
  json::Value doc = json::Value::Object();
  doc.Set("enabled", json::Value::Bool(enabled));

  json::Value solo = json::Value::Object();
  for (size_t i = 0; i < kNumSweeperSoloReasons; ++i) {
    solo.Set(SweeperSoloReasonName(static_cast<SweeperSoloReason>(i)),
             json::Value::Uint(sweeper_solo[i]));
  }
  doc.Set("sweeper_solo", std::move(solo));
  doc.Set("sweeper_solo_total", json::Value::Uint(sweeper_solo_total()));

  json::Value ph = json::Value::Object();
  for (const auto& [path, cell] : phases) {
    json::Value c = json::Value::Object();
    c.Set("ns", json::Value::Uint(cell.ns));
    c.Set("ticks", json::Value::Uint(cell.ticks));
    c.Set("samples", json::Value::Uint(cell.samples));
    ph.Set(path, std::move(c));
  }
  doc.Set("phases", std::move(ph));
  return doc;
}

std::string ProfilerReport::ToCollapsed() const {
  std::string out;
  for (const auto& [path, cell] : phases) {
    out.append(path);
    out.push_back(' ');
    out.append(std::to_string(cell.ns));
    out.push_back('\n');
  }
  return out;
}

json::Value ProfileJsonFromReport(const HarnessReport& report) {
  json::Value doc = json::Value::Object();
  doc.Set("profiler", report.profile.ToJson());

  json::Value sw = json::Value::Object();
  sw.Set("batches", json::Value::Uint(report.sweep_batches));
  sw.Set("batched_records", json::Value::Uint(report.sweep_batched_records));
  doc.Set("sweeper", std::move(sw));
  return doc;
}

}  // namespace smdb
