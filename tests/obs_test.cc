// Coverage for the observability layer (src/obs/): event tracing, the
// unified metrics snapshot, and crash forensics.
//
//   1. Trace determinism: for a fixed config + seed the recorded event
//      sequence (kinds, nodes, payloads, timestamps, global order) is
//      bit-identical run to run — at recovery_threads = 1 and at 4. That
//      is what makes traces embedded in fuzzer replay documents evidence
//      rather than noise.
//   2. Ring accounting: fixed-capacity drop-oldest overflow keeps exactly
//      the newest events and counts every drop; out-of-range nodes clamp
//      to ring 0 instead of vanishing.
//   3. Chrome-trace export: well-formed JSON, one named track per node,
//      recovery phases as "X" complete spans.
//   4. Stats parity: MachineStats/LogStats::ToString and the ForEachCounter
//      visitors cover the same field set, so the human dump and the JSON
//      snapshot can never drift apart.
//   5. Metrics snapshot: FromReport unifies every subsystem prefix and the
//      per-recovery phase durations into one parseable object.
//   6. Forensics: a fuzz-caught IFA violation yields a non-empty forensic
//      report (violation, trace tails, log chain, tag decisions) that
//      rides inside the replay document and round-trips through ParseReplay.
//   7. Histogram algebra: the fixed bucket layout makes Merge partition-
//      and order-invariant, so per-shard recording at any width yields
//      bit-identical percentiles.
//   8. Time series + availability: window-edge events land in the next
//      window, quiet stretches are explicit zero windows, and the derived
//      TTFC / trough numbers match a hand-built crash schedule.
//   9. Observatory neutrality: enabling the latency observatory changes no
//      StateDigest (it makes zero machine operations), and its histograms
//      are identical across recovery thread widths for a fixed seed.
//  10. LogStats now stores force batches in a Histogram; the classic
//      bucket counters derived from it match the old classification.
//  11. Profiler neutrality: the StateDigest, disk writes, log forces and
//      sim time are bit-identical with the profiler on vs off (including a
//      run with the steal-flush daemon active), sweep discharges are
//      attributed deterministically, and the collapsed-stack / JSON
//      exports are well-formed.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "obs/forensics.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/observatory.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "workload/harness.h"

namespace smdb {
namespace {

// Under -DSMDB_DISABLE_TRACING the emission sites are compiled out, so the
// tests that rely on recorded events skip (the ring/metrics mechanics are
// still exercised).
#ifdef SMDB_TRACE_DISABLED
constexpr bool kTraceCompiledOut = true;
#else
constexpr bool kTraceCompiledOut = false;
#endif

#define SMDB_SKIP_IF_TRACING_COMPILED_OUT()                             \
  if (kTraceCompiledOut) {                                              \
    GTEST_SKIP() << "emission sites compiled out (SMDB_TRACE_DISABLED)"; \
  }

HarnessConfig TracedConfig(uint32_t recovery_threads) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = 6;
  cfg.db.recovery = RecoveryConfig::VolatileSelectiveRedo();
  cfg.db.recovery.recovery_threads = recovery_threads;
  cfg.db.trace.enabled = true;
  cfg.workload.txns_per_node = 12;
  cfg.workload.ops_per_txn = 6;
  cfg.workload.write_ratio = 0.6;
  cfg.workload.index_op_ratio = 0.2;
  cfg.workload.seed = 4242;
  cfg.crashes.push_back(CrashPlan{120, {2}, /*restart_after=*/true});
  cfg.crashes.push_back(CrashPlan{260, {4}, /*restart_after=*/false});
  return cfg;
}

std::vector<TraceEvent> RunAndCollect(uint32_t recovery_threads) {
  Harness h(TracedConfig(recovery_threads));
  auto report = h.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verify_status.ok())
      << report->verify_status.ToString();
  return h.db().tracer().AllEvents();
}

void ExpectIdenticalTraces(const std::vector<TraceEvent>& a,
                           const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].peer, b[i].peer);
    EXPECT_EQ(a[i].txn, b[i].txn);
    EXPECT_EQ(a[i].ts, b[i].ts);
    EXPECT_EQ(a[i].dur, b[i].dur);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(std::string(a[i].label == nullptr ? "" : a[i].label),
              std::string(b[i].label == nullptr ? "" : b[i].label));
  }
}

TEST(TraceDeterminism, SameSeedSameEventsSerial) {
  SMDB_SKIP_IF_TRACING_COMPILED_OUT();
  std::vector<TraceEvent> first = RunAndCollect(1);
  std::vector<TraceEvent> second = RunAndCollect(1);
  ASSERT_FALSE(first.empty());
  ExpectIdenticalTraces(first, second);
}

TEST(TraceDeterminism, SameSeedSameEventsParallelRecovery) {
  SMDB_SKIP_IF_TRACING_COMPILED_OUT();
  // Trace emission happens only on the coordinator path, so the recorded
  // sequence is deterministic even with 4 recovery worker streams.
  std::vector<TraceEvent> first = RunAndCollect(4);
  std::vector<TraceEvent> second = RunAndCollect(4);
  ASSERT_FALSE(first.empty());
  ExpectIdenticalTraces(first, second);
}

TEST(TraceDeterminism, RunCoversTheInstrumentedSubsystems) {
  SMDB_SKIP_IF_TRACING_COMPILED_OUT();
  std::vector<TraceEvent> events = RunAndCollect(1);
  std::set<TraceEventKind> kinds;
  for (const TraceEvent& ev : events) kinds.insert(ev.kind);
  // A crashing update-heavy workload must cross all the major families:
  // coherence traffic, WAL appends + forces, txn lifecycle, locks, the
  // crash itself, and recovery-phase spans with tag-scan decisions.
  EXPECT_TRUE(kinds.contains(TraceEventKind::kLogAppend));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kLogForce));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kTxnBegin));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kTxnCommit));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kLockAcquire));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kLockRelease));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kCrash));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kRecoveryPhase));
  bool coherence = kinds.contains(TraceEventKind::kMigration) ||
                   kinds.contains(TraceEventKind::kReplication) ||
                   kinds.contains(TraceEventKind::kInvalidation);
  EXPECT_TRUE(coherence) << "no coherence events on a shared workload";
}

TEST(TraceRecorderRing, DropOldestKeepsTheNewestAndCounts) {
  TraceRecorder rec(/*num_nodes=*/2, /*capacity_per_node=*/8);
  rec.set_enabled(true);
  for (uint64_t i = 0; i < 20; ++i) {
    rec.Record({.kind = TraceEventKind::kLogAppend, .node = 0, .a = i});
  }
  std::vector<TraceEvent> kept = rec.Events(0);
  ASSERT_EQ(kept.size(), 8u);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].a, 12 + i) << "ring must keep the newest 8";
  }
  EXPECT_EQ(rec.dropped(0), 12u);
  EXPECT_EQ(rec.dropped(1), 0u);
  EXPECT_EQ(rec.total_dropped(), 12u);
  EXPECT_EQ(rec.total_recorded(), 20u);
  // Tail returns the last n, oldest first.
  std::vector<TraceEvent> tail = rec.Tail(0, 3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].a, 17u);
  EXPECT_EQ(tail[2].a, 19u);
}

TEST(TraceRecorderRing, OutOfRangeNodeClampsToRingZero) {
  TraceRecorder rec(/*num_nodes=*/2, /*capacity_per_node=*/8);
  rec.set_enabled(true);
  rec.Record({.kind = TraceEventKind::kCrash, .node = 77});
  std::vector<TraceEvent> ring0 = rec.Events(0);
  ASSERT_EQ(ring0.size(), 1u);
  EXPECT_EQ(ring0[0].node, 77);  // original node id preserved in the event
  EXPECT_EQ(rec.total_recorded(), 1u);
}

TEST(TraceRecorderRing, DisabledRecorderRecordsNothing) {
  TraceRecorder rec(/*num_nodes=*/1, /*capacity_per_node=*/8);
  SMDB_TRACE(&rec, {.kind = TraceEventKind::kCrash, .node = 0});
  EXPECT_EQ(rec.total_recorded(), 0u);
  SMDB_TRACE(static_cast<TraceRecorder*>(nullptr),
             {.kind = TraceEventKind::kCrash, .node = 0});  // must not crash
}

TEST(ChromeTrace, ExportIsWellFormedWithPerNodeTracks) {
  SMDB_SKIP_IF_TRACING_COMPILED_OUT();
  Harness h(TracedConfig(1));
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto parsed = json::Value::Parse(h.db().tracer().ToChromeTrace());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array().empty());

  size_t thread_names = 0;
  size_t recovery_spans = 0;
  for (const json::Value& ev : events->array()) {
    ASSERT_TRUE(ev.is_object());
    const std::string ph = ev.GetString("ph");
    ASSERT_FALSE(ph.empty());
    ASSERT_NE(ev.Find("name"), nullptr);
    ASSERT_NE(ev.Find("pid"), nullptr);
    ASSERT_NE(ev.Find("tid"), nullptr);
    if (ph != "M") {
      ASSERT_NE(ev.Find("ts"), nullptr);
    }
    if (ph == "M" && ev.GetString("name") == "thread_name") ++thread_names;
    if (ph == "X") {
      ASSERT_NE(ev.Find("dur"), nullptr);
      const std::string name = ev.GetString("name");
      if (name == "recovery" || name == "redo" || name == "undo" ||
          name == "tag_scan" || name == "reload" || name == "reboot" ||
          name == "lock_rebuild" || name == "log_analysis") {
        ++recovery_spans;
      }
    }
  }
  EXPECT_EQ(thread_names, 6u) << "one metadata track per node";
  EXPECT_GT(recovery_spans, 0u) << "no recovery-phase spans in the export";
}

TEST(StatsParity, MachineStatsToStringCoversTheVisitorFieldSet) {
  MachineStats s;
  std::string dump = s.ToString();
  size_t visited = 0;
  ForEachCounter(s, [&](const char* name, uint64_t) {
    ++visited;
    EXPECT_NE(dump.find(std::string(name) + "="), std::string::npos)
        << "field " << name << " missing from MachineStats::ToString";
  });
  // Every name=value token in the dump corresponds to a visited field.
  size_t tokens = 0;
  for (size_t pos = dump.find('='); pos != std::string::npos;
       pos = dump.find('=', pos + 1)) {
    ++tokens;
  }
  EXPECT_EQ(tokens, visited);
  EXPECT_GE(visited, 10u);
}

TEST(StatsParity, LogStatsToStringCoversTheVisitorFieldSet) {
  LogStats s;
  std::string dump = s.ToString();
  size_t visited = 0;
  ForEachCounter(s, [&](const auto& name, uint64_t) {
    ++visited;
    EXPECT_NE(dump.find(std::string(name) + "="), std::string::npos)
        << "field " << std::string(name)
        << " missing from LogStats::ToString";
  });
  size_t tokens = 0;
  for (size_t pos = dump.find('='); pos != std::string::npos;
       pos = dump.find('=', pos + 1)) {
    ++tokens;
  }
  EXPECT_EQ(tokens, visited);
  // 6 scalars + 8 histogram buckets.
  EXPECT_EQ(visited, 6u + LogStats::kBatchBuckets);
}

TEST(Metrics, SnapshotUnifiesEverySubsystemAndRecoveryPhases) {
  SMDB_SKIP_IF_TRACING_COMPILED_OUT();
  Harness h(TracedConfig(1));
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->recoveries.empty());

  MetricsRegistry reg = MetricsRegistry::FromReport(*report);
  reg.AddTrace(h.db().tracer());
  json::Value snap = reg.ToJson();
  ASSERT_TRUE(snap.is_object());

  // One representative key per subsystem prefix.
  for (const char* key :
       {"machine.reads", "machine.migrations", "wal.appends", "wal.forces",
        "txn.undo_tag_writes", "locks.acquires", "btree.splits",
        "exec.committed", "disk.reads", "run.steps", "run.total_time_ns",
        "recovery.count", "trace.recorded", "trace.dropped"}) {
    EXPECT_NE(snap.Find(key), nullptr) << "missing " << key;
  }
  // The per-recovery phase gauges exist for every phase name.
  for (const char* phase : {"log_analysis", "reboot", "reload", "redo",
                            "undo", "tag_scan", "lock_rebuild"}) {
    std::string key = std::string("recovery.0.phase.") + phase + "_ns";
    EXPECT_NE(snap.Find(key), nullptr) << "missing " << key;
  }
  EXPECT_EQ(snap.GetUint("recovery.count"), report->recoveries.size());
  EXPECT_EQ(snap.GetUint("exec.committed"), report->exec.committed);
  EXPECT_GT(snap.GetUint("trace.recorded"), 0u);

  // The snapshot serializes and parses back.
  auto reparsed = json::Value::Parse(snap.Dump(1));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->members().size(), snap.members().size());
}

TEST(Metrics, PhaseDurationsSumIntoRecoveryTime) {
  Harness h(TracedConfig(1));
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->recoveries.empty());
  for (const RecoveryOutcome& out : report->recoveries) {
    SimTime phase_total = 0;
    for (SimTime ns : out.phase_ns) phase_total += ns;
    EXPECT_GT(phase_total, 0u);
    EXPECT_LE(phase_total, out.recovery_time_ns)
        << "phase spans exceed the recovery envelope";
    // The ToString dump now carries the nonzero phases.
    std::string dump = out.ToString();
    EXPECT_NE(dump.find("_ns="), std::string::npos) << dump;
  }
}

TEST(Forensics, IfaViolationYieldsABoundedReportInsideTheReplay) {
  SMDB_SKIP_IF_TRACING_COMPILED_OUT();
  CrashScheduleFuzzer::Options opts;
  opts.protocols = {RecoveryConfig::VolatileSelectiveRedo()};
  opts.disable_undo_tagging = true;
  opts.trace_capacity = 512;
  CrashScheduleFuzzer fuzzer(opts);

  std::optional<FuzzFailure> failure;
  for (uint64_t seed = 0; seed < 60 && !failure.has_value(); ++seed) {
    failure = fuzzer.RunSeed(seed);
  }
  ASSERT_TRUE(failure.has_value())
      << "disabled undo tagging was not detected within 60 seeds";
  ASSERT_EQ(failure->verdict.kind, "ifa-verify") << failure->verdict.detail;

  FuzzCase shrunk = fuzzer.Shrink(*failure);
  json::Value forensics = fuzzer.CollectForensics(*failure, shrunk);
  EXPECT_TRUE(forensics.GetBool("reproduced"));
  const json::Value* violation = forensics.Find("violation");
  ASSERT_NE(violation, nullptr);
  ASSERT_TRUE(violation->is_object()) << "violation not captured";
  EXPECT_FALSE(violation->GetString("detail").empty());

  const json::Value* tails = forensics.Find("trace_tails");
  ASSERT_NE(tails, nullptr);
  ASSERT_TRUE(tails->is_array());
  size_t tail_events = 0;
  for (const json::Value& node : tails->array()) {
    tail_events += node.Find("events")->array().size();
  }
  EXPECT_GT(tail_events, 0u) << "forensic report has empty trace tails";

  // The log chain may legitimately be empty — the offending update's log
  // record can die in the crashed node's volatile tail (the paper's
  // failure mode itself) — but the object's lock history comes from the
  // trace, which a simulated crash cannot destroy: a record violation
  // implies somebody locked and updated it.
  const json::Value* chain = forensics.Find("log_chain");
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(chain->Find("total"), nullptr);
  const json::Value* object_events = forensics.Find("object_events");
  ASSERT_NE(object_events, nullptr);
  EXPECT_FALSE(object_events->array().empty())
      << "no lock history for the violated object in the trace";
  ASSERT_NE(forensics.Find("locks"), nullptr);
  ASSERT_NE(forensics.Find("tag_decisions"), nullptr);

  // The report is embedded in the replay document, and the observability
  // settings round-trip through ParseReplay.
  std::string replay = fuzzer.ReplayJson(*failure, shrunk, &forensics);
  auto raw = json::Value::Parse(replay);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const json::Value* embedded = raw->Find("forensics");
  ASSERT_NE(embedded, nullptr);
  EXPECT_TRUE(embedded->GetBool("reproduced"));
  auto doc = CrashScheduleFuzzer::ParseReplay(replay);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->forensics_enabled);
  EXPECT_EQ(doc->trace_capacity, 512u);
}

TEST(Forensics, PerSeedCampaignAggregatesCoverEveryCounter) {
  CrashScheduleFuzzer::Options opts;
  FuzzCampaignResult result = RunFuzzCampaign(opts, 0, 6, 2);
  ASSERT_FALSE(result.failure.has_value());
  ASSERT_EQ(result.per_seed.size(), 6u);

  // Merging the per-seed blocks reproduces the campaign totals.
  FuzzStats remerged;
  for (const FuzzStats& s : result.per_seed) remerged.Merge(s);
  EXPECT_EQ(remerged.runs, result.stats.runs);
  EXPECT_EQ(remerged.committed, result.stats.committed);

  json::Value agg = PerSeedAggregateJson(result.per_seed);
  EXPECT_EQ(agg.GetUint("seeds"), 6u);
  FuzzStats probe;
  probe.ForEachCounter([&](const char* name, uint64_t) {
    const json::Value* entry = agg.Find(name);
    ASSERT_NE(entry, nullptr) << "aggregate missing " << name;
    EXPECT_NE(entry->Find("min"), nullptr);
    EXPECT_NE(entry->Find("max"), nullptr);
    EXPECT_NE(entry->Find("mean"), nullptr);
  });
  // min <= mean <= max on a counter that definitely varies.
  const json::Value* runs = agg.Find("runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_LE(runs->GetUint("min"), runs->GetUint("max"));
  EXPECT_GE(runs->GetDouble("mean"),
            static_cast<double>(runs->GetUint("min")));
  EXPECT_LE(runs->GetDouble("mean"),
            static_cast<double>(runs->GetUint("max")));
}

// ---- Latency observatory (histograms, time series, availability) -------

HarnessConfig ObservedConfig(uint32_t recovery_threads, bool obs_on) {
  HarnessConfig cfg = TracedConfig(recovery_threads);
  cfg.db.trace.enabled = false;
  cfg.db.obs.enabled = obs_on;
  return cfg;
}

TEST(LatencyHistogram, MergeIsPartitionAndOrderInvariant) {
  // Deterministic value stream spanning both the exact (<128) and the
  // log-bucketed range.
  std::vector<uint64_t> values;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x % (i % 3 == 0 ? 100 : 10'000'000));
  }
  Histogram whole;
  for (uint64_t v : values) whole.Record(v);

  for (size_t width : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    // Round-robin partitioning, the shape per-thread recording produces.
    std::vector<Histogram> shards(width);
    for (size_t i = 0; i < values.size(); ++i) {
      shards[i % width].Record(values[i]);
    }
    Histogram forward;
    for (const Histogram& s : shards) forward.Merge(s);
    Histogram reverse;
    for (size_t i = shards.size(); i-- > 0;) reverse.Merge(shards[i]);

    EXPECT_TRUE(forward == whole) << "merge order changed the counts";
    EXPECT_TRUE(reverse == whole);
    EXPECT_EQ(forward.count(), values.size());
    EXPECT_EQ(forward.P50(), whole.P50());
    EXPECT_EQ(forward.P90(), whole.P90());
    EXPECT_EQ(forward.P99(), whole.P99());
    EXPECT_EQ(forward.P999(), whole.P999());
    EXPECT_EQ(forward.min(), whole.min());
    EXPECT_EQ(forward.max(), whole.max());
    EXPECT_EQ(forward.sum(), whole.sum());
  }
}

TEST(LatencyHistogram, ExactBelowSubBucketsBoundedErrorAbove) {
  Histogram h;
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    size_t idx = Histogram::CountsIndex(v);
    EXPECT_EQ(Histogram::LowestEquivalent(idx), v) << "unit bucket expected";
    EXPECT_EQ(Histogram::HighestEquivalent(idx), v);
    h.Record(v);
  }
  EXPECT_EQ(h.CountInRange(0, Histogram::kSubBuckets - 1),
            uint64_t{Histogram::kSubBuckets});
  // Above the exact range the representative overshoots by at most 1/64.
  for (uint64_t v : {1'000ULL, 123'456ULL, 7'000'000'000ULL}) {
    size_t idx = Histogram::CountsIndex(v);
    uint64_t lo = Histogram::LowestEquivalent(idx);
    uint64_t hi = Histogram::HighestEquivalent(idx);
    EXPECT_LE(lo, v);
    EXPECT_GE(hi, v);
    EXPECT_LE(double(hi - lo), double(lo) / 64.0 + 1.0);
  }
  // Percentiles report the max exactly (the representative is clamped).
  h.Record(999);
  EXPECT_EQ(h.ValueAtPercentile(100.0), 999u);
  EXPECT_EQ(Histogram().P99(), 0u) << "empty histogram percentile";
}

TEST(TimeSeriesWindows, EdgeEventsAndEmptyWindowsAreExplicit) {
  TimeSeries ts(/*window_ns=*/100);
  ts.OnCommit(99);    // window 0
  ts.OnCommit(100);   // exactly on the edge -> window 1, not 0
  ts.OnCommit(950);   // window 9
  ts.OnBegin(950);
  ts.NoteInflight(950, 3);
  ASSERT_EQ(ts.windows().size(), 10u) << "windows are dense from t=0";
  EXPECT_EQ(ts.windows()[0].commits, 1u);
  EXPECT_EQ(ts.windows()[1].commits, 1u);
  for (size_t w = 2; w <= 8; ++w) {
    EXPECT_EQ(ts.windows()[w].commits, 0u) << "window " << w
                                           << " must be an explicit zero";
  }
  EXPECT_EQ(ts.windows()[9].commits, 1u);
  EXPECT_EQ(ts.windows()[9].max_inflight, 3u);
  EXPECT_EQ(ts.WindowIndex(200), 2u);
  EXPECT_EQ(ts.WindowStart(9), 900u);
  EXPECT_DOUBLE_EQ(ts.Tps(0), 1e9 / 100.0);
  EXPECT_DOUBLE_EQ(ts.Tps(5), 0.0);
}

TEST(TimeSeriesWindows, TroughWithCrashExactlyOnAWindowEdge) {
  TimeSeries s(/*window_ns=*/100);
  // Steady state: 4 commits per window for windows 0..4.
  for (SimTime w = 0; w < 5; ++w) {
    for (SimTime off : {10, 30, 50, 70}) s.OnCommit(w * 100 + off);
  }
  // Post-crash: two stragglers during the outage, then a recovered burst.
  s.OnCommit(760);
  s.OnCommit(900);
  for (SimTime t : {1500, 1520, 1540, 1560}) s.OnCommit(t);

  CrashAvailability ca;
  ca.crash_ts = 500;  // exactly on the window 4|5 boundary
  ComputeThroughputTrough(s, &ca);
  // Steady rate comes from windows strictly before the crash window: 4
  // commits / 100ns window.
  EXPECT_DOUBLE_EQ(ca.steady_tps, 4e7);
  // Trough: windows 5..14 all stay below half of steady (the straggler
  // windows hold 1 < 2); the burst window 15 ends it.
  EXPECT_EQ(ca.trough_windows, 10u);
  EXPECT_EQ(ca.trough_duration_ns, 1000u);
  EXPECT_DOUBLE_EQ(ca.trough_tps, 0.0);
  EXPECT_DOUBLE_EQ(ca.depth_pct, 100.0);

  // Crash at t=0: no pre-crash windows, steady falls back to the
  // whole-series mean and the busy first window means no trough at all.
  CrashAvailability at_zero;
  at_zero.crash_ts = 0;
  ComputeThroughputTrough(s, &at_zero);
  EXPECT_DOUBLE_EQ(at_zero.steady_tps, 26.0 / 16.0 * 1e7);
  EXPECT_EQ(at_zero.trough_windows, 0u);
}

TEST(Availability, HandBuiltCrashScheduleYieldsKnownTtfc) {
  ObsConfig oc;
  oc.enabled = true;
  oc.window_ns = 100;
  oc.crash_influence_ns = 500;
  Observatory obs(/*num_nodes=*/4, oc);

  // Steady phase: 4 commits per window for windows 0..4, latency 40 each.
  TxnId next = 1;
  for (SimTime w = 0; w < 5; ++w) {
    for (SimTime off : {10, 30, 50, 70}) {
      TxnId t = next++;
      obs.OnTxnBegin(0, t, w * 100 + off);
      obs.OnCommit(0, t, w * 100 + off, /*latency=*/40);
    }
  }
  // Node 1 crashes at t=500; recovery runs 500..700; the node restarts at
  // 650 (mid-pass, as RestartNodes does).
  obs.OnNodeDown(1, 500);
  obs.OnRecoveryStart({1}, 500);
  obs.OnNodeUp(1, 650);
  obs.OnRecoveryEnd(700);
  // First commit anywhere after the crash: node 2 at t=760.
  obs.OnTxnBegin(2, next, 720);
  obs.OnCommit(2, next++, 760, 40);
  // First commit on the restarted node: t=900.
  obs.OnTxnBegin(1, next, 800);
  obs.OnCommit(1, next++, 900, 100);
  // Recovered burst well past the crash shadow (ends 700 + 500 = 1200).
  for (SimTime t : {1500, 1520, 1540, 1560}) {
    obs.OnTxnBegin(0, next, t - 40);
    obs.OnCommit(0, next++, t, 40);
  }

  LatencyReport rep = obs.Snapshot();
  ASSERT_TRUE(rep.enabled);
  ASSERT_EQ(rep.availability.crashes.size(), 1u);
  const CrashAvailability& c = rep.availability.crashes[0];
  EXPECT_EQ(c.crash_ts, 500u);
  EXPECT_EQ(c.recovery_end_ts, 700u);
  EXPECT_TRUE(c.saw_commit_after);
  EXPECT_EQ(c.ttfc_ns(), 260u) << "first commit at 760, crash at 500";
  ASSERT_EQ(c.node_ttfc.size(), 1u);
  EXPECT_EQ(c.node_ttfc[0].node, 1u);
  EXPECT_TRUE(c.node_ttfc[0].committed);
  EXPECT_EQ(c.node_ttfc[0].ttfc_ns(), 250u) << "restart 650, commit 900";
  EXPECT_EQ(c.trough_windows, 10u);
  EXPECT_DOUBLE_EQ(c.depth_pct, 100.0);

  // Latency split: the 2 commits inside the crash shadow vs 24 steady.
  EXPECT_EQ(rep.commit_latency.count(), 26u);
  EXPECT_EQ(rep.commit_through_crash.count(), 2u);
  EXPECT_EQ(rep.commit_steady.count(), 24u);
  EXPECT_EQ(rep.commit_steady.P50(), 40u);
  EXPECT_EQ(rep.commit_through_crash.max(), 100u);

  // Node-state timeline: down@500(n1), survivors recovering@500 (n0,2,3),
  // restarted node recovering@650, everyone serving@700.
  ASSERT_EQ(rep.node_states.size(), 9u);
  EXPECT_EQ(rep.node_states[0].node, 1u);
  EXPECT_EQ(rep.node_states[0].state, NodeServiceState::kDown);
  EXPECT_EQ(rep.node_states[0].ts, 500u);
  EXPECT_EQ(rep.node_states[4].node, 1u);
  EXPECT_EQ(rep.node_states[4].state, NodeServiceState::kRecovering);
  EXPECT_EQ(rep.node_states[4].ts, 650u);
  for (size_t i = 5; i < 9; ++i) {
    EXPECT_EQ(rep.node_states[i].state, NodeServiceState::kServing);
    EXPECT_EQ(rep.node_states[i].ts, 700u);
  }
}

TEST(Availability, RestartedNodeThatNeverCommitsIsReportedUncommitted) {
  ObsConfig oc;
  oc.enabled = true;
  Observatory obs(/*num_nodes=*/2, oc);
  obs.OnTxnBegin(0, 1, 10);
  obs.OnCommit(0, 1, 50, 40);
  obs.OnNodeDown(1, 100);
  obs.OnRecoveryStart({1}, 100);
  obs.OnNodeUp(1, 150);
  obs.OnRecoveryEnd(200);
  // No commits after the crash at all.
  LatencyReport rep = obs.Snapshot();
  ASSERT_EQ(rep.availability.crashes.size(), 1u);
  const CrashAvailability& c = rep.availability.crashes[0];
  EXPECT_FALSE(c.saw_commit_after);
  EXPECT_EQ(c.ttfc_ns(), 0u);
  ASSERT_EQ(c.node_ttfc.size(), 1u);
  EXPECT_EQ(c.node_ttfc[0].node, 1u);
  EXPECT_FALSE(c.node_ttfc[0].committed);
  EXPECT_EQ(c.node_ttfc[0].ttfc_ns(), 0u);
}

TEST(Availability, LockContentionProfileRanksAndClearsPendingWaits) {
  ObsConfig oc;
  oc.enabled = true;
  oc.top_contended = 2;
  Observatory obs(/*num_nodes=*/1, oc);
  obs.OnTxnBegin(0, 1, 0);
  obs.OnTxnBegin(0, 2, 0);
  // Lock 777: two waits totalling 180ns; lock 888: one wait of 130ns.
  obs.OnLockQueued(1, 777, 10);
  obs.OnLockGranted(1, 777, 60);  // wait 50
  obs.OnLockQueued(2, 777, 70);
  obs.OnLockGranted(2, 777, 200);  // wait 130
  obs.OnLockQueued(1, 888, 70);
  obs.OnLockGranted(1, 888, 200);  // wait 130
  // A grant that was never queued is ignored.
  obs.OnLockGranted(9, 123, 10);
  // A wait still pending when the txn ends must not dangle: the later
  // grant no longer matches anything.
  obs.OnLockQueued(1, 999, 300);
  obs.OnCommit(0, 1, 400, 400);
  obs.OnLockGranted(1, 999, 900);

  LatencyReport rep = obs.Snapshot();
  EXPECT_EQ(rep.lock_wait.count(), 3u);
  EXPECT_EQ(rep.lock_wait.max(), 130u);
  ASSERT_EQ(rep.top_contended.size(), 2u);
  EXPECT_EQ(rep.top_contended[0].name, 777u);
  EXPECT_EQ(rep.top_contended[0].waits, 2u);
  EXPECT_EQ(rep.top_contended[0].total_wait_ns, 180u);
  EXPECT_EQ(rep.top_contended[0].max_wait_ns, 130u);
  EXPECT_DOUBLE_EQ(rep.top_contended[0].mean_wait_ns(), 90.0);
  EXPECT_EQ(rep.top_contended[1].name, 888u);
  EXPECT_EQ(rep.top_contended[1].total_wait_ns, 130u);

  // Duplicate completion of an already-finished txn is a no-op.
  obs.OnCommit(0, 1, 500, 500);
  EXPECT_EQ(obs.Snapshot().commit_latency.count(), 1u);
}

TEST(Metrics, LatencyAvailabilityAndContentionKeysAreStable) {
  Harness h(ObservedConfig(1, /*obs_on=*/true));
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->latency.enabled);
  ASSERT_FALSE(report->recoveries.empty());

  json::Value snap = MetricsRegistry::FromReport(*report).ToJson();
  for (const char* hist : {"commit", "abort", "lock_wait", "gc_residency",
                           "commit_steady", "commit_through_crash"}) {
    for (const char* stat : {"count", "mean_ns", "p50_ns", "p90_ns",
                             "p99_ns", "p999_ns", "max_ns"}) {
      std::string key = std::string("latency.") + hist + "." + stat;
      EXPECT_NE(snap.Find(key), nullptr) << "missing " << key;
    }
  }
  EXPECT_GT(snap.GetUint("latency.commit.count"), 0u);
  ASSERT_NE(snap.Find("availability.crashes"), nullptr);
  EXPECT_EQ(snap.GetUint("availability.crashes"),
            report->recoveries.size());
  for (size_t i = 0; i < report->recoveries.size(); ++i) {
    const std::string p = "availability." + std::to_string(i) + ".";
    for (const char* leaf : {"crash_ts_ns", "recovery_end_ts_ns", "ttfc_ns",
                             "steady_tps", "trough_depth_pct",
                             "trough_duration_ns"}) {
      EXPECT_NE(snap.Find(p + leaf), nullptr) << "missing " << p << leaf;
    }
  }
  ASSERT_NE(snap.Find("locks.contention.count"), nullptr);

  // The full latency report serializes and exposes its stable sections.
  auto parsed = json::Value::Parse(report->latency.ToJson().Dump(1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const char* key : {"latency", "series", "availability",
                          "node_state_transitions", "lock_contention"}) {
    EXPECT_NE(parsed->Find(key), nullptr) << "missing section " << key;
  }

  // With the observatory off the latency keys vanish rather than showing
  // up zeroed — downstream dashboards can key off presence.
  Harness off(ObservedConfig(1, /*obs_on=*/false));
  auto off_report = off.Run();
  ASSERT_TRUE(off_report.ok()) << off_report.status().ToString();
  EXPECT_FALSE(off_report->latency.enabled);
  json::Value off_snap = MetricsRegistry::FromReport(*off_report).ToJson();
  EXPECT_EQ(off_snap.Find("latency.commit.count"), nullptr);
  EXPECT_EQ(off_snap.Find("availability.crashes"), nullptr);
}

TEST(ObservatoryDeterminism, DigestsBitIdenticalObservatoryOnVsOff) {
  auto run = [](bool obs_on) {
    HarnessConfig cfg = ObservedConfig(1, obs_on);
    cfg.capture_digests = true;
    Harness h(cfg);
    auto report = h.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report->digests;
  };
  std::vector<StateDigest> off = run(false);
  std::vector<StateDigest> on = run(true);
  ASSERT_FALSE(off.empty());
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_TRUE(off[i] == on[i])
        << "digest " << i << " diverged:\n  off " << off[i].ToString()
        << "\n  on  " << on[i].ToString();
  }
}

TEST(ObservatoryDeterminism, HistogramsInvariantAcrossRecoveryThreadWidths) {
  auto run = [](uint32_t threads) {
    Harness h(ObservedConfig(threads, /*obs_on=*/true));
    auto report = h.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report->latency;
  };
  // At every width, a repeated run yields a bit-identical report — every
  // histogram, the availability timeline, and the contention ranking.
  // (recovery_threads models *simulated* parallel recovery, which by
  // design shortens the recovery envelope; cross-width, the quantities
  // derived from the identical pre-crash execution must agree exactly.)
  LatencyReport w1 = run(1);
  std::vector<LatencyReport> reports;
  for (uint32_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(threads));
    LatencyReport a = run(threads);
    LatencyReport b = run(threads);
    ASSERT_GT(a.commit_latency.count(), 0u);
    EXPECT_TRUE(a.commit_latency == b.commit_latency);
    EXPECT_TRUE(a.abort_latency == b.abort_latency);
    EXPECT_TRUE(a.lock_wait == b.lock_wait);
    EXPECT_TRUE(a.gc_residency == b.gc_residency);
    EXPECT_TRUE(a.commit_steady == b.commit_steady);
    EXPECT_TRUE(a.commit_through_crash == b.commit_through_crash);
    EXPECT_EQ(a.commit_latency.P99(), b.commit_latency.P99());
    EXPECT_EQ(a.commit_latency.P999(), b.commit_latency.P999());
    ASSERT_EQ(a.availability.crashes.size(), b.availability.crashes.size());
    for (size_t i = 0; i < a.availability.crashes.size(); ++i) {
      EXPECT_EQ(a.availability.crashes[i].ttfc_ns(),
                b.availability.crashes[i].ttfc_ns());
      EXPECT_EQ(a.availability.crashes[i].trough_windows,
                b.availability.crashes[i].trough_windows);
    }
    ASSERT_EQ(a.top_contended.size(), b.top_contended.size());
    for (size_t i = 0; i < a.top_contended.size(); ++i) {
      EXPECT_EQ(a.top_contended[i].name, b.top_contended[i].name);
      EXPECT_EQ(a.top_contended[i].total_wait_ns,
                b.top_contended[i].total_wait_ns);
    }
    reports.push_back(std::move(a));
  }
  // Cross-width: the same transactions commit (state equivalence across
  // recovery widths, per the differential oracle), and everything anchored
  // before the first crash is timing-identical — the crash instant and the
  // steady throughput derived from the pre-crash windows.
  for (size_t i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE("cross-width report " + std::to_string(i));
    EXPECT_EQ(reports[i].commit_latency.count(),
              w1.commit_latency.count());
    EXPECT_EQ(reports[i].abort_latency.count(), w1.abort_latency.count());
    ASSERT_EQ(reports[i].availability.crashes.size(),
              w1.availability.crashes.size());
    ASSERT_FALSE(w1.availability.crashes.empty());
    EXPECT_EQ(reports[i].availability.crashes[0].crash_ts,
              w1.availability.crashes[0].crash_ts);
    EXPECT_DOUBLE_EQ(reports[i].availability.crashes[0].steady_tps,
                     w1.availability.crashes[0].steady_tps);
  }
}

TEST(StatsParity, ForceBatchHistogramMatchesTheClassicBuckets) {
  LogStats s;
  uint64_t manual[LogStats::kBatchBuckets] = {};
  for (uint64_t n = 1; n <= 200; ++n) {
    s.force_batches.Record(n);
    size_t b = LogStats::BatchBucket(n);
    ++manual[b];
    auto [lo, hi] = LogStats::BatchBucketRange(b);
    EXPECT_GE(n, lo) << "bucket range excludes its own member";
    EXPECT_LE(n, hi);
  }
  uint64_t total = 0;
  for (size_t b = 0; b < LogStats::kBatchBuckets; ++b) {
    EXPECT_EQ(s.force_batch_bucket(b), manual[b]) << "bucket " << b << " ("
                                                  << LogStats::BatchBucketLabel(b)
                                                  << ")";
    total += s.force_batch_bucket(b);
  }
  EXPECT_EQ(total, 200u) << "derived buckets must partition the recordings";
  EXPECT_EQ(s.max_force_batch(), 200u);
}

// ---- Execution/recovery profiler ---------------------------------------

// Under -DSMDB_DISABLE_PROFILER the emission sites (and the runtime
// enable) are compiled out; the attribution tests skip.
#ifdef SMDB_PROFILER_DISABLED
constexpr bool kProfilerCompiledOut = true;
#else
constexpr bool kProfilerCompiledOut = false;
#endif

#define SMDB_SKIP_IF_PROFILER_COMPILED_OUT()               \
  if (kProfilerCompiledOut) {                              \
    GTEST_SKIP() << "profiler compiled out (SMDB_PROFILER_DISABLED)"; \
  }

HarnessConfig ProfiledConfig(bool prof_on = true) {
  HarnessConfig cfg = TracedConfig(/*recovery_threads=*/1);
  cfg.db.trace.enabled = false;
  cfg.db.profiler.enabled = prof_on;
  cfg.capture_digests = true;
  return cfg;
}

// The standard mix (bench StandardConfig) at 200 txns/node with the steal
// daemon flushing a dirty page on 1% of steps. Every flush forces the
// logs the WAL gate names, so the number and placement of disk writes and
// forces is sensitive to when each daemon draw lands relative to the steps.
HarnessConfig StealConfig(bool prof_on) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = 8;
  cfg.db.recovery = RecoveryConfig::VolatileSelectiveRedo();
  cfg.db.profiler.enabled = prof_on;
  cfg.num_records = 256;
  cfg.workload.txns_per_node = 200;
  cfg.workload.ops_per_txn = 8;
  cfg.workload.write_ratio = 0.5;
  cfg.workload.index_op_ratio = 0.15;
  cfg.workload.seed = 42;
  cfg.seed = 42 ^ 0xBEEF;
  cfg.steal_flush_prob = 0.01;
  cfg.capture_digests = true;
  return cfg;
}

TEST(ProfilerDeterminism, DigestsBitIdenticalProfilerOnVsOff) {
  SMDB_SKIP_IF_PROFILER_COMPILED_OUT();
  const std::pair<const char*, HarnessConfig (*)(bool)> inputs[] = {
      {"crashing run", [](bool on) { return ProfiledConfig(on); }},
      {"steal_flush_prob = 0.01", StealConfig},
  };
  for (const auto& [name, make] : inputs) {
    SCOPED_TRACE(name);
    Harness off(make(/*prof_on=*/false));
    auto off_report = off.Run();
    ASSERT_TRUE(off_report.ok()) << off_report.status().ToString();
    Harness on(make(/*prof_on=*/true));
    auto on_report = on.Run();
    ASSERT_TRUE(on_report.ok()) << on_report.status().ToString();

    EXPECT_FALSE(off_report->profile.enabled);
    ASSERT_TRUE(on_report->profile.enabled);
    ASSERT_FALSE(off_report->digests.empty());
    ASSERT_EQ(off_report->digests.size(), on_report->digests.size());
    for (size_t i = 0; i < off_report->digests.size(); ++i) {
      EXPECT_TRUE(off_report->digests[i] == on_report->digests[i])
          << "digest " << i << " diverged:\n  off "
          << off_report->digests[i].ToString() << "\n  on  "
          << on_report->digests[i].ToString();
    }
    EXPECT_EQ(off_report->exec.committed, on_report->exec.committed);
    EXPECT_EQ(off_report->total_time_ns, on_report->total_time_ns);
    EXPECT_EQ(off_report->disk_writes, on_report->disk_writes);
    EXPECT_EQ(off_report->logs.forces, on_report->logs.forces);
  }
}

TEST(ProfilerAttribution, SweepDischargesAreAttributedAndDeterministic) {
  SMDB_SKIP_IF_PROFILER_COMPILED_OUT();
  auto run = [] {
    HarnessConfig cfg = ProfiledConfig();
    cfg.db.recovery.on_demand = true;
    cfg.pump_recovery_per_step = 1;
    Harness h(cfg);
    auto report = h.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->verify_status.ok())
        << report->verify_status.ToString();
    return report->profile;
  };
  ProfilerReport a = run();
  ProfilerReport b = run();
  // Sweep discharges attribute their coherence/WAL costs under the sweep
  // root, and two identical configs attribute identically.
  bool saw_sweep_root = false;
  for (const auto& [path, cell] : a.phases) {
    if (path.rfind("sweep", 0) == 0) saw_sweep_root = true;
  }
  EXPECT_TRUE(saw_sweep_root) << "no sweep-rooted phase cells";
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (const auto& [path, cell] : a.phases) {
    auto it = b.phases.find(path);
    ASSERT_NE(it, b.phases.end()) << path;
    EXPECT_EQ(cell.ns, it->second.ns) << path;
    EXPECT_EQ(cell.ticks, it->second.ticks) << path;
    EXPECT_EQ(cell.samples, it->second.samples) << path;
  }
}

TEST(ProfilerExport, CollapsedStackAndJsonAreWellFormed) {
  SMDB_SKIP_IF_PROFILER_COMPILED_OUT();
  Harness h(ProfiledConfig());
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ProfilerReport& p = report->profile;
  ASSERT_FALSE(p.phases.empty());

  // Every phase path is rooted at a coordinator unit of work, and a
  // crashing run covers both the step and the recovery trees.
  std::set<std::string> roots;
  for (const auto& [path, cell] : p.phases) {
    roots.insert(path.substr(0, path.find(';')));
  }
  for (const std::string& root : roots) {
    EXPECT_TRUE(root == "step" || root == "sweep" || root == "recovery")
        << "unknown root " << root;
  }
  EXPECT_TRUE(roots.contains("step"));
  EXPECT_TRUE(roots.contains("recovery"));

  // Collapsed stacks: "<stack> <uint>" per line, one line per cell.
  std::string collapsed = p.ToCollapsed();
  size_t lines = 0;
  size_t start = 0;
  while (start < collapsed.size()) {
    size_t nl = collapsed.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "unterminated collapsed line";
    std::string line = collapsed.substr(start, nl - start);
    start = nl + 1;
    ++lines;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.substr(space + 1).find_first_not_of("0123456789"),
              std::string::npos)
        << line;
    EXPECT_NE(p.phases.find(line.substr(0, space)), p.phases.end()) << line;
  }
  EXPECT_EQ(lines, p.phases.size());

  // The standalone profile document parses back and cross-checks.
  json::Value doc = ProfileJsonFromReport(*report);
  auto reparsed = json::Value::Parse(doc.Dump(1));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const json::Value* prof = reparsed->Find("profiler");
  ASSERT_NE(prof, nullptr);
  EXPECT_TRUE(prof->GetBool("enabled"));
  const json::Value* phases = prof->Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(phases->members().size(), p.phases.size());
}

TEST(Metrics, SnapshotIdenticalProfilerOnVsOff) {
  // The profiler exports through its own document (ProfileJsonFromReport),
  // never through the metrics snapshot, and it only reads the simulated
  // clock: the snapshot is byte-identical with it on or off.
  Harness on(ProfiledConfig(/*prof_on=*/true));
  auto on_report = on.Run();
  ASSERT_TRUE(on_report.ok()) << on_report.status().ToString();
  Harness off(ProfiledConfig(/*prof_on=*/false));
  auto off_report = off.Run();
  ASSERT_TRUE(off_report.ok()) << off_report.status().ToString();
  EXPECT_EQ(MetricsRegistry::FromReport(*on_report).ToJson().Dump(1),
            MetricsRegistry::FromReport(*off_report).ToJson().Dump(1));
}

}  // namespace
}  // namespace smdb
