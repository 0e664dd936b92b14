// Input from outside the program — smdb_run's flags and fuzzer replay
// documents — goes through checked number parsing and
// HarnessConfig::Validate. Every bad input below used to crash, hang or
// run silently; each must now come back as InvalidArgument.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parse.h"
#include "fuzz/fuzzer.h"
#include "workload/run_flags.h"

namespace smdb {
namespace {

TEST(InputValidation, BadRunFlagsAreInvalidArgument) {
  const std::vector<std::vector<std::string>> cases = {
      {"--nodes=0"},                  // SIGFPE (modulo by node count)
      {"--nodes=65"},                 // SIGSEGV (64-bit sharer masks)
      {"--records=0"},                // SIGFPE (empty table)
      {"--nodes=abc"},                // uncaught std::invalid_argument
      {"--txns=-1"},                  // wrapped to 2^64-1 and hung
      {"--record-bytes=100000"},      // wrapped, then OOM
      {"--record-bytes=119"},         // slot no longer fits a 128-byte line
      {"--crash=5:99"},               // node 99 of a 4-node machine: ran
      {"--crash=5"},                  // no node
      {"--crash=5:1:x"},              // restart suffix must be "r"
      {"--write-ratio=1.5"},          // ratio outside [0, 1]
      {"--steal=nan"},                // not a finite number
      {"--zipf=1"},                   // Zipf skew outside [0, 1)
      {"--recovery-threads=0"},
      {"--exec-threads=2"},           // the option no longer exists
      {"--nodes=8", "--crash=10:8"},  // node ids are 0-based
  };
  for (const auto& args : cases) {
    std::string joined;
    for (const auto& a : args) joined += a + " ";
    SCOPED_TRACE(joined);
    auto flags = ParseRunFlags(args);
    ASSERT_FALSE(flags.ok());
    EXPECT_EQ(flags.status().code(), Status::Code::kInvalidArgument)
        << flags.status().ToString();
  }
}

TEST(InputValidation, GoodRunFlagsParse) {
  auto flags = ParseRunFlags({"--nodes=64", "--records=1", "--txns=0",
                              "--record-bytes=118", "--crash=5:63:r",
                              "--zipf=0.9", "--steal=0.01"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->cfg.db.machine.num_nodes, 64);
  ASSERT_EQ(flags->cfg.crashes.size(), 1u);
  EXPECT_EQ(flags->cfg.crashes[0].nodes, std::vector<NodeId>{63});
  EXPECT_TRUE(flags->cfg.crashes[0].restart_after);
}

TEST(InputValidation, CheckedNumberParsing) {
  uint16_t u16 = 7;
  EXPECT_TRUE(ParseUint("65535", &u16));
  EXPECT_EQ(u16, 65535);
  for (const char* bad : {"65536", "-1", "", " 1", "1 ", "1x", "+1"}) {
    EXPECT_FALSE(ParseUint(bad, &u16)) << bad;
  }
  EXPECT_EQ(u16, 65535) << "a failed parse leaves the target alone";
  double d = 0;
  EXPECT_TRUE(ParseDouble("0.25", &d));
  EXPECT_EQ(d, 0.25);
  for (const char* bad : {"", "inf", "nan", "1e999", "0.5x", ".5.5"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
}

// A replay document for `fuzz_case`, as the fuzzer writes it.
std::string ReplayDoc(const FuzzCase& fuzz_case) {
  CrashScheduleFuzzer fuzzer;
  FuzzFailure failure{1, fuzz_case, RecoveryConfig::VolatileSelectiveRedo(),
                      {true, "ifa-verify", "recorded"}};
  return fuzzer.ReplayJson(failure, fuzz_case);
}

TEST(InputValidation, BadReplayDocumentsAreInvalidArgument) {
  const FuzzCase good = SampleFuzzCase(1);
  ASSERT_TRUE(CrashScheduleFuzzer::ParseReplay(ReplayDoc(good)).ok());

  std::vector<std::pair<std::string, std::string>> docs;
  FuzzCase c = good;
  c.num_nodes = 200;  // SIGSEGV
  docs.emplace_back("num_nodes=200", ReplayDoc(c));
  c = good;
  c.num_records = 0;  // SIGFPE
  docs.emplace_back("num_records=0", ReplayDoc(c));
  c = good;
  c.num_nodes = 0;
  docs.emplace_back("num_nodes=0", ReplayDoc(c));
  c = good;
  c.crashes = {CrashPlan{10, {static_cast<NodeId>(good.num_nodes)}, false}};
  docs.emplace_back("crash node out of range", ReplayDoc(c));
  {
    // Wraps to 0 when narrowed to the 16-bit field.
    auto doc = json::Value::Parse(ReplayDoc(good));
    ASSERT_TRUE(doc.ok());
    json::Value fuzz_case = *doc->Find("case");
    fuzz_case.Set("num_nodes", json::Value::Uint(65536));
    doc->Set("case", fuzz_case);
    docs.emplace_back("num_nodes=65536", doc->Dump());
  }
  {
    // Recorded with steal flushes deferred to sharded-execution barriers.
    auto doc = json::Value::Parse(ReplayDoc(good));
    ASSERT_TRUE(doc.ok());
    doc->Set("execution_threads", json::Value::Uint(2));
    docs.emplace_back("execution_threads=2", doc->Dump());
  }
  for (const auto& [name, text] : docs) {
    SCOPED_TRACE(name);
    auto parsed = CrashScheduleFuzzer::ParseReplay(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument)
        << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace smdb
