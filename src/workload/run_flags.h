#ifndef SMDB_WORKLOAD_RUN_FLAGS_H_
#define SMDB_WORKLOAD_RUN_FLAGS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "workload/harness.h"

namespace smdb {

/// smdb_run's command line, parsed: the run's HarnessConfig plus the
/// output switches.
struct RunFlags {
  HarnessConfig cfg;
  bool verbose = false;
  std::string trace_out;     ///< Chrome trace-event file ("" = no trace)
  std::string stats_json;    ///< unified metrics snapshot ("" = none)
  std::string latency_json;  ///< observatory export ("" = none)
  std::string profile_out;   ///< profiler JSON (+ .collapsed) ("" = none)
};

/// Parses smdb_run's flags (the arguments after the program name). Numbers
/// are parsed checked (no wrapping, no trailing junk), and the assembled
/// config must pass HarnessConfig::Validate. Any failure is an
/// InvalidArgument naming the flag or setting.
Result<RunFlags> ParseRunFlags(const std::vector<std::string>& args);

}  // namespace smdb

#endif  // SMDB_WORKLOAD_RUN_FLAGS_H_
