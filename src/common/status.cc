#include "common/status.h"

#include "common/types.h"

namespace smdb {
namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "OK";
    case Status::Code::kNotFound: return "NotFound";
    case Status::Code::kCorruption: return "Corruption";
    case Status::Code::kInvalidArgument: return "InvalidArgument";
    case Status::Code::kBusy: return "Busy";
    case Status::Code::kTryAgain: return "TryAgain";
    case Status::Code::kDeadlock: return "Deadlock";
    case Status::Code::kNodeFailed: return "NodeFailed";
    case Status::Code::kLineLost: return "LineLost";
    case Status::Code::kAborted: return "Aborted";
    case Status::Code::kNotSupported: return "NotSupported";
    case Status::Code::kIoError: return "IoError";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  std::string out = CodeName(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

std::string ToString(const RecordId& rid) {
  std::string out = "p";
  out += std::to_string(rid.page);
  out += ".s";
  out += std::to_string(rid.slot);
  return out;
}

}  // namespace smdb
