#include "sim/directory.h"

#include <cstring>

namespace smdb {

DirEntry& Directory::Create(LineAddr line, NodeId home) {
  uint8_t* bytes = nullptr;
  DirEntry& e = entries_.Add(line, &bytes);
  e.home = home;
  e.mem_data = bytes;
  std::memset(e.mem_data, 0, line_size_);
  e.mem_valid = true;  // zero-filled fresh memory is "current"
  return e;
}

}  // namespace smdb
