#ifndef SMDB_SIM_DIRECTORY_H_
#define SMDB_SIM_DIRECTORY_H_

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "sim/line_table.h"

namespace smdb {

/// Directory entry for one cache line: who caches it, whether the home
/// memory copy is current, and the failure-related flags.
struct DirEntry {
  /// Node whose (distributed) main memory is the home of this line.
  NodeId home = kInvalidNode;
  /// Bitmask of nodes holding a valid cached copy.
  uint64_t sharers = 0;
  /// Node holding the line exclusively (kInvalidNode unless exactly one
  /// cached copy exists in Exclusive state).
  NodeId owner = kInvalidNode;
  /// True if the home memory copy matches the most recent write.
  bool mem_valid = false;
  /// Contents of the home memory copy (possibly stale when !mem_valid):
  /// line_size bytes owned by the Directory.
  uint8_t* mem_data = nullptr;
  /// True if no valid copy survived a crash: references return an invalid
  /// flag until software re-materialises the line.
  bool lost = false;
  /// The "active data" bit the paper proposes adding per cache line to
  /// trigger Stable LBM log forces on migration (section 5.2).
  bool active_bit = false;
  /// Last node to write this line; used for the sharing-pattern statistics.
  NodeId last_writer = kInvalidNode;

  bool cached_anywhere() const { return sharers != 0; }
  bool cached_by(NodeId n) const { return (sharers >> n) & 1; }
  int num_sharers() const { return __builtin_popcountll(sharers); }
};

/// The machine-wide cache directory. In hardware this is distributed among
/// the memory controllers; here it is a single table indexed directly by
/// LineAddr (see LineTable), which is equivalent for a functional + timing
/// simulation. An entry exists only once its line has been touched, so
/// "never touched" (Find == nullptr) stays distinct from "created". Returned
/// DirEntry references stay valid across later Creates.
class Directory {
 public:
  explicit Directory(uint32_t line_size)
      : line_size_(line_size), entries_(line_size) {}

  /// Creates the entry for absent `line` with the given home node and
  /// zero-filled, current home memory.
  DirEntry& Create(LineAddr line, NodeId home);

  /// Returns the entry for `line` or nullptr.
  DirEntry* Find(LineAddr line) { return entries_.Find(line); }
  const DirEntry* Find(LineAddr line) const { return entries_.Find(line); }

  /// Iterates over all known lines, in unspecified order.
  void ForEach(const std::function<void(LineAddr, DirEntry&)>& fn) {
    entries_.ForEach(fn);
  }

  size_t size() const { return entries_.size(); }

 private:
  uint32_t line_size_;
  LineTable<DirEntry> entries_;
};

}  // namespace smdb

#endif  // SMDB_SIM_DIRECTORY_H_
