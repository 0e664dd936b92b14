#ifndef SMDB_SIM_CACHE_H_
#define SMDB_SIM_CACHE_H_

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "sim/line_table.h"

namespace smdb {

/// Validity state of a line in one node's cache. kExclusive covers both the
/// MESI E and M states: the node holds the only cached copy and may write it
/// without a coherence action. Whether the home memory copy is also current
/// is tracked by the directory (`mem_valid`), not here.
enum class LineState : uint8_t {
  kInvalid = 0,
  kShared,
  kExclusive,
};

/// One node's cache: line address -> (state, data), indexed directly by
/// LineAddr (see LineTable). The Machine performs all state transitions;
/// Cache is plain storage plus scan support. `Entry::data` points at the
/// line's line_size bytes and stays valid until the line is erased.
///
/// Selective Redo's restart step ("each surviving node will perform a
/// sequential search of all cache lines") is served by ForEachLine.
class Cache {
 public:
  struct Entry {
    LineState state = LineState::kInvalid;
    uint8_t* data = nullptr;
  };

  explicit Cache(uint32_t line_size)
      : line_size_(line_size), lines_(line_size) {}

  /// Returns the entry for `line`, or nullptr if not cached.
  Entry* Find(LineAddr line) { return lines_.Find(line); }
  const Entry* Find(LineAddr line) const { return lines_.Find(line); }

  /// Inserts or replaces the entry for `line`, copying line_size bytes from
  /// `data` (which may be the entry's own data).
  Entry& Insert(LineAddr line, LineState state, const uint8_t* data);

  /// Drops `line` from the cache (no writeback; the simulator's caller is
  /// responsible for preserving data if needed).
  void Erase(LineAddr line) { lines_.Remove(line); }

  /// Destroys the entire cache contents (used by crash injection and by the
  /// Redo All recovery scheme's "discard all cached database records" step).
  void Clear() { lines_.Clear(); }

  /// Number of resident lines.
  size_t size() const { return lines_.size(); }

  /// Sequential scan over all resident lines, in unspecified order.
  void ForEachLine(
      const std::function<void(LineAddr, const Entry&)>& fn) const;

  uint32_t line_size() const { return line_size_; }

 private:
  uint32_t line_size_;
  LineTable<Entry> lines_;
};

}  // namespace smdb

#endif  // SMDB_SIM_CACHE_H_
