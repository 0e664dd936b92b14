#ifndef SMDB_SIM_LINE_TABLE_H_
#define SMDB_SIM_LINE_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace smdb {

/// Per-line bookkeeping indexed directly by LineAddr: a `T` plus one line's
/// worth of bytes for every line present. The simulated address space is a
/// dense bump allocation, so a flat line -> slot index beats hashing on the
/// machine's hot path.
///
/// Slots live in fixed-size chunks that are never moved or freed before the
/// table itself: a `T&` or a bytes pointer stays valid across later Adds
/// (callers hold DirEntry references and cache-data pointers while other
/// lines are created). One chunk allocation serves kChunk lines, so there is
/// no per-line heap allocation. Removed and cleared slots are reused.
/// Iteration order is unspecified.
template <typename T>
class LineTable {
 public:
  explicit LineTable(uint32_t line_size) : line_size_(line_size) {}

  /// The value for `line`, or nullptr if the line is absent.
  T* Find(LineAddr line) {
    if (line >= slot_of_.size()) return nullptr;
    const uint32_t s = slot_of_[line];
    return s == 0 ? nullptr : &At(s - 1).value;
  }
  const T* Find(LineAddr line) const {
    if (line >= slot_of_.size()) return nullptr;
    const uint32_t s = slot_of_[line];
    return s == 0 ? nullptr : &At(s - 1).value;
  }

  /// Adds absent `line` with a default-constructed value; `*bytes` receives
  /// the line's line_size bytes (contents unspecified).
  T& Add(LineAddr line, uint8_t** bytes) {
    uint32_t s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = used_++;
      if (s == chunks_.size() * kChunk) {
        chunks_.push_back({std::make_unique<Slot[]>(kChunk),
                           std::make_unique_for_overwrite<uint8_t[]>(
                               static_cast<size_t>(kChunk) * line_size_)});
      }
    }
    if (line >= slot_of_.size()) slot_of_.resize(line + 1, 0);
    slot_of_[line] = s + 1;
    ++live_;
    Slot& slot = At(s);
    slot.line = line;
    slot.value = T{};
    *bytes = chunks_[s / kChunk].bytes.get() +
             static_cast<size_t>(s % kChunk) * line_size_;
    return slot.value;
  }

  /// Removes `line` if present; its slot is reused by a later Add.
  void Remove(LineAddr line) {
    if (line >= slot_of_.size() || slot_of_[line] == 0) return;
    const uint32_t s = slot_of_[line] - 1;
    slot_of_[line] = 0;
    At(s).line = kInvalidLine;
    free_.push_back(s);
    --live_;
  }

  /// Removes every line, keeping the chunks for reuse.
  void Clear() {
    ForEach([&](LineAddr line, T&) { slot_of_[line] = 0; });
    used_ = 0;
    free_.clear();
    live_ = 0;
  }

  /// Number of lines present.
  size_t size() const { return live_; }

  /// Visits every present line as fn(line, value).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint32_t s = 0; s < used_; ++s) {
      Slot& slot = At(s);
      if (slot.line != kInvalidLine) fn(slot.line, slot.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t s = 0; s < used_; ++s) {
      const Slot& slot = At(s);
      if (slot.line != kInvalidLine) fn(slot.line, slot.value);
    }
  }

 private:
  static constexpr uint32_t kChunk = 64;

  struct Slot {
    LineAddr line = kInvalidLine;
    T value;
  };
  struct Chunk {
    std::unique_ptr<Slot[]> slots;
    std::unique_ptr<uint8_t[]> bytes;
  };

  Slot& At(uint32_t s) { return chunks_[s / kChunk].slots[s % kChunk]; }
  const Slot& At(uint32_t s) const {
    return chunks_[s / kChunk].slots[s % kChunk];
  }

  uint32_t line_size_;
  /// line -> slot + 1; 0 = absent.
  std::vector<uint32_t> slot_of_;
  std::vector<Chunk> chunks_;
  std::vector<uint32_t> free_;
  /// Slots handed out since the last Clear (free ones included).
  uint32_t used_ = 0;
  size_t live_ = 0;
};

}  // namespace smdb

#endif  // SMDB_SIM_LINE_TABLE_H_
