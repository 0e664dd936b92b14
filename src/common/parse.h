#ifndef SMDB_COMMON_PARSE_H_
#define SMDB_COMMON_PARSE_H_

// Checked number parsing for input from outside the program (command-line
// flags, replay documents): the whole text must be one plain number that
// fits the target type. Nothing throws, wraps or stops at trailing junk.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

namespace smdb {

/// Decimal digits only ("-1", " 7", "7x" and "" fail), value <= the range
/// of T.
template <typename T>
bool ParseUint(std::string_view text, T* out) {
  static_assert(std::numeric_limits<T>::is_integer &&
                !std::numeric_limits<T>::is_signed);
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  T v = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) return false;
  *out = v;
  return true;
}

/// A finite decimal number ("nan", "inf", "1e999" and trailing junk fail).
inline bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  double v = 0.0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace smdb

#endif  // SMDB_COMMON_PARSE_H_
