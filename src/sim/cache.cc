#include "sim/cache.h"

#include <cstring>

namespace smdb {

Cache::Entry& Cache::Insert(LineAddr line, LineState state,
                            const uint8_t* data) {
  Entry* e = lines_.Find(line);
  if (e == nullptr) {
    uint8_t* bytes = nullptr;
    e = &lines_.Add(line, &bytes);
    e->data = bytes;
  }
  e->state = state;
  if (e->data != data) std::memcpy(e->data, data, line_size_);
  return *e;
}

void Cache::ForEachLine(
    const std::function<void(LineAddr, const Entry&)>& fn) const {
  lines_.ForEach(fn);
}

}  // namespace smdb
