#ifndef SMDB_PERFBENCH_SPANS_H_
#define SMDB_PERFBENCH_SPANS_H_

// In-memory host-clock spans for the traced pass. Each span is one call
// from the benchmark into a public entry point of an smdb module; its name
// is "<module>.<Call>", so a layer's time is the sum over its names and
// its self time is span time minus the time its child spans cover.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  ///< string literal, "<module>.<Call>"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
};

class SpanRecorder {
 public:
  int32_t Open(const char* name) {
    int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, NowNs(), 0, open_});
    open_ = id;
    return id;
  }
  void Close(int32_t id) {
    spans_[id].end_ns = NowNs();
    open_ = spans_[id].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events, microsecond timestamps), which
  /// Perfetto and chrome://tracing open directly. Every event carries its
  /// own index and its parent's in "args".
  std::string ToChromeJson() const {
    uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out = "{\"traceEvents\":[\n";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",\n", s.name, (s.start_ns - t0) / 1e3,
                    (s.end_ns - s.start_ns) / 1e3, i, s.parent);
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), id_(rec.Open(name)) {}
  ~ScopedSpan() { rec_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // SMDB_PERFBENCH_SPANS_H_
