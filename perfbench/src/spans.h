// In-memory spans recorded by the benchmark around its calls into each
// layer. Every order gets one trace id; the order is the root span and
// the calls, codec steps and ladder rungs under it are its children.
// Spans stay in per-thread buffers during the run and are written out
// once, when the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  uint64_t trace = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's span buffer. A null sink turns every Span into a no-op,
/// which is how the untraced run records nothing.
class SpanSink {
 public:
  explicit SpanSink(uint64_t thread_index) : next_id_(thread_index << 40) {}

  uint64_t NextId() { return ++next_id_; }
  void Add(const SpanRecord& span) { spans_.push_back(span); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<SpanRecord> spans_;
};

/// Scoped span: starts on construction, records on destruction.
class Span {
 public:
  /// Root span of a new trace.
  Span(SpanSink* sink, const char* name);
  /// Child of `parent` (same trace).
  Span(SpanSink* sink, const Span& parent, const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanSink* sink_;
  SpanRecord record_;
};

/// Per span name: the durations and self times (duration minus the part
/// of it that child spans cover), in microseconds.
struct LayerTimes {
  std::vector<double> total_us;
  std::vector<double> self_us;
};

std::map<std::string, LayerTimes> SelfTimes(
    const std::vector<SpanRecord>& spans);

/// Writes spans as CSV (trace,span,parent,name,start_us,duration_us),
/// start times relative to the earliest span.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
