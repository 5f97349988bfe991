#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

Span::Span(SpanSink* sink, const char* name) : sink_(sink) {
  if (sink_ == nullptr) return;
  record_.id = sink_->NextId();
  record_.trace = record_.id;
  record_.name = name;
  record_.start_ns = NowNs();
}

Span::Span(SpanSink* sink, const Span& parent, const char* name)
    : sink_(parent.sink_ == nullptr ? nullptr : sink) {
  if (sink_ == nullptr) return;
  record_.id = sink_->NextId();
  record_.trace = parent.record_.trace;
  record_.parent = parent.record_.id;
  record_.name = name;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (sink_ == nullptr) return;
  record_.end_ns = NowNs();
  sink_->Add(record_);
}

std::map<std::string, LayerTimes> SelfTimes(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTimes> out;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent's.
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t cursor = s.start_ns;
      for (auto [begin, end] : kids) {
        begin = std::max(begin, cursor);
        end = std::min(end, s.end_ns);
        if (end > begin) {
          covered += end - begin;
          cursor = end;
        }
      }
    }
    LayerTimes& layer = out[s.name];
    layer.total_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    layer.self_us.push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "trace,span,parent,name,start_us,duration_us\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
