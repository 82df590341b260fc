#include "spans.h"

#include <cstdio>
#include <cstring>
#include <map>

#include "common.h"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(now_s()) { spans_.reserve(1 << 16); }

int SpanRecorder::open(const char* name, int parent, int step) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.step = step;
  span.t0 = now_s();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<size_t>(id)].t1 = now_s();
}

std::vector<double> SpanRecorder::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0 && span.t1 >= span.t0) {
      out.push_back(span.t1 - span.t0);
    }
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& label) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // One track (tid) per root span name; children inherit their root's
  // track so nesting renders as a flame graph.
  std::map<std::string, int> track_of_root;
  std::vector<int> track(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent < 0) {
      auto it = track_of_root.emplace(span.name, 0).first;
      if (it->second == 0) {
        it->second = static_cast<int>(track_of_root.size());
      }
      track[i] = it->second;
    } else {
      track[i] = track[static_cast<size_t>(span.parent)];
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n \"otherData\": "
                  "{\"time_base\": \"wall clock: steady_clock microseconds "
                  "since the benchmark process started recording\", "
                  "\"run\": \"%s\"},\n \"traceEvents\": [\n",
               label.c_str());
  std::fprintf(f, "  {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
                  "\"args\": {\"name\": \"wall clock (steady_clock us) - "
                  "%s\"}}",
               label.c_str());
  for (const auto& [name, tid] : track_of_root) {
    std::fprintf(f, ",\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": "
                    "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                 tid, name.c_str());
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f, ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": "
                    "\"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %d, \"step\": %d}}",
                 track[i], span.name, (span.t0 - origin_) * 1e6,
                 (span.t1 - span.t0) * 1e6, i, span.parent, span.step);
  }
  std::fprintf(f, "\n ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
