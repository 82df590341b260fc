// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each library layer ({name, t0, t1, parent, step}); nothing inside the
// library is instrumented.  They stay in memory until the run ends and are
// then written as a Chrome/Perfetto trace whose time base is labelled:
// microseconds of std::chrono::steady_clock since the recorder was created.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal: the layer this span times
  double t0 = 0.0;        // steady_clock seconds
  double t1 = 0.0;
  int parent = -1;        // index of the enclosing span, -1 at the root
  int step = -1;          // training step / replay index, -1 if none
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span and returns its id; close() stamps its end.
  int open(const char* name, int parent = -1, int step = -1);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (seconds) of every closed span called `name`.
  std::vector<double> durations(const char* name) const;

  // Writes the spans as Chrome trace JSON ("X" events, ts/dur in us since
  // the recorder's creation, one track per root span name).  Returns false
  // if the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& label) const;

 private:
  double origin_ = 0.0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
