// The benchmark's own span recorder: spans around every call the benchmark
// makes into a layer, kept in memory and written as Chrome trace-event JSON
// (B/E pairs, one track per client or per wire session) when the run ends.
//
// Not thread-safe: every span is recorded from the benchmark's own thread.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }

  /// Records the span [begin_us, end_us] (NowUs() stamps) on `track`.
  /// Spans sharing a track must nest: a span that starts inside another
  /// ends inside it too.
  void Add(int track, const std::string& name, int64_t begin_us,
           int64_t end_us, uint64_t session = 0);

  /// False when some span on a track only partly overlaps another.
  bool Nested() const;

  /// Writes the spans as a JSON array of B/E events; false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    int track;
    std::string name;
    int64_t begin_us;
    int64_t end_us;
    uint64_t session;
  };
  /// Spans grouped by track, parents before children.
  std::map<int, std::vector<const Span*>> SortedByTrack() const;

  bool enabled_;
  int64_t origin_us_;
  std::vector<Span> spans_;
};

/// RAII span for synchronous calls on one track; no-op when the log is
/// disabled or null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, int track, std::string name, uint64_t session = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int track_;
  std::string name_;
  uint64_t session_;
  int64_t begin_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
