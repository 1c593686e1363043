// Shared declarations of seedb_perfbench: workload configuration,
// per-session records, sample statistics and the metric sink.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "datagen.h"

namespace perfbench {

/// Steady-clock microseconds; the same clock (and epoch) the server stamps
/// push frames' ts_us with, so the two can be subtracted.
inline int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one workload fixes. The values are mirrored in
/// BENCHMARK.json's `why` lines and README.md.
struct WorkloadConfig {
  std::string name;
  TableSpec table;
  /// "shared-scan" or "phased-shared-scan" (server/protocol.h names).
  std::string strategy;
  size_t phases = 1;
  /// "none" or "ci".
  std::string pruner = "none";
  size_t early_stop = 0;
  size_t k = 5;
  /// Morsel threads per session; 0 = one per core.
  size_t parallelism = 0;
  /// Result-cache budget in bytes; 0 = cache off.
  size_t cache_bytes = 0;
  /// Sessions go over the wire (true) or through core::SeeDB in-process.
  bool wire = false;
  /// Open loop: Poisson arrivals at this many sessions/s (0 = closed loop,
  /// one session in flight).
  double rate_per_s = 0.0;
  /// Predicate pool size (0 = a fresh predicate per session).
  size_t pool = 0;
  /// Latency limit for slo_met_frac.
  double slo_ms = 0.0;
  /// A run measures at least this many sessions, past --seconds if needed.
  size_t min_sessions = 100;
  /// Untimed set-ups per run; setup_s is their median.
  size_t setup_reps = 3;
  /// Sessions checked against an exact reference (pool-based workloads
  /// check every distinct predicate instead).
  size_t reference_sessions = 0;
};

/// Looks a workload up by name; `smoke` shrinks it to a few thousand rows
/// and a handful of sessions for the benchmark's own tests.
bool FindWorkload(const std::string& name, bool smoke, WorkloadConfig* out);
const std::vector<std::string>& WorkloadNames();

/// One session as the load generator saw it. Times are NowUs() stamps.
struct SessionRecord {
  std::string sql;
  size_t pool_index = 0;
  int64_t scheduled_us = 0;  // open loop: when it was due; else = sent_us
  int64_t sent_us = 0;
  int64_t opened_us = 0;
  int64_t first_topk_us = 0;
  int64_t drained_us = 0;   // last phase done (wire: drained frame)
  int64_t finish_sent_us = 0;
  int64_t done_us = 0;
  bool ok = false;
  std::string error;
  /// Final ranking (view ids, rank order).
  std::vector<std::string> top;
  /// Server-side (or in-process) phase wall times, summed.
  double phase_seconds = 0.0;
  size_t phases = 0;
  size_t views_executed = 0;
  size_t views_pruned_online = 0;
  bool early_stopped = false;
  /// Push frames' delivery delay (receive - ts_us), ms.
  std::vector<double> frame_delivery_ms;
  /// Wire only, from the push frames' server stamps (ts_us): server-side
  /// time between consecutive pushed phases that no phase timer covers
  /// (job queueing, frame encoding), and the drained frame's delivery, ms.
  double server_between_phases_ms = 0.0;
  double drained_delivery_ms = 0.0;
  int64_t last_push_ts_us = 0;
  /// In-process only: wall time of the Next() calls.
  double next_wall_ms = 0.0;
};

/// Median / quantile of a sample (linear interpolation); 0 when empty.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Ordered name -> (value, unit) map that becomes the result's "metrics".
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The outcome of one workload run.
struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  MetricSet metrics;
};

struct RunArgs {
  WorkloadConfig config;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  /// Where the traced half's program-side trace (obs::TraceRecorder) goes.
  std::string program_trace_out = ".bench_build/program-trace.json";
  size_t cores = 1;
};

/// Runs one workload: set-up (timed, repeated), the measured window, the
/// untimed correctness gate, and metric derivation.
RunOutcome RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
