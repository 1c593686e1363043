// Metric derivation: the end-to-end metrics of an untraced window, and the
// per-layer metrics of a traced one — from the benchmark's spans, the
// sessions' own records, and deltas of the program's instruments (the obs
// registry and the engine's counters) across the traced window.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "db/engine.h"
#include "obs/metrics.h"
#include "perfbench.h"

namespace perfbench {

/// Point-in-time copy of the program's instruments.
struct InstrumentSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, seedb::obs::HistogramSnapshot> histograms;
  db::EngineStatsSnapshot engine;

  static InstrumentSnapshot Take(const db::Engine* engine);
};

/// What the per-layer derivation needs besides the traced window.
struct LayerInputs {
  InstrumentSnapshot before;
  InstrumentSnapshot after;
  /// The benchmark's spans nest properly on every track.
  bool spans_nested = true;
  std::vector<double> stats_ms;
  std::vector<double> corr_ms;
  std::vector<double> plan_ms;
  std::vector<double> plan_views;
  std::vector<double> plan_queries;
  double untraced_p50_ms = 0.0;
};

/// A measured window of sessions.
struct Window {
  std::deque<SessionRecord> records;
  int64_t begin_us = 0;
  int64_t end_us = 0;
};

/// Share of the traced sessions' wall time the independently timed layers
/// may leave unexplained. Over the wire, the socket transit and event-loop
/// queueing of `open` and the wait for the first phase job carry no stamp:
/// a few hundred microseconds per session, under 1% of an adhoc-exact
/// session and about 6% of a serve-zipf one on an idle 4-core host, about
/// 15% when the host's cores are twice oversubscribed.
inline constexpr double kClosureBoundInProcess = 0.05;
inline constexpr double kClosureBoundWire = 0.2;

/// Quantile of open-to-result latency over the window's successful sessions.
double SessionQuantileMs(const Window& w, double q);

void EndToEnd(const WorkloadConfig& c, const Window& w, double setup_s,
              double recall, double peak_rss_mb, MetricSet* out);

/// Fills the per-layer metrics and prints the layer breakdown; sets
/// `closure_problem` when the independently timed layers leave more than
/// the closure bound of the wall time unexplained.
void PerLayer(const WorkloadConfig& c, const Window& traced,
              const LayerInputs& in, MetricSet* out,
              std::string* closure_problem);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
