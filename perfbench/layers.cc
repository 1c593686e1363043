#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

InstrumentSnapshot InstrumentSnapshot::Take(const db::Engine* engine) {
  InstrumentSnapshot s;
  const seedb::obs::Snapshot snap =
      seedb::obs::Registry::Global().TakeSnapshot();
  for (const auto& c : snap.counters) s.counters[c.name] = c.value;
  for (const auto& h : snap.histograms) s.histograms[h.name] = h.snapshot;
  s.engine = engine->stats();
  return s;
}

namespace {

double Ms(int64_t from_us, int64_t to_us) {
  return static_cast<double>(to_us - from_us) / 1e3;
}

/// Delta of one registry counter across the traced window.
double CounterDelta(const LayerInputs& in, const std::string& name) {
  auto value = [&](const InstrumentSnapshot& s) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return value(in.after) - value(in.before);
}

/// (count, sum in us) delta of one registry histogram.
std::pair<double, double> HistDelta(const LayerInputs& in,
                                    const std::string& name) {
  auto value = [&](const InstrumentSnapshot& s) {
    auto it = s.histograms.find(name);
    if (it == s.histograms.end()) return std::pair<double, double>(0, 0);
    return std::pair<double, double>(static_cast<double>(it->second.count),
                                     static_cast<double>(it->second.sum_us));
  };
  const auto a = value(in.after);
  const auto b = value(in.before);
  return {a.first - b.first, a.second - b.second};
}

double HistMeanUs(const LayerInputs& in, const std::string& name) {
  const auto [count, sum] = HistDelta(in, name);
  return count > 0 ? sum / count : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double SessionQuantileMs(const Window& w, double q) {
  std::vector<double> ms;
  for (const SessionRecord& r : w.records) {
    if (r.ok) ms.push_back(Ms(r.scheduled_us, r.done_us));
  }
  return Quantile(ms, q);
}

void EndToEnd(const WorkloadConfig& c, const Window& w, double setup_s,
              double recall, double peak_rss_mb, MetricSet* out) {
  std::vector<double> session_ms, first_ms;
  size_t met = 0;
  int64_t last_done = w.begin_us;
  for (const SessionRecord& r : w.records) {
    if (!r.ok) continue;
    session_ms.push_back(Ms(r.scheduled_us, r.done_us));
    first_ms.push_back(Ms(r.scheduled_us, r.first_topk_us));
    if (session_ms.back() <= c.slo_ms) ++met;
    last_done = std::max(last_done, r.done_us);
  }
  out->Set("setup_s", setup_s, "s");
  out->Set("session_ms.p50", Quantile(session_ms, 0.5), "ms");
  out->Set("session_ms.p90", Quantile(session_ms, 0.9), "ms");
  out->Set("first_topk_ms.p50", Quantile(first_ms, 0.5), "ms");
  out->Set("first_topk_ms.p90", Quantile(first_ms, 0.9), "ms");
  out->Set("sessions_per_s",
           Ratio(static_cast<double>(session_ms.size()),
                 static_cast<double>(last_done - w.begin_us) / 1e6),
           "1/s");
  out->Set("slo_met_frac",
           Ratio(static_cast<double>(met),
                 static_cast<double>(w.records.size())),
           "fraction");
  out->Set("topk_recall", recall, "fraction");
  out->Set("peak_rss_mb", peak_rss_mb, "MB");
}

void PerLayer(const WorkloadConfig& c, const Window& traced,
              const LayerInputs& in, MetricSet* out,
              std::string* closure_problem) {
  std::vector<double> delivery, late, phases, overhead, finish_ms, session_ms;
  double phase_ms_total = 0.0, next_wall_total = 0.0, pruned = 0.0,
         executed = 0.0, early = 0.0, frames = 0.0;
  for (const SessionRecord& r : traced.records) {
    late.push_back(Ms(r.scheduled_us, r.sent_us));
    if (!r.ok) continue;
    session_ms.push_back(Ms(r.scheduled_us, r.done_us));
    delivery.insert(delivery.end(), r.frame_delivery_ms.begin(),
                    r.frame_delivery_ms.end());
    phases.push_back(static_cast<double>(r.phases));
    frames += static_cast<double>(r.phases);
    phase_ms_total += r.phase_seconds * 1e3;
    next_wall_total += r.next_wall_ms;
    pruned += static_cast<double>(r.views_pruned_online);
    executed += static_cast<double>(r.views_executed);
    early += r.early_stopped ? 1.0 : 0.0;
    finish_ms.push_back(Ms(r.finish_sent_us, r.done_us));
  }
  const double n = std::max<double>(1.0, static_cast<double>(phases.size()));

  const double scan_ms =
      HistDelta(in, "engine.phase.latency_us").second / 1e3;
  const double rows = CounterDelta(in, "engine.scan.rows");
  const double morsels = CounterDelta(in, "engine.scan.morsels");
  const db::EngineStatsSnapshot& e0 = in.before.engine;
  const db::EngineStatsSnapshot& e1 = in.after.engine;
  const double hits = static_cast<double>(e1.cache_hits - e0.cache_hits);
  const double misses = static_cast<double>(e1.cache_misses - e0.cache_misses);

  const double open_us = c.wire ? HistMeanUs(in, "server.request.open_us") : 0;
  const double finish_us =
      c.wire ? HistMeanUs(in, "server.request.finish_us") : 0;
  for (const SessionRecord& r : traced.records) {
    if (r.ok && c.wire) {
      overhead.push_back(Ms(r.sent_us, r.done_us) - r.phase_seconds * 1e3 -
                         (open_us + finish_us) / 1e3);
    }
  }

  out->Set("db.stats.ms", Quantile(in.stats_ms, 0.5), "ms");
  out->Set("db.corr.ms", Quantile(in.corr_ms, 0.5), "ms");
  out->Set("core.plan.ms", Quantile(in.plan_ms, 0.5), "ms");
  out->Set("core.plan.views", Mean(in.plan_views), "count");
  out->Set("core.plan.queries", Mean(in.plan_queries), "count");
  out->Set("db.scan.ms", scan_ms / n, "ms");
  out->Set("db.scan.rows", rows / n, "count");
  out->Set("db.scan.morsels", morsels / n, "count");
  out->Set("db.scan.rows_per_s", Ratio(rows, scan_ms / 1e3), "1/s");
  out->Set("db.scan.vectorized_frac",
           Ratio(static_cast<double>(e1.vectorized_morsels -
                                     e0.vectorized_morsels),
                 morsels),
           "fraction");
  out->Set("db.scan.simd_frac",
           Ratio(static_cast<double>(e1.simd_morsels - e0.simd_morsels),
                 morsels),
           "fraction");
  // In-process: Next() wall minus scan time. Wire: the sessions' server-side
  // phase times (pushed phase_seconds) minus scan time.
  const double boundary_total =
      (c.wire ? phase_ms_total : next_wall_total) - scan_ms;
  out->Set("core.boundary.ms", boundary_total / n, "ms");
  out->Set("core.prune.views_pruned_frac", Ratio(pruned, executed),
           "fraction");
  out->Set("core.prune.phases_per_session", Mean(phases), "count");
  out->Set("core.prune.early_stop_frac", early / n, "fraction");
  out->Set("core.finish.ms", Mean(finish_ms), "ms");
  out->Set("db.cache.hit_ratio", Ratio(hits, hits + misses), "fraction");
  out->Set("db.cache.evictions",
           static_cast<double>(e1.cache_evictions - e0.cache_evictions),
           "count");
  out->Set("db.cache.bytes", static_cast<double>(e1.cache_bytes), "bytes");
  out->Set("server.open_us.mean", open_us, "us");
  // Push sessions send no `next` requests: this is the server-side time of
  // one pushed phase (its frame's phase_seconds).
  out->Set("server.next_us.mean",
           c.wire ? Ratio(phase_ms_total * 1e3, frames) : 0.0, "us");
  out->Set("server.finish_us.mean", finish_us, "us");
  out->Set("server.outbox.flush_us.mean",
           c.wire ? HistMeanUs(in, "server.outbox.flush_us") : 0.0, "us");
  out->Set("server.loop.tick_lag_us.mean",
           c.wire ? HistMeanUs(in, "server.loop.tick_lag_us") : 0.0, "us");
  out->Set("server.frame_delivery_ms.p50", Quantile(delivery, 0.5), "ms");
  out->Set("server.frame_delivery_ms.p90", Quantile(delivery, 0.9), "ms");
  out->Set("server.busy_sheds", CounterDelta(in, "server.admission.busy_sheds"),
           "count");
  out->Set("wire.overhead_ms.p50", Quantile(overhead, 0.5), "ms");
  out->Set("loadgen.late_ms.p90", Quantile(late, 0.9), "ms");
  out->Set("obs.trace_overhead_frac",
           Ratio(Quantile(session_ms, 0.5), in.untraced_p50_ms), "ratio");

  // Closure: the sessions' wall time against the layers that instruments
  // time on their own — the benchmark's timers around Open() and Finish()
  // (over the wire, around the `finish` round trip), the engine's phase
  // histogram inside the executor's phase timer, the server's `open`
  // dispatch histogram and the push frames' server stamps. The share of the
  // wall time none of them covers is the closure error.
  double wall = 0.0, late_ms = 0.0, between_ms = 0.0, drained_ms = 0.0,
         open_ms = 0.0, close_ms = 0.0;
  for (const SessionRecord& r : traced.records) {
    if (!r.ok) continue;
    wall += Ms(r.scheduled_us, r.done_us);
    late_ms += Ms(r.scheduled_us, r.sent_us);
    between_ms += r.server_between_phases_ms;
    drained_ms += r.drained_delivery_ms;
    open_ms += Ms(r.sent_us, r.opened_us);
    close_ms += Ms(r.finish_sent_us, r.done_us);
  }
  std::vector<std::pair<std::string, double>> layers;
  if (c.wire) {
    layers = {
        {"loadgen.late", late_ms},
        {"server.open", HistDelta(in, "server.request.open_us").second / 1e3},
        {"db.scan", scan_ms},
        {"core.boundary", phase_ms_total - scan_ms},
        {"server.between_phases", between_ms},
        {"wire.drained_delivery", drained_ms},
        {"wire.finish", close_ms},
    };
  } else {
    layers = {
        {"core.open", open_ms},
        {"db.scan", scan_ms},
        {"core.boundary", phase_ms_total - scan_ms},
        {"core.finish", close_ms},
    };
  }
  double explained = 0.0;
  std::string negative;
  std::printf("layer breakdown over %.0f traced sessions (%.1f ms wall):\n", n,
              wall);
  for (const auto& [name, ms] : layers) {
    std::printf("  %-22s %10.2f ms  %5.1f%%\n", name.c_str(), ms,
                100.0 * Ratio(ms, wall));
    explained += ms;
    if (ms < 0.0 && negative.empty()) negative = name;
  }
  std::printf("  %-22s %10.2f ms  %5.1f%%\n", "unexplained", wall - explained,
              100.0 * Ratio(wall - explained, wall));
  const double err = wall > 0.0 ? std::fabs(wall - explained) / wall : 1.0;
  const double bound = c.wire ? kClosureBoundWire : kClosureBoundInProcess;
  out->Set("trace.closure_err_frac", err, "fraction");
  if (!in.spans_nested) {
    *closure_problem = "trace spans do not nest";
  } else if (!negative.empty()) {
    *closure_problem = "layer " + negative + " is negative";
  } else if (err > bound) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "the layers leave %.1f%% of the session wall time "
                  "unexplained (bound %.0f%%)",
                  100.0 * err, 100.0 * bound);
    *closure_problem = msg;
  }
}

}  // namespace perfbench
