// The three workloads, their set-up, measured windows and correctness gate.
//
// adhoc-exact         closed loop, one v2 push connection; a fresh WHERE per
//                     session over a table about the size of the L3; the
//                     fused shared scan does nearly all of the work and the
//                     result cache pays publish/evict with zero hits.
// interactive-phased  closed loop, one in-process client driving Next() per
//                     phase; 16 phases with the CI pruner and early stop, so
//                     phase-boundary estimate/prune work is a large share.
// serve-zipf          open loop, Poisson arrivals over nproc connections;
//                     a Zipfian pool of predicates keeps the result cache
//                     hot, so the serving layer dominates.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <set>

#include "core/optimizer.h"
#include "core/query_generator.h"
#include "core/session.h"
#include "db/catalog.h"
#include "db/engine.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "server/server.h"
#include "trace.h"
#include "util/random.h"
#include "util/string_util.h"
#include "wire.h"

namespace perfbench {

namespace core = seedb::core;
namespace server = seedb::server;

// --- Workload table --------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "adhoc-exact", "interactive-phased", "serve-zipf"};
  return names;
}

bool FindWorkload(const std::string& name, bool smoke, WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  if (name == "adhoc-exact") {
    c.table.rows = 300000;
    c.table.string_dims = {8, 12, 16, 24, 32, 48, 6, 64};
    c.table.zipf_dim = 5;
    c.table.int_dims = {50, 100};
    c.table.measures = 4;
    c.strategy = "shared-scan";
    c.cache_bytes = size_t{64} << 20;  // seedb_server's default budget
    c.wire = true;
    c.slo_ms = 250;
    c.reference_sessions = 8;
  } else if (name == "interactive-phased") {
    c.table.rows = 250000;
    c.table.string_dims = {8, 12, 16, 24, 32, 10, 6, 20};
    c.table.measures = 4;
    c.strategy = "phased-shared-scan";
    c.phases = 16;
    c.pruner = "ci";
    c.early_stop = 2;
    c.pool = 32;
    c.slo_ms = 150;
  } else if (name == "serve-zipf") {
    c.table.rows = 300000;
    c.table.string_dims = {8, 12, 16, 24, 10, 6};
    c.table.measures = 3;
    c.strategy = "phased-shared-scan";
    c.phases = 4;
    c.pruner = "ci";
    c.parallelism = 1;
    c.cache_bytes = size_t{64} << 20;  // holds the whole pool's aggregates
    c.wire = true;
    c.rate_per_s = 160;
    c.pool = 64;
    c.slo_ms = 50;
  } else {
    return false;
  }
  if (smoke) {
    // Cardinalities shrink with the rows so the planted view still
    // outranks sampling noise.
    c.table.rows = 20000;
    for (size_t& card : c.table.string_dims) card = std::min<size_t>(card, 16);
    for (size_t& card : c.table.int_dims) card = std::min<size_t>(card, 16);
    c.min_sessions = 6;
    c.setup_reps = 2;
    c.pool = std::min<size_t>(c.pool, 8);
    c.reference_sessions = std::min<size_t>(c.reference_sessions, 3);
  }
  *out = std::move(c);
  return true;
}

namespace {

constexpr int kSetupTrack = 1;
constexpr int kClientTrack = 2;
constexpr int kPlanTrack = 3;
constexpr int kReferenceTrack = 4;
constexpr int kWireTrackBase = 1000;
/// A run gives up on in-flight sessions this long after its last arrival.
constexpr double kDrainSeconds = 30.0;
/// A measured window never runs longer than this many times --seconds, so
/// a badly regressed build still exits in time (with fewer samples).
constexpr double kWindowCapFactor = 4.0;

void Check(const seedb::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
    std::exit(2);
  }
}

std::string Sql(const std::string& where) {
  return std::string("SELECT * FROM ") + kTableName + " WHERE " + where;
}

/// Dimensions analyst selections filter on: every string dimension but the
/// planted s1 and the Zipf one (so the planted view stays a candidate), and
/// every int64 dimension.
std::vector<std::string> SelectionDims(const WorkloadConfig& c) {
  std::vector<std::string> dims;
  for (size_t d = 0; d < c.table.string_dims.size(); ++d) {
    if (d == 1 || static_cast<int>(d) == c.table.zipf_dim) continue;
    dims.push_back(seedb::StringPrintf("s%zu", d));
  }
  for (size_t d = 0; d < c.table.int_dims.size(); ++d) {
    dims.push_back(seedb::StringPrintf("i%zu", d));
  }
  return dims;
}

std::vector<std::string> AllDims(const WorkloadConfig& c) {
  std::vector<std::string> dims;
  for (size_t d = 0; d < c.table.string_dims.size(); ++d) {
    dims.push_back(seedb::StringPrintf("s%zu", d));
  }
  for (size_t d = 0; d < c.table.int_dims.size(); ++d) {
    dims.push_back(seedb::StringPrintf("i%zu", d));
  }
  return dims;
}

std::string StringEq(const WorkloadConfig& c, size_t dim, seedb::Random* rng) {
  return seedb::StringPrintf(
      "s%zu = '%s'", dim,
      StringValue(dim, rng->Uniform(c.table.string_dims[dim])).c_str());
}

/// adhoc-exact: an int64 range, plus a string equality on every other
/// session; every session's predicate is distinct.
class DistinctPredicates {
 public:
  DistinctPredicates(const WorkloadConfig& c, uint64_t seed)
      : c_(c), rng_(seed ^ 0x5eedb0a7ULL) {}
  std::string Next() {
    for (;;) {
      const size_t d = rng_.Uniform(c_.table.int_dims.size());
      const int64_t card = static_cast<int64_t>(c_.table.int_dims[d]);
      const int64_t lo = rng_.UniformInt(0, card / 2);
      const int64_t hi = lo + rng_.UniformInt(card / 8, card / 2);
      std::string where =
          seedb::StringPrintf("i%zu BETWEEN %lld AND %lld", d,
                              static_cast<long long>(lo),
                              static_cast<long long>(hi));
      if (++count_ % 2 == 0) {
        static const size_t kDims[] = {0, 2, 3, 4, 6};
        where += " AND " + StringEq(c_, kDims[rng_.Uniform(5)], &rng_);
      }
      if (seen_.insert(where).second) return Sql(where);
    }
  }

 private:
  const WorkloadConfig& c_;
  seedb::Random rng_;
  std::set<std::string> seen_;
  uint64_t count_ = 0;
};

/// Pool workloads: one or (every other entry) two string equalities; entry
/// 0 is the planted selector.
std::vector<std::string> PredicatePool(const WorkloadConfig& c,
                                       uint64_t seed) {
  seedb::Random rng(seed ^ 0x9001ULL);
  std::vector<size_t> dims;
  for (size_t d = 0; d < c.table.string_dims.size(); ++d) {
    if (d != 1) dims.push_back(d);
  }
  std::set<std::string> seen = {kPlantedSelector};
  std::vector<std::string> pool = {Sql(kPlantedSelector)};
  while (pool.size() < c.pool) {
    // Two distinct dimensions, the first among the three lowest-card ones
    // so selections keep enough rows to rank.
    const size_t a = dims[rng.Uniform(std::min<size_t>(3, dims.size()))];
    std::string where = StringEq(c, a, &rng);
    if (pool.size() % 2 == 0) {
      size_t b = a;
      while (b == a) b = dims[rng.Uniform(dims.size())];
      where += " AND " + StringEq(c, b, &rng);
    }
    if (seen.insert(where).second) pool.push_back(Sql(where));
  }
  return pool;
}

bool HasPlantedView(const std::vector<std::string>& top_ids) {
  core::ViewDescriptor want;
  want.dimension = kPlantedDimension;
  want.measure = kPlantedMeasure;
  for (db::AggregateFunction f :
       {db::AggregateFunction::kSum, db::AggregateFunction::kAvg}) {
    want.func = f;
    if (std::find(top_ids.begin(), top_ids.end(), want.Id()) !=
        top_ids.end()) {
      return true;
    }
  }
  return false;
}

size_t Parallelism(const WorkloadConfig& c, size_t cores) {
  return c.parallelism == 0 ? cores : c.parallelism;
}

server::OpenSpec MakeOpenSpec(const WorkloadConfig& c, const std::string& sql,
                              size_t cores) {
  server::OpenSpec spec;
  spec.sql = sql;
  spec.k = c.k;
  spec.strategy = c.strategy;
  // A `phases` field switches the server to the phased strategy.
  if (c.strategy == "phased-shared-scan") spec.phases = c.phases;
  spec.pruner = c.pruner;
  spec.early_stop = c.early_stop;
  spec.parallelism = Parallelism(c, cores);
  return spec;
}

core::SeeDBRequest MakeRequest(const WorkloadConfig& c, const std::string& sql,
                               size_t cores) {
  seedb::Result<core::SeeDBRequest> parsed = core::SeeDBRequest::FromSql(sql);
  Check(parsed.status(), "parse selection");
  core::SeeDBRequest req = std::move(*parsed);
  req.WithTopK(c.k).WithParallelism(Parallelism(c, cores));
  if (c.strategy == "phased-shared-scan") {
    core::OnlinePruningOptions o;
    o.num_phases = c.phases;
    o.early_stop_stable_phases = c.early_stop;
    seedb::Result<core::OnlinePruner> pruner =
        core::ParseOnlinePruner(c.pruner);
    Check(pruner.status(), "pruner");
    o.pruner = *pruner;
    req.WithOnlinePruning(o);
  } else {
    req.WithStrategy(core::ExecutionStrategy::kSharedScan);
  }
  return req;
}

/// One in-process session driven phase by phase; spans on `log`.
void RunInProcess(core::SeeDB* seedb, const core::SeeDBRequest& req,
                  SessionRecord* rec, SpanLog* log, uint64_t sid) {
  rec->scheduled_us = rec->sent_us = NowUs();
  seedb::Result<core::RecommendationSession> opened = seedb->Open(req);
  rec->opened_us = NowUs();
  log->Add(kClientTrack, "session.open", rec->sent_us, rec->opened_us, sid);
  if (!opened.ok()) {
    rec->error = opened.status().ToString();
    rec->done_us = rec->opened_us;
    log->Add(kClientTrack, "session", rec->sent_us, rec->done_us, sid);
    return;
  }
  core::RecommendationSession session = std::move(*opened);
  for (;;) {
    const int64_t t0 = NowUs();
    seedb::Result<std::optional<core::ProgressUpdate>> update = session.Next();
    const int64_t t1 = NowUs();
    if (!update.ok()) {
      rec->error = update.status().ToString();
      break;
    }
    if (!update->has_value()) break;
    log->Add(kClientTrack, "session.next", t0, t1, sid);
    rec->next_wall_ms += static_cast<double>(t1 - t0) / 1e3;
    rec->phase_seconds += (*update)->phase_seconds;
    rec->phases += 1;
    if (rec->first_topk_us == 0 && !(*update)->top_views.empty()) {
      rec->first_topk_us = t1;
    }
  }
  rec->drained_us = rec->finish_sent_us = NowUs();
  seedb::Result<core::RecommendationSet> set = session.Finish();
  rec->done_us = NowUs();
  log->Add(kClientTrack, "session.finish", rec->finish_sent_us, rec->done_us,
           sid);
  log->Add(kClientTrack, "session", rec->sent_us, rec->done_us, sid);
  if (!set.ok()) {
    rec->error = set.status().ToString();
    return;
  }
  for (const core::Recommendation& r : set->top_views) {
    rec->top.push_back(r.view().Id());
  }
  rec->views_executed = set->profile.views_executed;
  rec->views_pruned_online = set->profile.views_pruned_online;
  rec->early_stopped = set->profile.early_stopped;
  rec->ok = rec->error.empty() && rec->first_topk_us != 0;
  if (rec->first_topk_us == 0 && rec->error.empty()) {
    rec->error = "no progress update carried a top-k";
  }
}

/// Spans of one finished wire session on its own track.
void AddWireSpans(SpanLog* log, const SessionRecord& r, uint64_t sid) {
  if (!log->enabled() || r.done_us == 0) return;
  const int track = kWireTrackBase + static_cast<int>(sid);
  log->Add(track, "session", r.scheduled_us, r.done_us, sid);
  if (r.sent_us > r.scheduled_us) {
    log->Add(track, "loadgen.late", r.scheduled_us, r.sent_us, sid);
  }
  if (r.opened_us == 0) return;
  log->Add(track, "wire.open", r.sent_us, r.opened_us, sid);
  if (r.first_topk_us == 0 || r.drained_us == 0) return;
  log->Add(track, "wire.first_topk", r.opened_us, r.first_topk_us, sid);
  log->Add(track, "wire.drain", r.first_topk_us, r.drained_us, sid);
  log->Add(track, "wire.finish", r.finish_sent_us, r.done_us, sid);
}

/// One set-up of the system under test.
struct System {
  std::unique_ptr<db::Catalog> catalog;
  std::unique_ptr<db::Engine> engine;
  std::unique_ptr<core::SeeDB> seedb;
  std::unique_ptr<server::RecommendationServer> server;
  std::unique_ptr<WireLoad> wire;
  std::string socket_path;

  ~System() {
    wire.reset();
    if (server != nullptr) {
      server->Stop();
      ::unlink(socket_path.c_str());
    }
  }
};

struct SetupTimes {
  std::vector<double> total_s, stats_ms, corr_ms;
};

class Runner {
 public:
  explicit Runner(const RunArgs& args)
      : args_(args), c_(args.config), log_(args.trace) {}

  RunOutcome Run();

 private:
  std::unique_ptr<System> SetUp(size_t rep, std::vector<std::string>* problems);
  Window Measure(double seconds, size_t min_sessions, bool traced);
  void RunClosedInProcess(Window* w, double seconds, size_t min_sessions,
                          bool traced, seedb::Random* rng);
  void RunClosedWire(Window* w, double seconds, size_t min_sessions,
                     seedb::Random* rng);
  void RunOpenWire(Window* w, double seconds, size_t min_sessions,
                   seedb::Random* rng);
  std::string PickSql(seedb::Random* rng, size_t* pool_index);
  void Gate(std::vector<Window*> windows, RunOutcome* out,
            double* recall);
  void PlanTimes(const Window& w, LayerInputs* in);

  const RunArgs& args_;
  const WorkloadConfig& c_;
  SpanLog log_;
  std::unique_ptr<System> sys_;
  std::unique_ptr<DistinctPredicates> distinct_;
  std::vector<std::string> pool_;
  std::unique_ptr<seedb::ZipfDistribution> zipf_;
  size_t picks_ = 0;
  SetupTimes setup_;
  uint64_t next_sid_ = 1;
};

std::unique_ptr<System> Runner::SetUp(size_t rep,
                                      std::vector<std::string>* problems) {
  // Data generation is the benchmark's own work: not part of setup_s.
  db::Table table = GenerateTable(c_.table, args_.seed);
  auto sys = std::make_unique<System>();
  const int64_t t0 = NowUs();
  sys->catalog = std::make_unique<db::Catalog>();
  sys->catalog->PutTable(kTableName, std::move(table));
  sys->engine = std::make_unique<db::Engine>(sys->catalog.get());
  if (c_.cache_bytes > 0) sys->engine->EnableResultCache(c_.cache_bytes);
  sys->seedb = std::make_unique<core::SeeDB>(sys->engine.get());

  int64_t a = NowUs();
  Check(sys->catalog->GetStats(kTableName).status(), "GetStats");
  int64_t b = NowUs();
  log_.Add(kSetupTrack, "db.stats", a, b);
  setup_.stats_ms.push_back(static_cast<double>(b - a) / 1e3);

  // Cramér's V between every selection dimension and every other dimension:
  // what view generation would otherwise compute lazily on first use.
  a = NowUs();
  const std::vector<std::string> all = AllDims(c_);
  for (const std::string& sel : SelectionDims(c_)) {
    for (const std::string& dim : all) {
      if (dim == sel) continue;
      Check(sys->catalog->GetCramersV(kTableName, dim, sel).status(),
            "GetCramersV");
    }
  }
  b = NowUs();
  log_.Add(kSetupTrack, "db.corr", a, b);
  setup_.corr_ms.push_back(static_cast<double>(b - a) / 1e3);

  if (c_.wire) {
    a = NowUs();
    sys->socket_path = seedb::StringPrintf(".bench_build/pb-%d-%zu.sock",
                                           static_cast<int>(::getpid()), rep);
    ::unlink(sys->socket_path.c_str());
    server::ServerOptions so;
    so.unix_path = sys->socket_path;
    so.worker_threads = args_.cores;
    sys->server = std::make_unique<server::RecommendationServer>(
        sys->engine.get(), so);
    Check(sys->server->Start(), "server start");
    seedb::Result<std::unique_ptr<WireLoad>> wire = WireLoad::Connect(
        sys->socket_path, c_.rate_per_s > 0 ? args_.cores : 1);
    Check(wire.status(), "connect");
    sys->wire = std::move(*wire);
    b = NowUs();
    log_.Add(kSetupTrack, "server.start", a, b);
  }

  // Warm-up: the planted selection plus one session per selection
  // dimension, through the workload's own path. With a result cache the
  // whole predicate pool is warmed too: the cache holds the hot set in
  // steady state, and cold misses bunched at the start of the window
  // would otherwise dominate the latency tail.
  a = NowUs();
  std::vector<std::string> warm = {Sql(kPlantedSelector)};
  for (const std::string& dim : SelectionDims(c_)) {
    if (dim == "s0") continue;
    warm.push_back(Sql(dim[0] == 'i' ? dim + " BETWEEN 0 AND 9"
                                     : dim + " = '" + dim + "_v0'"));
  }
  if (c_.cache_bytes > 0) {
    for (const std::string& sql : pool_) {
      if (std::find(warm.begin(), warm.end(), sql) == warm.end()) {
        warm.push_back(sql);
      }
    }
  }
  std::deque<SessionRecord> recs(warm.size());
  for (size_t i = 0; i < warm.size(); ++i) {
    recs[i].sql = warm[i];
    if (c_.wire) {
      recs[i].scheduled_us = NowUs();
      sys->wire->Open(i % sys->wire->connections(),
                      MakeOpenSpec(c_, warm[i], args_.cores), &recs[i]);
    } else {
      SpanLog off(false);
      RunInProcess(sys->seedb.get(), MakeRequest(c_, warm[i], args_.cores),
                   &recs[i], &off, 0);
    }
  }
  if (c_.wire) {
    const int64_t deadline = NowUs() + 60 * 1000000LL;
    while (sys->wire->in_flight() > 0 && NowUs() < deadline) {
      sys->wire->Pump(100);
    }
    sys->wire->Abandon("warm-up session timed out");
  }
  for (const SessionRecord& r : recs) {
    if (!r.ok) problems->push_back("warm-up session failed: " + r.error);
  }
  b = NowUs();
  log_.Add(kSetupTrack, "setup.warmup", a, b);
  const int64_t t1 = NowUs();
  log_.Add(kSetupTrack, "setup", t0, t1);
  setup_.total_s.push_back(static_cast<double>(t1 - t0) / 1e6);
  if (!HasPlantedView(recs[0].top)) {
    problems->push_back("planted view (" + std::string(kPlantedDimension) +
                        ", " + kPlantedMeasure +
                        ") missing from the planted selection's top-k");
  }
  return sys;
}

std::string Runner::PickSql(seedb::Random* rng, size_t* pool_index) {
  if (pool_.empty()) {
    *pool_index = 0;
    return distinct_->Next();
  }
  // Open loop: Zipfian popularity. Closed loop: the pool in turn, so every
  // run weighs every predicate alike.
  *pool_index = zipf_ != nullptr ? zipf_->Sample(rng)
                                 : picks_++ % pool_.size();
  return pool_[*pool_index];
}

void Runner::RunClosedInProcess(Window* w, double seconds,
                                size_t min_sessions, bool traced,
                                seedb::Random* rng) {
  SpanLog off(false);
  SpanLog* log = traced ? &log_ : &off;
  const int64_t stop = w->begin_us + static_cast<int64_t>(seconds * 1e6);
  const int64_t cap =
      w->begin_us + static_cast<int64_t>(seconds * kWindowCapFactor * 1e6);
  while ((NowUs() < stop || w->records.size() < min_sessions) &&
         NowUs() < cap) {
    SessionRecord& rec = w->records.emplace_back();
    rec.sql = PickSql(rng, &rec.pool_index);
    const core::SeeDBRequest req = MakeRequest(c_, rec.sql, args_.cores);
    RunInProcess(sys_->seedb.get(), req, &rec, log, next_sid_++);
  }
}

void Runner::RunClosedWire(Window* w, double seconds, size_t min_sessions,
                           seedb::Random* rng) {
  const int64_t stop = w->begin_us + static_cast<int64_t>(seconds * 1e6);
  const int64_t cap =
      w->begin_us + static_cast<int64_t>(seconds * kWindowCapFactor * 1e6);
  while ((NowUs() < stop || w->records.size() < min_sessions) &&
         NowUs() < cap) {
    SessionRecord& rec = w->records.emplace_back();
    rec.sql = PickSql(rng, &rec.pool_index);
    rec.scheduled_us = NowUs();
    sys_->wire->Open(0, MakeOpenSpec(c_, rec.sql, args_.cores), &rec);
    while (sys_->wire->in_flight() > 0 && NowUs() < cap) {
      sys_->wire->Pump(100);
    }
  }
  sys_->wire->Abandon("session outlived the measured window");
}

void Runner::RunOpenWire(Window* w, double seconds, size_t min_sessions,
                         seedb::Random* rng) {
  const size_t n = std::max<size_t>(
      min_sessions, static_cast<size_t>(std::ceil(c_.rate_per_s * seconds)));
  // The whole arrival schedule is drawn up front from the seed.
  std::vector<int64_t> due(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng->NextDouble()) / c_.rate_per_s;
    due[i] = w->begin_us + static_cast<int64_t>(t * 1e6);
  }
  const size_t conns = sys_->wire->connections();
  size_t next = 0;
  while (next < n) {
    const int64_t now = NowUs();
    while (next < n && due[next] <= now) {
      SessionRecord& rec = w->records.emplace_back();
      rec.sql = PickSql(rng, &rec.pool_index);
      rec.scheduled_us = due[next];
      sys_->wire->Open(next % conns, MakeOpenSpec(c_, rec.sql, args_.cores),
                       &rec);
      ++next;
    }
    if (next < n) {
      sys_->wire->Pump(
          static_cast<int>(std::max<int64_t>(0, due[next] - NowUs()) / 1000));
    }
  }
  const int64_t drain_until =
      NowUs() + static_cast<int64_t>(kDrainSeconds * 1e6);
  while (sys_->wire->in_flight() > 0 && NowUs() < drain_until) {
    sys_->wire->Pump(100);
  }
  sys_->wire->Abandon("session still in flight after the drain timeout");
}

/// Every window draws the same arrivals and pool choices from the seed, so
/// the two halves of a traced run see the same schedule (adhoc-exact's
/// predicates stay distinct across windows, from the same distribution).
Window Runner::Measure(double seconds, size_t min_sessions, bool traced) {
  Window w;
  seedb::Random rng(args_.seed * 7919 + 1);
  picks_ = 0;
  w.begin_us = NowUs();
  if (!c_.wire) {
    RunClosedInProcess(&w, seconds, min_sessions, traced, &rng);
  } else if (c_.rate_per_s > 0) {
    RunOpenWire(&w, seconds, min_sessions, &rng);
  } else {
    RunClosedWire(&w, seconds, min_sessions, &rng);
  }
  w.end_us = NowUs();
  if (traced && c_.wire) {
    for (const SessionRecord& r : w.records) AddWireSpans(&log_, r, next_sid_++);
  }
  return w;
}

/// Correctness gate. adhoc-exact: a seeded subset of sessions must match a
/// kPerQuery reference (an independent path through db/group_by) exactly,
/// ids and order. Pool workloads: every distinct predicate's exact top-k
/// (exhaustive shared scan) gives topk_recall. Planted selections must rank
/// the planted view. Failed or wrong sessions count in `failed`.
void Runner::Gate(std::vector<Window*> windows, RunOutcome* out,
                  double* recall) {
  db::Engine ref_engine(sys_->catalog.get());
  core::SeeDB ref(&ref_engine);
  auto reference = [&](const std::string& sql, bool per_query) {
    core::SeeDBRequest req = core::SeeDBRequest::FromSql(sql).ValueOrDie();
    req.WithTopK(c_.k).WithParallelism(args_.cores);
    req.WithStrategy(per_query ? core::ExecutionStrategy::kPerQuery
                               : core::ExecutionStrategy::kSharedScan);
    ScopedSpan span(&log_, kReferenceTrack, "reference");
    seedb::Result<core::RecommendationSet> set = ref.Run(req);
    Check(set.status(), "reference run");
    std::vector<std::string> ids;
    for (const auto& r : set->top_views) ids.push_back(r.view().Id());
    return ids;
  };

  std::vector<SessionRecord*> all;
  for (Window* w : windows) {
    for (SessionRecord& r : w->records) all.push_back(&r);
  }
  out->attempted = all.size();
  std::vector<double> recalls;
  auto score = [&](SessionRecord* r, const std::vector<std::string>& want) {
    size_t hit = 0;
    for (const std::string& id : r->top) {
      if (std::find(want.begin(), want.end(), id) != want.end()) ++hit;
    }
    recalls.push_back(want.empty() ? 1.0
                                   : static_cast<double>(hit) / want.size());
  };

  if (pool_.empty()) {
    std::vector<SessionRecord*> ok;
    for (SessionRecord* r : all) {
      if (r->ok) ok.push_back(r);
    }
    seedb::Random pick(args_.seed ^ 0xc0ffeeULL);
    pick.Shuffle(&ok);
    ok.resize(std::min(ok.size(), c_.reference_sessions));
    for (SessionRecord* r : ok) {
      const std::vector<std::string> want = reference(r->sql, true);
      score(r, want);
      if (r->top != want) {
        r->ok = false;
        r->error = "top-k differs from the kPerQuery reference";
        out->correct = false;
        out->problems.push_back("mismatch for " + r->sql);
      }
    }
  } else {
    std::map<size_t, std::vector<std::string>> want;
    for (SessionRecord* r : all) {
      if (!r->ok) continue;
      auto it = want.find(r->pool_index);
      if (it == want.end()) {
        it = want.emplace(r->pool_index, reference(r->sql, false)).first;
      }
      score(r, it->second);
      if (r->pool_index == 0 && !HasPlantedView(r->top)) {
        r->ok = false;
        r->error = "planted view missing from the top-k";
        out->correct = false;
        out->problems.push_back("planted view missing for " + r->sql);
      }
    }
  }
  for (SessionRecord* r : all) {
    if (!r->ok) ++out->failed;
  }
  *recall = Mean(recalls);
}

void Runner::PlanTimes(const Window& w, LayerInputs* in) {
  const db::TableStats* stats =
      sys_->catalog->GetStats(kTableName).ValueOrDie();
  size_t n = 0;
  for (const SessionRecord& r : w.records) {
    if (!r.ok || n++ >= 50) continue;
    db::PredicatePtr sel =
        core::SeeDBRequest::FromSql(r.sql).ValueOrDie().selection();
    const int64_t a = NowUs();
    seedb::Result<core::GeneratedViews> views = core::GenerateViews(
        sys_->engine.get(), kTableName, sel, core::ViewSpaceOptions{},
        core::PruningOptions{});
    Check(views.status(), "GenerateViews");
    seedb::Result<core::ExecutionPlan> plan = core::BuildExecutionPlan(
        views->pruning.kept, kTableName, sel, *stats,
        core::OptimizerOptions{});
    Check(plan.status(), "BuildExecutionPlan");
    const int64_t b = NowUs();
    log_.Add(kPlanTrack, "core.plan", a, b);
    in->plan_ms.push_back(static_cast<double>(b - a) / 1e3);
    in->plan_views.push_back(static_cast<double>(views->pruning.kept.size()));
    in->plan_queries.push_back(static_cast<double>(plan->num_queries()));
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

RunOutcome Runner::Run() {
  RunOutcome out;
  if (c_.pool > 0) {
    pool_ = PredicatePool(c_, args_.seed);
    if (c_.rate_per_s > 0) {
      zipf_ = std::make_unique<seedb::ZipfDistribution>(pool_.size(), 1.0);
    }
  } else {
    distinct_ = std::make_unique<DistinctPredicates>(c_, args_.seed);
  }
  for (size_t rep = 0; rep < c_.setup_reps; ++rep) {
    sys_.reset();  // tear the previous set-up down first
    sys_ = SetUp(rep, &out.problems);
  }
  if (!out.problems.empty()) out.correct = false;

  double recall = 0.0;
  if (!args_.trace) {
    Window w = Measure(args_.seconds, c_.min_sessions, false);
    const double peak_rss_mb = PeakRssMb();  // before the gate's reference
    Gate({&w}, &out, &recall);
    EndToEnd(c_, w, Quantile(setup_.total_s, 0.5), recall, peak_rss_mb,
             &out.metrics);
    return out;
  }

  // Traced run: an untraced half for the tracing-overhead baseline, then a
  // traced half with the same arrivals and pool choices, in which the
  // program's own trace recorder runs for every session and the
  // benchmark's spans and instrument deltas give the layer metrics.
  const size_t half = std::max<size_t>(1, c_.min_sessions / 2);
  Window plain = Measure(args_.seconds / 2, half, false);
  LayerInputs in;
  in.before = InstrumentSnapshot::Take(sys_->engine.get());
  const seedb::Status started = seedb::obs::TraceRecorder::StartGlobal(
      args_.program_trace_out, /*trace_all_sessions=*/true);
  Window traced = Measure(args_.seconds / 2, half, true);
  seedb::obs::TraceRecorder::StopGlobal();
  in.after = InstrumentSnapshot::Take(sys_->engine.get());
  if (!started.ok()) {
    out.correct = false;
    out.problems.push_back("program trace: " + started.ToString());
  }
  PlanTimes(traced, &in);
  Gate({&plain, &traced}, &out, &recall);
  in.stats_ms = setup_.stats_ms;
  in.corr_ms = setup_.corr_ms;
  in.spans_nested = log_.Nested();
  in.untraced_p50_ms = SessionQuantileMs(plain, 0.5);
  std::string closure_problem;
  PerLayer(c_, traced, in, &out.metrics, &closure_problem);
  if (!closure_problem.empty()) {
    out.correct = false;
    out.problems.push_back(closure_problem);
  }
  if (!args_.trace_out.empty() && !log_.WriteChromeJson(args_.trace_out)) {
    out.correct = false;
    out.problems.push_back("cannot write " + args_.trace_out);
  }
  return out;
}

}  // namespace

RunOutcome RunWorkload(const RunArgs& args) {
  Runner runner(args);
  return runner.Run();
}

}  // namespace perfbench
