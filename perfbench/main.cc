// seedb_perfbench: runs one benchmark workload and prints its metrics.
//
//   seedb_perfbench --workload adhoc-exact --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// variant (per-layer metrics; the benchmark's Chrome trace goes to
// --trace-out, the program's own to --program-trace-out). --smoke shrinks
// every workload to a few thousand rows for the benchmark's own tests. The
// last stdout line is the JSON result; the exit code is 1 when a
// correctness check failed.

#include <sched.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "db/vec/simd/simd.h"
#include "perfbench.h"
#include "server/json.h"

namespace {

using seedb::server::JsonValue;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "seedb_perfbench: %s\nusage: seedb_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--program-trace-out FILE] [--smoke]\nworkloads:",
               why);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

size_t Cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string workload;
  bool smoke = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = args.seconds > 0;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      args.trace = v == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--program-trace-out") {
      args.program_trace_out = value();
    } else if (flag == "--smoke") {
      smoke = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds (> 0) and --trace are required");
  }
  if (!perfbench::FindWorkload(workload, smoke, &args.config)) {
    Usage(("unknown workload '" + workload + "'").c_str());
  }

  // Numbers from an unoptimized build are not benchmark results.
#ifndef NDEBUG
  const bool assertions = true;
#else
  const bool assertions = false;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || assertions) {
    std::fprintf(stderr,
                 "seedb_perfbench: refusing to report from a %s build "
                 "(assertions %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE, assertions ? "on" : "off");
    return 3;
  }
  ::mkdir(".bench_build", 0755);  // holds the server's unix socket

  args.cores = Cores();
  const perfbench::WorkloadConfig& c = args.config;
  std::printf("host: cpu=\"%s\" nproc=%zu simd_isa=%s simd_available=%d\n",
              CpuModel().c_str(), args.cores,
              seedb::db::vec::simd::IsaName(),
              seedb::db::vec::simd::Available() ? 1 : 0);
  std::printf("build: type=%s compiler=\"%s\" simd_isa_option=%s\n",
              PERFBENCH_BUILD_TYPE, __VERSION__, PERFBENCH_SIMD_ISA_OPTION);
  std::printf(
      "workload: %s seed=%llu seconds=%g trace=%d rows=%zu strategy=%s "
      "phases=%zu pruner=%s cache_mb=%zu loop=%s rate_per_s=%g slo_ms=%g "
      "pool=%zu%s\n",
      c.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, c.table.rows, c.strategy.c_str(), c.phases,
      c.pruner.c_str(), c.cache_bytes >> 20,
      c.rate_per_s > 0 ? "open" : "closed", c.rate_per_s, c.slo_ms, c.pool,
      smoke ? " (smoke)" : "");

  const perfbench::RunOutcome out = perfbench::RunWorkload(args);

  for (const std::string& p : out.problems) {
    std::printf("correctness: %s\n", p.c_str());
  }
  std::printf("failed_frac: %.6f (%llu of %llu sessions)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, vu] : out.metrics.values()) {
    std::printf("metric %-32s %16.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
    JsonValue m = JsonValue::Object();
    m.Set("value", JsonValue::Number(vu.first));
    m.Set("unit", JsonValue::Str(vu.second));
    metrics.Set(name, std::move(m));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(out.correct));
  result.Set("attempted",
             JsonValue::Number(static_cast<double>(out.attempted)));
  result.Set("failed", JsonValue::Number(static_cast<double>(out.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
