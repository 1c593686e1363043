// Reports how the system google-benchmark library was built: run with
// --benchmark_format=json and read context.library_build_type ("debug" or
// "release"). The repository's bench/ binaries link this library.

#include <benchmark/benchmark.h>

static void BM_Noop(benchmark::State& state) {
  int x = 0;
  for (auto _ : state) benchmark::DoNotOptimize(++x);
}
BENCHMARK(BM_Noop)->Iterations(1);

BENCHMARK_MAIN();
