#pragma once

// Shared main() for reproduction benches: first print the paper figure's
// data series (the reproduction deliverable), then run the registered
// google-benchmark timings. A bench's main() returns
// `figure_main(argc, argv, emit)`, where `emit(std::ostream&)` prints the
// series.

#include <benchmark/benchmark.h>

#include <iostream>

namespace anonpath::bench {

/// Runs `emit` (series printing) followed by google-benchmark's own driver.
/// Returns the process exit code.
template <typename EmitFn>
int figure_main(int argc, char** argv, EmitFn&& emit) {
  emit(std::cout);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace anonpath::bench
