// Extension C: the paper's Sec. 2 survey made quantitative — every deployed
// strategy (Anonymizer, LPWA, Freedom, Onion Routing I/II, Crowds, Hordes,
// PipeNet) scored on the same N=100, C=1 system, against the optimal
// distribution at the same mean cost. This is the paper's concluding point:
// "several existing anonymous communication systems are not using the best
// path selection strategy".
//
// Kept as a binary because this exact table has no CLI path;
// tests/smoke/extensions.sh checks the headroom and the log2(N) ceiling.

#include <benchmark/benchmark.h>

#include <cmath>
#include <iomanip>

#include "bench/bench_common.hpp"
#include "src/anonymity/optimizer.hpp"
#include "src/anonymity/strategy.hpp"

namespace {

using namespace anonpath;

constexpr system_params sys{100, 1};

void emit(std::ostream& os) {
  os << "# extC: deployed-protocol ranking (N=100, C=1)\n";
  os << "protocol,mean_len,H*,optimal_at_same_mean,headroom_bits\n";
  os << std::setprecision(6);
  for (const auto& p : protocols::survey(99)) {
    const double h = anonymity_degree(sys, p.lengths);
    const double mean = p.lengths.mean();
    // Optimal benchmark at the same (rounded to 0.5) mean rerouting cost.
    const double target = std::min(99.0, std::round(mean * 2.0) / 2.0);
    const double h_opt = optimize_for_mean(sys, target, 99).degree;
    os << p.name << "," << mean << "," << h << "," << h_opt << ","
       << (h_opt - h) << "\n";
  }
  os << "# ceiling log2(N) = " << max_anonymity_degree(sys) << "\n\n";
}

void BM_SurveyScoring(benchmark::State& state) {
  const auto all = protocols::survey(99);
  for (auto _ : state) {
    for (const auto& p : all)
      benchmark::DoNotOptimize(anonymity_degree(sys, p.lengths));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(all.size()));
}
BENCHMARK(BM_SurveyScoring);

}  // namespace

int main(int argc, char** argv) {
  return anonpath::bench::figure_main(argc, argv, emit);
}
