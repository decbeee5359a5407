// Extension B: the Crowds / Onion-Routing-II coin-flip (geometric) strategy
// — the paper's Theorem 2 family — compared at equal mean against fixed,
// uniform, and the optimum. Answers "is the Crowds coin a good length
// distribution?" quantitatively.
//
// Kept as a binary because this exact table has no CLI path;
// tests/smoke/extensions.sh checks Opt >= Geom, F and bestU in every row.

#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"
#include "src/anonymity/closed_forms.hpp"
#include "src/anonymity/optimizer.hpp"

namespace {

using namespace anonpath;

constexpr system_params sys{100, 1};

void emit(std::ostream& os) {
  os << "# extB: geometric (Crowds pf coin) vs fixed vs best-uniform vs "
        "optimal at equal mean (N=100, C=1)\n";
  os << "mean,pf,Geom,F,bestU,Opt\n";
  for (double mean : {2.0, 3.0, 4.0, 5.0, 8.0, 12.0, 20.0, 30.0}) {
    const double pf = 1.0 - 1.0 / mean;  // geometric mean = 1/(1-pf)
    const auto geom = path_length_distribution::geometric(pf, 1, 99);
    const double h_geom = anonymity_degree(sys, geom);
    const double h_fixed =
        theorem1_fixed_length(100, static_cast<path_length>(mean));
    const double h_best_u = best_uniform_for_mean(sys, mean, 99).degree;
    const double h_opt = optimize_for_mean(sys, mean, 99).degree;
    os << mean << "," << pf << "," << h_geom << "," << h_fixed << ","
       << h_best_u << "," << h_opt << "\n";
  }
  os << "# Theorem-2 closed form at pf=0.75: "
     << theorem2_geometric(100, 0.75) << "\n\n";
}

void BM_Theorem2ClosedForm(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(theorem2_geometric(100, 0.75));
  }
}
BENCHMARK(BM_Theorem2ClosedForm);

void BM_GeometricViaPmf(benchmark::State& state) {
  const auto d = path_length_distribution::geometric(0.75, 1, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(anonymity_degree(sys, d));
  }
}
BENCHMARK(BM_GeometricViaPmf);

}  // namespace

int main(int argc, char** argv) {
  return anonpath::bench::figure_main(argc, argv, emit);
}
