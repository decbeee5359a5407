// Extension F: simple vs. complicated paths (paper Sec. 3.2 taxonomy).
// Crowds and Onion Routing II allow cycles; Freedom forbids them. This bench
// quantifies what cycles are worth, exactly, on a small system where both
// models can be enumerated exhaustively.
//
// Kept as a binary because this exact table has no CLI path;
// tests/smoke/extensions.sh checks that cyclic >= simple in every row.

#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"
#include "src/anonymity/brute_force.hpp"
#include "src/anonymity/cyclic.hpp"

namespace {

using namespace anonpath;

constexpr system_params sys{8, 1};
const std::vector<node_id> compromised{3};

void emit(std::ostream& os) {
  os << "# extF: simple vs complicated (cycle-allowing) paths, exact "
        "enumeration (N=8, C=1)\n";
  os << "l,simple,cyclic,cyclic_gain\n";
  for (path_length l = 0; l <= 6; ++l) {
    const auto d = path_length_distribution::fixed(l);
    const brute_force_analyzer simple(sys, compromised, d);
    const cyclic_brute_force_analyzer cyclic(sys, compromised, d);
    os << l << "," << simple.anonymity_degree() << ","
       << cyclic.anonymity_degree() << ","
       << (cyclic.anonymity_degree() - simple.anonymity_degree()) << "\n";
  }
  // Variable-length comparison: the Crowds-style geometric coin.
  const auto geo = path_length_distribution::geometric(0.6, 1, 6);
  const brute_force_analyzer simple_geo(sys, compromised, geo);
  const cyclic_brute_force_analyzer cyclic_geo(sys, compromised, geo);
  os << "# geometric(pf=0.6): simple=" << simple_geo.anonymity_degree()
     << " cyclic=" << cyclic_geo.anonymity_degree() << "\n\n";
}

void BM_CyclicEnumeration(benchmark::State& state) {
  const auto d = path_length_distribution::fixed(
      static_cast<path_length>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cyclic_brute_force_analyzer(sys, compromised, d).anonymity_degree());
  }
}
BENCHMARK(BM_CyclicEnumeration)->Arg(3)->Arg(5);

void BM_SimpleEnumeration(benchmark::State& state) {
  const auto d = path_length_distribution::fixed(
      static_cast<path_length>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        brute_force_analyzer(sys, compromised, d).anonymity_degree());
  }
}
BENCHMARK(BM_SimpleEnumeration)->Arg(3)->Arg(5);

}  // namespace

int main(int argc, char** argv) {
  return anonpath::bench::figure_main(argc, argv, emit);
}
