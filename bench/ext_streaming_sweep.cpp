// Extension (beyond the paper's single-message analysis): the streaming
// online-inference frontier. Offline disclosure post-processing holds dense
// per-receiver state — O(population) per tracked pair — which is exactly
// what breaks first at 1e6..1e7 receivers. The sketch backend (count-min
// counts plus a weighted bottom-k candidate reservoir) makes the online
// session's memory independent of the population while the posterior stays
// conformance-pinned to the exact engine. This sweep maps that trade-off:
// engine memory and posterior agreement as the receiver population grows
// with the observation stream held fixed.
//
// Kept as a binary because no CLI prints engine bytes;
// tests/smoke/extensions.sh checks this series' claims.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_common.hpp"
#include "src/attack/disclosure.hpp"
#include "src/attack/online.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/workload/population.hpp"
#include "src/workload/streaming.hpp"

namespace {

using namespace anonpath;

constexpr std::uint32_t sweep_rounds = 4000;
constexpr std::uint32_t sweep_round_size = 8;

workload::population_config sweep_config(std::uint32_t receivers,
                                         std::uint64_t seed) {
  workload::population_config cfg;
  cfg.seed = seed;
  cfg.user_count = receivers;
  cfg.receiver_count = receivers;
  cfg.round_count = sweep_rounds;
  cfg.persistent_pairs = 1;
  cfg.round_size = sweep_round_size;
  return cfg;
}

void emit(std::ostream& os) {
  os << "# ext_streaming: online sda engine memory & posterior agreement vs "
        "receiver population (R="
     << sweep_rounds << " rounds, B=" << sweep_round_size
     << " msgs/round, exact vs count-min+bottom-k sketch)\n";
  os << "receivers,exact_bytes,sketch_bytes,memory_ratio,top_match,"
        "exact_entropy_bits,sketch_entropy_bits\n";
  for (const std::uint32_t receivers : {1000u, 10000u, 100000u, 1000000u}) {
    const workload::population pop(sweep_config(receivers, 97));
    workload::cooccurrence_config ccfg;
    ccfg.threads = 0;  // all cores
    const workload::streaming_accumulator exact_acc =
        workload::accumulate_streaming(pop, 0, sweep_rounds, {}, ccfg);
    workload::streaming_config scfg;
    scfg.backend = workload::stream_backend::sketch;
    const workload::streaming_accumulator sketch_acc =
        workload::accumulate_streaming(pop, 0, sweep_rounds, scfg, ccfg);
    const attack::sda_attack exact =
        attack::sda_attack::from_counts(exact_acc.totals(), 0, receivers);
    const attack::sketch_sda_attack sketched =
        attack::sketch_sda_attack::from_accumulator(sketch_acc, 0, receivers);
    const std::vector<double> pe = exact.posterior();
    const std::vector<double> ps = sketched.posterior();
    const auto te = std::max_element(pe.begin(), pe.end()) - pe.begin();
    const auto ts = std::max_element(ps.begin(), ps.end()) - ps.begin();
    os << receivers << ',' << exact.memory_bytes() << ','
       << sketched.memory_bytes() << ','
       << static_cast<double>(exact.memory_bytes()) /
              static_cast<double>(sketched.memory_bytes())
       << ',' << (te == ts ? 1 : 0) << ','
       << attack::summarize_posterior(pe, sweep_rounds, 0.99).entropy_bits
       << ','
       << attack::summarize_posterior(ps, sweep_rounds, 0.99).entropy_bits
       << "\n";
  }
  os << "\n";
}

void BM_StreamingAccumulate(benchmark::State& state) {
  // The sharded streaming driver at population scale, exact vs sketch state
  // over the worker-thread axis; bit-identical results across the axis by
  // construction (merge in ascending shard order).
  const workload::population pop(sweep_config(100000, 7));
  workload::streaming_config scfg;
  scfg.backend = state.range(1) != 0 ? workload::stream_backend::sketch
                                     : workload::stream_backend::exact;
  workload::cooccurrence_config ccfg;
  ccfg.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workload::accumulate_streaming(pop, 0, sweep_rounds, scfg, ccfg));
  }
  state.SetItemsProcessed(state.iterations() * sweep_rounds);
}
BENCHMARK(BM_StreamingAccumulate)
    ->Args({1, 0})->Args({8, 0})->Args({1, 1})->Args({8, 1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_OnlineSessionSnapshot(benchmark::State& state) {
  // Cost of a mid-stream posterior query (the thing offline post-processing
  // cannot do at all): one full posterior + summary at the current position.
  const std::uint32_t receivers = 100000;
  const workload::population pop(sweep_config(receivers, 7));
  attack::online_config ocfg;
  ocfg.backend = state.range(0) != 0 ? workload::stream_backend::sketch
                                     : workload::stream_backend::exact;
  ocfg.stride = sweep_rounds;  // no trajectory sampling inside the loop
  attack::online_attack online(receivers, ocfg);
  const node_id target = pop.pairs().front().sender;
  for (std::uint32_t r = 0; r < 512; ++r) {
    const workload::round_batch batch = pop.round(r);
    attack::round_observation obs;
    obs.target_present =
        std::find(batch.senders.begin(), batch.senders.end(), target) !=
        batch.senders.end();
    obs.receivers = batch.receivers;
    online.ingest(obs);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(online.snapshot());
  }
}
BENCHMARK(BM_OnlineSessionSnapshot)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  return anonpath::bench::figure_main(argc, argv, emit);
}
