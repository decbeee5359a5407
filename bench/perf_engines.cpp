// Performance benchmarks for every engine in the library: the analytic
// closed form, the general posterior, Monte-Carlo sampling, the optimizer,
// the onion crypto, and the discrete-event fabric.
//
//   bench_perf_engines --json[=FILE]   machine-readable results (defaults
//                                      to BENCH_perf.json) — the CI perf
//                                      trajectory artifact. All other flags
//                                      pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/brute_force.hpp"
#include "src/anonymity/monte_carlo.hpp"
#include "src/anonymity/optimizer.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sequential_bayes.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/crypto/onion.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/event_queue.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace anonpath;

constexpr system_params sys{100, 1};

void BM_AnalyticDegreeFromMoments(benchmark::State& state) {
  const moment_signature sig{0.01, 0.05, 0.1, 12.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(anonymity_degree_from_moments(sys, sig));
  }
}
BENCHMARK(BM_AnalyticDegreeFromMoments);

void BM_AnalyticDegreeFromPmf(benchmark::State& state) {
  const auto d = path_length_distribution::uniform(
      0, static_cast<path_length>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(anonymity_degree(sys, d));
  }
}
BENCHMARK(BM_AnalyticDegreeFromPmf)->Arg(10)->Arg(99);

void BM_PosteriorSingleObservation(benchmark::State& state) {
  const auto c = static_cast<std::uint32_t>(state.range(0));
  std::vector<node_id> comp;
  for (std::uint32_t i = 0; i < c; ++i) comp.push_back(i * 7 % 100);
  const system_params s{100, c};
  const auto d = path_length_distribution::uniform(1, 20);
  const posterior_engine engine(s, comp, d);
  std::vector<bool> flags(100, false);
  for (auto x : comp) flags[x] = true;
  stats::rng gen(5);
  const route r = sample_route(100, d, gen);
  const auto obs = observe(r, flags);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.sender_posterior(obs));
  }
  // Memo effectiveness rides along as a user counter (an extra JSON key on
  // this benchmark's entries): perf_diff.py prints baseline-vs-current
  // hit-rate deltas when both artifacts carry it. Not part of the gate.
  const auto evals = static_cast<double>(engine.likelihood_evaluations());
  state.counters["memo_hit_rate"] =
      evals == 0.0 ? 0.0 : static_cast<double>(engine.memo_hits()) / evals;
}
BENCHMARK(BM_PosteriorSingleObservation)->Arg(1)->Arg(4)->Arg(16);

void BM_BruteForceSmallSystem(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto d = path_length_distribution::uniform(0, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        brute_force_analyzer(system_params{n, 1}, {0}, d).anonymity_degree());
  }
}
BENCHMARK(BM_BruteForceSmallSystem)->Arg(5)->Arg(7);

void BM_MonteCarloThousandSamples(benchmark::State& state) {
  const auto d = path_length_distribution::uniform(1, 10);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_anonymity_degree(sys, {13}, d, 1000, seed++));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MonteCarloThousandSamples);

void BM_MonteCarloParallel(benchmark::State& state) {
  // Thread-scaling sweep at a fixed shard count: estimates are bit-identical
  // across the thread axis by construction (see mc_config), so this measures
  // pure throughput.
  const system_params big{100, 8};
  const std::vector<node_id> comp{3, 13, 29, 41, 55, 67, 78, 91};
  const auto d = path_length_distribution::uniform(1, 10);
  mc_config cfg;
  cfg.threads = static_cast<unsigned>(state.range(0));
  cfg.shards = 64;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_anonymity_degree(big, comp, d, 20000, seed++, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MonteCarloParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_OptimizerGridRefine(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize_for_mean(sys, 10.0, 99, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_OptimizerGridRefine)->Arg(16)->Arg(48);

void BM_OnionWrapPeel(benchmark::State& state) {
  const crypto::key_registry keys(1, 100);
  stats::rng gen(2);
  const auto l = static_cast<path_length>(state.range(0));
  const route r = sample_simple_route(100, 0, l, gen);
  std::vector<std::byte> payload(256, std::byte{0x42});
  for (auto _ : state) {
    auto env = crypto::wrap_onion(r, payload, keys, 9);
    for (node_id hop : r.hops) {
      auto peeled = crypto::peel_onion(hop, env, keys, 9);
      env = std::move(peeled.inner);
    }
    benchmark::DoNotOptimize(crypto::open_at_receiver(env, keys, 9));
  }
  state.SetItemsProcessed(state.iterations() * (l + 1));
}
BENCHMARK(BM_OnionWrapPeel)->Arg(3)->Arg(10)->Arg(51);

void BM_CampaignThroughput(benchmark::State& state) {
  // End-to-end scenario-campaign fan-out: 8 cells x 4 replicas of full
  // simulator runs (workload -> onion relays -> adversary -> exact
  // inference), swept over worker threads. Aggregation is thread-count
  // invariant, so this is a pure wall-clock scaling measurement.
  sim::campaign_grid grid;
  grid.node_counts = {40, 80};
  grid.compromised_counts = {1, 4};
  grid.lengths = {path_length_distribution::fixed(3),
                  path_length_distribution::uniform(1, 8)};
  grid.drop_probabilities = {0.0};
  grid.message_count = 150;
  sim::campaign_config cfg;
  cfg.replicas = 4;
  cfg.threads = static_cast<unsigned>(state.range(0));
  const auto cells =
      static_cast<std::int64_t>(sim::expand_grid(grid).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_campaign(grid, cfg));
    ++cfg.master_seed;  // fresh draws each iteration, still deterministic
  }
  state.SetItemsProcessed(state.iterations() * cells * cfg.replicas *
                          grid.message_count);
}
BENCHMARK(BM_CampaignThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SequentialBayesRounds(benchmark::State& state) {
  // The longitudinal-attack hot loop under the perf gate: a full
  // sequential-Bayes pass over pre-generated rounds (soft-weight evidence,
  // 10k-receiver population, O(deliveries) sparse updates with member
  // scratch — no per-round allocations). Arg is deliveries per round.
  const std::uint32_t receivers = 10000;
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t round_count = 512;
  std::vector<attack::round_observation> rounds(round_count);
  stats::rng gen(11);
  for (std::size_t i = 0; i < round_count; ++i) {
    attack::round_observation& round = rounds[i];
    round.target_present = i % 4 != 3;  // 3:1 target vs pure-background mix
    round.receivers.reserve(m);
    for (std::size_t j = 0; j < m; ++j)
      round.receivers.push_back(static_cast<node_id>(
          gen.next_u64() % receivers));
    if (round.target_present) {
      round.receivers[0] = 17;  // the true partner stays in every round
      round.target_weight.assign(m, 0.5 / static_cast<double>(m));
      round.target_weight[0] = 0.4;  // soft per-message posterior evidence
    }
  }
  for (auto _ : state) {
    attack::sequential_bayes_attack atk(receivers);
    for (const auto& round : rounds) atk.observe_round(round);
    benchmark::DoNotOptimize(atk.posterior());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * round_count * m));
}
BENCHMARK(BM_SequentialBayesRounds)->Arg(16)->Arg(128);

/// Shared round stream for the streaming-ingest benches: 512 pre-generated
/// rounds, `m` deliveries each, 3:1 target vs pure-background mix, the true
/// partner in every target round. Crisp membership (the mix rounds are the
/// evidence) — this is the per-round cost an online session pays.
std::vector<attack::round_observation> streaming_rounds(
    std::uint32_t receivers, std::size_t m) {
  constexpr std::size_t round_count = 512;
  std::vector<attack::round_observation> rounds(round_count);
  stats::rng gen(11);
  for (std::size_t i = 0; i < round_count; ++i) {
    attack::round_observation& round = rounds[i];
    round.target_present = i % 4 != 3;
    round.receivers.reserve(m);
    for (std::size_t j = 0; j < m; ++j)
      round.receivers.push_back(
          static_cast<node_id>(gen.next_u64() % receivers));
    if (round.target_present) round.receivers[0] = 17;
  }
  return rounds;
}

void BM_StreamingSdaIngestExact(benchmark::State& state) {
  // The exact online-inference hot loop: dense per-receiver counters, an
  // O(deliveries) update per round. Arg is deliveries per round.
  const std::uint32_t receivers = 10000;
  const auto rounds =
      streaming_rounds(receivers, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    attack::sda_attack atk(receivers);
    for (const auto& round : rounds) atk.observe_round(round);
    benchmark::DoNotOptimize(atk.posterior());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * rounds.size() * state.range(0)));
}
BENCHMARK(BM_StreamingSdaIngestExact)->Arg(16)->Arg(128);

void BM_StreamingSdaIngestSketch(benchmark::State& state) {
  // The sketch-backed counterpart: count-min updates plus the weighted
  // bottom-k reservoir, memory independent of the receiver population.
  // Same stream as the exact bench so the two rows read as one trade-off.
  const std::uint32_t receivers = 10000;
  const auto rounds =
      streaming_rounds(receivers, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    attack::sketch_sda_attack atk(receivers);
    for (const auto& round : rounds) atk.observe_round(round);
    benchmark::DoNotOptimize(atk.posterior());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * rounds.size() * state.range(0)));
}
BENCHMARK(BM_StreamingSdaIngestSketch)->Arg(16)->Arg(128);

void BM_SdaTrajectorySummary(benchmark::State& state) {
  // One trajectory point of the exact SDA at population scale: 1e6
  // receivers, 400 target rounds of 1000 deliveries (a support of ~330k)
  // plus 100 background rounds. The summary reads the count classes, not
  // the support, so this should stay far below a pass over the receivers.
  constexpr std::uint32_t receivers = 1000000;
  attack::sda_attack atk(receivers);
  stats::rng gen(13);
  attack::round_observation round;
  for (std::uint32_t i = 0; i < 500; ++i) {
    round.target_present = i % 5 != 4;
    round.receivers.clear();
    for (int j = 0; j < 1000; ++j)
      round.receivers.push_back(
          static_cast<node_id>(gen.next_u64() % receivers));
    if (round.target_present) round.receivers[0] = 17;
    atk.observe_round(round);
  }
  for (auto _ : state) benchmark::DoNotOptimize(atk.summarize(500, 0.5));
}
BENCHMARK(BM_SdaTrajectorySummary);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  struct no_op final : sim::event_handler {
    void on_event(sim::event_kind, std::uint32_t) override {}
  };
  no_op handler;
  for (auto _ : state) {
    sim::event_queue q;
    q.bind(sim::event_kind::arrival, handler);
    for (std::uint32_t i = 0; i < 1000; ++i)
      q.schedule_at(static_cast<double>(i % 97), sim::event_kind::arrival, i);
    q.run_until_empty();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_SimpleRouteSampling(benchmark::State& state) {
  stats::rng gen(3);
  const auto d = path_length_distribution::uniform(1, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_route(100, d, gen));
  }
}
BENCHMARK(BM_SimpleRouteSampling);

}  // namespace

int main(int argc, char** argv) {
  // Translate --json[=FILE] into google-benchmark's out-file flags before
  // Initialize() consumes the command line; everything else passes through.
  std::vector<std::string> args;
  std::string json_path;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      const std::string path =
          arg == "--json" ? std::string("BENCH_perf.json") : arg.substr(7);
      if (path.empty()) {
        // benchmark silently disables file output on an empty name; a
        // script checking only the exit status would then trust a
        // missing/stale artifact.
        std::fprintf(stderr, "error: --json= requires a file name\n");
        return 1;
      }
      json_path = path;
      args.emplace_back("--benchmark_out=" + path);
      args.emplace_back("--benchmark_out_format=json");
    } else {
      args.emplace_back(arg);
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  ::benchmark::Initialize(&argc2, argv2.data());
  if (::benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (!json_path.empty()) {
    // google-benchmark does not surface out-file write failures in its
    // exit status: an unwritable path, a full disk, or ENOSPC at flush
    // leaves a missing/empty/stale artifact behind a "successful" run —
    // exactly what a perf gate must never be fed. Verify the artifact
    // actually landed: it must open and start with a JSON object.
    std::FILE* f = std::fopen(json_path.c_str(), "rb");
    int first = EOF;
    if (f != nullptr) {
      do {
        first = std::fgetc(f);
      } while (first == ' ' || first == '\n' || first == '\r' ||
               first == '\t');
      std::fclose(f);
    }
    if (first != '{') {
      std::fprintf(stderr,
                   "error: benchmark JSON was not written to '%s' "
                   "(unwritable path or disk full?)\n",
                   json_path.c_str());
      return 1;
    }
  }
  return 0;
}
