// Statistical goodness-of-fit layer: chi-square tests pinning (a) the
// simulator's realized-hops histogram and (b) the path samplers' output to
// the configured path_length_distribution, at three preset strategies.
// Seeds are fixed and chosen so every test is deterministic and passes with
// a comfortable margin; a change that skews sampling or routing will move
// the statistic far past the rejection threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/anonymity/path_sampler.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/chi_square.hpp"
#include "src/stats/rng.hpp"
#include "src/workload/population.hpp"

namespace anonpath {
namespace {

struct preset {
  const char* name;
  path_length_distribution lengths;
};

std::vector<preset> presets() {
  return {
      {"U(1,8)", path_length_distribution::uniform(1, 8)},
      {"Geom(0.8,1..12)", path_length_distribution::geometric(0.8, 1, 12)},
      {"Poisson(5,14)", path_length_distribution::poisson(5.0, 14)},
  };
}

/// Chi-square p-value of observed counts against the distribution's dense
/// pmf (histogram padded to the support size).
double gof_p_value(std::vector<std::uint64_t> hist,
                   const path_length_distribution& d) {
  const auto& pmf = d.dense_pmf();
  if (hist.size() < pmf.size()) hist.resize(pmf.size(), 0);
  EXPECT_EQ(hist.size(), pmf.size()) << "observed support exceeds the pmf's";
  return stats::chi_square_goodness_of_fit(hist, pmf).p_value;
}

TEST(StatGoF, SimulatorRealizedHopsMatchConfiguredDistribution) {
  // Source-routed, lossless: every delivered message realizes exactly its
  // sampled length, so the hop histogram is a direct sample of the
  // configured distribution.
  std::uint64_t seed = 20;
  for (const preset& p : presets()) {
    sim::sim_config cfg;
    cfg.sys = {40, 1};
    cfg.compromised = {0};
    cfg.lengths = p.lengths;
    cfg.message_count = 3000;
    cfg.arrival_rate = 400.0;
    cfg.seed = ++seed;
    const auto report = sim::run_simulation(cfg);
    ASSERT_EQ(report.delivered, cfg.message_count) << p.name;
    std::uint64_t total = 0;
    for (std::uint64_t c : report.hop_histogram) total += c;
    EXPECT_EQ(total, report.delivered);
    const double pv = gof_p_value(report.hop_histogram, p.lengths);
    EXPECT_GT(pv, 0.01) << p.name << ": simulator hops diverge from strategy";
  }
}

TEST(StatGoF, RouteSamplerLengthsMatchConfiguredDistribution) {
  std::uint64_t seed = 50;
  for (const preset& p : presets()) {
    route_sampler sampler(40, p.lengths);
    stats::rng gen(++seed);
    std::vector<std::uint64_t> hist(p.lengths.max_length() + 1, 0);
    for (int i = 0; i < 20000; ++i) {
      const route& r = sampler.next(gen);
      ASSERT_LT(r.length(), hist.size() + 1);
      ++hist[r.length()];
    }
    const double pv = gof_p_value(std::move(hist), p.lengths);
    EXPECT_GT(pv, 0.01) << p.name << ": route_sampler lengths diverge";
  }
}

TEST(StatGoF, SampleRouteLengthsMatchConfiguredDistribution) {
  // The per-call sampler (the simulator's own draw path) against the same
  // presets: both samplers must agree with the strategy, not just one.
  std::uint64_t seed = 80;
  for (const preset& p : presets()) {
    stats::rng gen(++seed);
    std::vector<std::uint64_t> hist(p.lengths.max_length() + 1, 0);
    for (int i = 0; i < 20000; ++i)
      ++hist[sample_route(40, p.lengths, gen).length()];
    const double pv = gof_p_value(std::move(hist), p.lengths);
    EXPECT_GT(pv, 0.01) << p.name << ": sample_route lengths diverge";
  }
}

TEST(StatGoF, RouteSamplerSendersAreUniform) {
  const std::uint32_t n = 25;
  route_sampler sampler(n, path_length_distribution::uniform(1, 6));
  stats::rng gen(7);
  std::vector<std::uint64_t> hist(n, 0);
  for (int i = 0; i < 25000; ++i) ++hist[sampler.next(gen).sender];
  const std::vector<double> uniform(n, 1.0 / n);
  const auto r = stats::chi_square_goodness_of_fit(hist, uniform);
  EXPECT_GT(r.p_value, 0.01) << "senders are not uniform over V";
}

/// Chi-square p-value of observed next-hop counts (indexed like
/// topo.adjacency(from)) against the configured transition distribution.
double neighbor_gof_p_value(const net::topology& topo, node_id from,
                            const std::vector<std::uint64_t>& counts) {
  const net::neighbor_view a = topo.adjacency(from);
  std::vector<double> expected(a.size);
  for (std::size_t i = 0; i < a.size; ++i)
    expected[i] = a.weights[i] / topo.total_weight(from);
  return stats::chi_square_goodness_of_fit(counts, expected).p_value;
}

TEST(StatGoF, NeighborChoiceFrequenciesMatchEdgeWeights) {
  // Three topology presets; sample_neighbor's draw frequencies must match
  // the configured edge weights at every probed node.
  struct topo_preset {
    const char* name;
    net::topology topo;
  };
  const std::vector<topo_preset> presets{
      {"ring(3)", net::topology::ring(20, 3)},
      {"tiered(3)", net::topology::tiered(21, 3)},
      {"trust(0.6)", net::topology::trust_weighted(16, 0.6)},
  };
  std::uint64_t seed = 110;
  for (const auto& p : presets) {
    stats::rng gen(++seed);
    for (const node_id from : {node_id{0}, node_id{7}, node_id{13}}) {
      const net::neighbor_view nbr = p.topo.adjacency(from);
      const node_id* end = nbr.ids + nbr.size;
      std::vector<std::uint64_t> counts(nbr.size, 0);
      for (int i = 0; i < 20000; ++i) {
        const node_id v = p.topo.sample_neighbor(from, gen);
        const node_id* it = std::lower_bound(nbr.ids, end, v);
        ASSERT_TRUE(it != end && *it == v) << p.name;
        ++counts[static_cast<std::size_t>(it - nbr.ids)];
      }
      EXPECT_GT(neighbor_gof_p_value(p.topo, from, counts), 0.01)
          << p.name << ": neighbor draw diverges from edge weights at node "
          << from;
    }
  }
}

TEST(StatGoF, WalkRouteFirstHopsMatchEdgeWeights) {
  // The full route sampler (the simulator's own draw path on restricted
  // graphs) must route its first hop per the weights too, not just the
  // bare neighbor draw.
  const net::topology topo = net::topology::trust_weighted(14, 0.5);
  const node_id sender = 5;
  const net::neighbor_view nbr = topo.adjacency(sender);
  const node_id* end = nbr.ids + nbr.size;
  stats::rng gen(131);
  std::vector<std::uint64_t> counts(nbr.size, 0);
  for (int i = 0; i < 20000; ++i) {
    const route r = sample_topology_route(topo, sender, 3, gen);
    const node_id* it = std::lower_bound(nbr.ids, end, r.hops.front());
    ASSERT_TRUE(it != end);
    ++counts[static_cast<std::size_t>(it - nbr.ids)];
  }
  EXPECT_GT(neighbor_gof_p_value(topo, sender, counts), 0.01);
}

TEST(StatGoF, RejectsMiscalibratedEdgeWeights) {
  // Negative control: trust-weighted draws scored against the uniform
  // hypothesis must be rejected decisively.
  const net::topology topo = net::topology::trust_weighted(16, 0.6);
  stats::rng gen(149);
  const node_id from = 0;
  const net::neighbor_view nbr = topo.adjacency(from);
  std::vector<std::uint64_t> counts(nbr.size, 0);
  for (int i = 0; i < 20000; ++i) {
    const node_id v = topo.sample_neighbor(from, gen);
    const node_id* it = std::lower_bound(nbr.ids, nbr.ids + nbr.size, v);
    ++counts[static_cast<std::size_t>(it - nbr.ids)];
  }
  const std::vector<double> uniform(nbr.size, 1.0 / nbr.size);
  EXPECT_LT(stats::chi_square_goodness_of_fit(counts, uniform).p_value, 1e-6);
}

/// Histograms the *background* emissions of a population workload
/// (persistent-pair prefix messages excluded via the ground-truth prefix),
/// either senders or receivers.
std::vector<std::uint64_t> background_histogram(
    const workload::population& pop, bool senders, std::uint32_t bins) {
  std::vector<std::uint64_t> hist(bins, 0);
  for (std::uint32_t r = 0; r < pop.config().round_count; ++r) {
    const workload::round_batch b = pop.round(r);
    for (std::size_t i = b.active_pairs.size(); i < b.senders.size(); ++i)
      ++hist[senders ? b.senders[i] : b.receivers[i]];
  }
  return hist;
}

TEST(StatGoF, WorkloadEmissionMatchesConfiguredLaws) {
  // Background senders and receivers against uniform and Zipf laws, per
  // configured law — the population model's own emission calibration.
  struct law_preset {
    const char* name;
    workload::popularity_law law;
  };
  const std::vector<law_preset> laws{
      {"uniform", {workload::popularity_kind::uniform, 1.0}},
      {"zipf(1.0)", {workload::popularity_kind::zipf, 1.0}},
      {"zipf(1.6)", {workload::popularity_kind::zipf, 1.6}},
  };
  std::uint64_t seed = 170;
  for (const law_preset& p : laws) {
    workload::population_config cfg;
    cfg.seed = ++seed;
    cfg.user_count = 40;
    cfg.receiver_count = 30;
    cfg.round_count = 800;
    cfg.persistent_pairs = 2;
    cfg.round_size = 25;
    cfg.sender_law = p.law;
    cfg.receiver_law = p.law;
    const workload::population pop(cfg);
    const auto sender_pmf = workload::popularity_pmf(p.law, cfg.user_count);
    const auto recv_pmf = workload::popularity_pmf(p.law, cfg.receiver_count);
    const auto sender_hist = background_histogram(pop, true, cfg.user_count);
    const auto recv_hist =
        background_histogram(pop, false, cfg.receiver_count);
    EXPECT_GT(
        stats::chi_square_goodness_of_fit(sender_hist, sender_pmf).p_value,
        0.01)
        << p.name << ": background senders diverge from the configured law";
    EXPECT_GT(stats::chi_square_goodness_of_fit(recv_hist, recv_pmf).p_value,
              0.01)
        << p.name << ": background receivers diverge from the configured law";
  }
}

TEST(StatGoF, RejectsAMiscalibratedWorkloadLaw) {
  // Negative control: Zipf(1.2) receiver draws scored against the uniform
  // hypothesis must be rejected decisively.
  workload::population_config cfg;
  cfg.seed = 199;
  cfg.user_count = 40;
  cfg.receiver_count = 30;
  cfg.round_count = 800;
  cfg.persistent_pairs = 0;
  cfg.round_size = 25;
  cfg.receiver_law = {workload::popularity_kind::zipf, 1.2};
  const workload::population pop(cfg);
  const auto hist = background_histogram(pop, false, cfg.receiver_count);
  const std::vector<double> uniform(cfg.receiver_count,
                                    1.0 / cfg.receiver_count);
  EXPECT_LT(stats::chi_square_goodness_of_fit(hist, uniform).p_value, 1e-6);
}

TEST(StatGoF, RejectsAMiscalibratedDistribution) {
  // Negative control: the same machinery must reject a wrong hypothesis —
  // U(1,8) samples scored against Geom(0.8)'s pmf on the same support.
  route_sampler sampler(40, path_length_distribution::uniform(1, 8));
  stats::rng gen(3);
  std::vector<std::uint64_t> hist(9, 0);
  for (int i = 0; i < 20000; ++i) ++hist[sampler.next(gen).length()];
  const auto wrong_dist = path_length_distribution::geometric(0.8, 1, 8);
  const auto r =
      stats::chi_square_goodness_of_fit(hist, wrong_dist.dense_pmf());
  EXPECT_LT(r.p_value, 1e-6);
}

}  // namespace
}  // namespace anonpath
