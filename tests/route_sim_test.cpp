// End-to-end coverage for planned (kpaths) routing through the simulator,
// trace pipeline, and campaign grid: runs deliver and score, replay is
// bit-identical to inline execution, the trace section round-trips (and is
// absent for walk configs, keeping goldens byte-stable), the reader rejects
// inconsistent routing lines, and the campaign axis expands/filters as
// documented.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "src/net/route_plan.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"

namespace anonpath::sim {
namespace {

sim_config kpaths_config() {
  sim_config cfg;
  cfg.sys = {30, 3};
  cfg.compromised = spread_compromised(30, 3);
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = 150;
  cfg.seed = 11;
  cfg.topology.kind = net::topology_kind::random_regular;
  cfg.topology.degree = 4;
  cfg.routing.kind = net::route_select::kpaths;
  cfg.routing.k = 3;
  return cfg;
}

TEST(RouteSim, KpathsRunDeliversAndScores) {
  const sim_report r = run_simulation(kpaths_config());
  EXPECT_EQ(r.submitted, 150u);
  EXPECT_EQ(r.delivered, 150u) << "no faults configured";
  EXPECT_TRUE(std::isfinite(r.empirical_entropy_bits));
  EXPECT_GT(r.empirical_entropy_bits, 0.0);
  EXPECT_GE(r.top1_accuracy, 0.0);
  // Planned routes are loopless: 1 <= hops <= N - 1.
  ASSERT_FALSE(r.hop_histogram.empty());
  EXPECT_EQ(r.hop_histogram[0], 0u) << "kpaths never sends directly";
  EXPECT_LE(r.hop_histogram.size(), 30u);
}

TEST(RouteSim, KpathsOnTheCliqueMaterializesTheGraph) {
  // The default (complete) topology never builds a graph for walk runs;
  // planned runs must, and the shortest clique routes are single-hop
  // exits, so realized hops concentrate at 1 with occasional detours.
  sim_config cfg = kpaths_config();
  cfg.topology = net::topology_config{};
  const sim_report r = run_simulation(cfg);
  EXPECT_EQ(r.delivered, 150u);
  ASSERT_GT(r.hop_histogram.size(), 1u);
  EXPECT_GT(r.hop_histogram[1], 0u);
}

TEST(RouteSim, KpathsRunsAreSeedDeterministic) {
  const sim_report a = run_simulation(kpaths_config());
  const sim_report b = run_simulation(kpaths_config());
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.empirical_entropy_bits, b.empirical_entropy_bits);
  EXPECT_EQ(a.identified_fraction, b.identified_fraction);
  EXPECT_EQ(a.top1_accuracy, b.top1_accuracy);
  EXPECT_EQ(a.end_to_end_latency.mean(), b.end_to_end_latency.mean());
  EXPECT_EQ(a.hop_histogram, b.hop_histogram);
}

TEST(RouteSim, ReplayMatchesInlineBitForBit) {
  const sim_config cfg = kpaths_config();
  const sim_report inline_run = run_simulation(cfg);
  const sim_report replayed = replay_trace(capture_trace(cfg));
  EXPECT_EQ(inline_run.submitted, replayed.submitted);
  EXPECT_EQ(inline_run.delivered, replayed.delivered);
  EXPECT_EQ(inline_run.empirical_entropy_bits,
            replayed.empirical_entropy_bits);
  EXPECT_EQ(inline_run.empirical_entropy_stderr,
            replayed.empirical_entropy_stderr);
  EXPECT_EQ(inline_run.identified_fraction, replayed.identified_fraction);
  EXPECT_EQ(inline_run.top1_accuracy, replayed.top1_accuracy);
  EXPECT_EQ(inline_run.end_to_end_latency.mean(),
            replayed.end_to_end_latency.mean());
  EXPECT_EQ(inline_run.hop_histogram, replayed.hop_histogram);
}

TEST(RouteSim, TraceRoundTripPreservesRoutingConfig) {
  const sim_trace trace = capture_trace(kpaths_config());
  std::ostringstream os;
  write_trace(trace, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("routing kpaths 3"), std::string::npos);
  std::istringstream is(text);
  const sim_trace back = read_trace(is);
  EXPECT_EQ(back.config.routing, trace.config.routing);
  EXPECT_TRUE(back.config.routing.planned());
  EXPECT_EQ(back.config.routing.k, 3u);
  // Second round trip is byte-identical (canonical rendering).
  std::ostringstream os2;
  write_trace(back, os2);
  EXPECT_EQ(os2.str(), text);
}

TEST(RouteSim, WalkTracesCarryNoRoutingSection) {
  // The additive trace line only appears for planned configs — that is
  // what keeps every historical trace and golden byte-identical.
  sim_config cfg = kpaths_config();
  cfg.routing = net::routing_config{};
  std::ostringstream os;
  write_trace(capture_trace(cfg), os);
  EXPECT_EQ(os.str().find("routing"), std::string::npos);
}

TEST(RouteSim, ReaderRejectsBadRoutingLines) {
  std::ostringstream os;
  write_trace(capture_trace(kpaths_config()), os);
  const std::string text = os.str();
  const auto mutate = [&](const std::string& from, const std::string& to) {
    std::string t = text;
    const auto pos = t.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    t.replace(pos, from.size(), to);
    return t;
  };
  for (const auto& bad :
       {mutate("routing kpaths 3", "routing walk 3"),
        mutate("routing kpaths 3", "routing kpaths 0"),
        mutate("routing kpaths 3", "routing kpaths 65"),
        // Planned routing is source-routed-only; flipping the mode line
        // must be refused even though both lines parse in isolation.
        mutate("mode source_routed", "mode hop_by_hop")}) {
    std::istringstream is(bad);
    EXPECT_THROW((void)read_trace(is), parse_error);
  }
}

TEST(RouteSim, CampaignRoutingAxisExpandsAndFilters) {
  campaign_grid grid;
  grid.node_counts = {20};
  grid.compromised_counts = {2};
  grid.modes = {routing_mode::source_routed, routing_mode::hop_by_hop};
  net::topology_config regular;
  regular.kind = net::topology_kind::random_regular;
  regular.degree = 4;
  grid.topologies = {regular};
  net::routing_config kp;
  kp.kind = net::route_select::kpaths;
  kp.k = 2;
  grid.routings = {net::routing_config{}, kp};
  adversary_config timing;
  timing.kind = adversary_kind::timing_correlator;
  grid.adversaries = {adversary_config{}, timing};
  const auto cells = expand_grid(grid);
  // 2 modes x 2 adversaries x 2 routings = 8 requested. The timing
  // adversary is infeasible on a restricted topology regardless of routing
  // (4 cells), and kpaths is additionally dropped for hop_by_hop (1),
  // leaving walk x {src, hop} plus kpaths x src = 3.
  EXPECT_EQ(grid.cell_count(), 8u);
  ASSERT_EQ(cells.size(), 3u);
  int planned = 0;
  for (const scenario& s : cells) {
    if (!s.routing.planned()) continue;
    ++planned;
    EXPECT_EQ(s.mode, routing_mode::source_routed);
    EXPECT_NE(s.adversary.kind, adversary_kind::timing_correlator);
  }
  EXPECT_EQ(planned, 1);
}

TEST(RouteSim, CampaignCsvGainsRoutingColumnOnlyWhenPlanned) {
  campaign_grid grid;
  grid.node_counts = {16};
  grid.compromised_counts = {2};
  grid.message_count = 60;
  net::topology_config regular;
  regular.kind = net::topology_kind::random_regular;
  regular.degree = 4;
  grid.topologies = {regular};
  campaign_config cfg;
  cfg.replicas = 2;
  cfg.master_seed = 5;

  const campaign_result walk_only = run_campaign(grid, cfg);
  std::ostringstream walk_csv;
  write_csv(walk_only, walk_csv);
  EXPECT_EQ(walk_csv.str().find("routing"), std::string::npos);

  net::routing_config kp;
  kp.kind = net::route_select::kpaths;
  kp.k = 2;
  grid.routings = {net::routing_config{}, kp};
  const campaign_result mixed = run_campaign(grid, cfg);
  std::ostringstream mixed_csv;
  write_csv(mixed, mixed_csv);
  EXPECT_NE(mixed_csv.str().find(",routing"), std::string::npos);
  EXPECT_NE(mixed_csv.str().find("walk"), std::string::npos);
  EXPECT_NE(mixed_csv.str().find("kpaths(2)"), std::string::npos);
  // The walk cell's metrics are identical with and without the new axis —
  // the axis multiplies the grid, it does not perturb existing cells.
  ASSERT_EQ(mixed.cells.size(), 2u);
  ASSERT_EQ(walk_only.cells.size(), 1u);
  EXPECT_EQ(walk_only.cells[0].entropy_bits.mean(),
            mixed.cells[0].entropy_bits.mean());
  EXPECT_EQ(walk_only.cells[0].latency_seconds.mean(),
            mixed.cells[0].latency_seconds.mean());
}

TEST(RouteSim, RetryWithKpathsStaysDeterministic) {
  // Retries draw planned routes from their own order-free stream; the run
  // must stay seed-deterministic and deliver despite drops.
  sim_config cfg = kpaths_config();
  cfg.faults.drop_probability = 0.2;
  cfg.retry.max_retries = 3;
  cfg.retry.timeout = 0.5;
  const sim_report a = run_simulation(cfg);
  const sim_report b = run_simulation(cfg);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.empirical_entropy_bits, b.empirical_entropy_bits);
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_GT(a.delivered, 100u);
}

TEST(RouteSim, GraphRunsAreScoredByTheWalkEngine) {
  // Every restricted-graph or planned run is scored by the walk-model
  // engine: planned runs under a diffuse uniform(1, N-1) length prior (the
  // support of every loopless route), walk runs under the configured
  // lengths. Replaying the trace through that engine, built by hand, must
  // reproduce the default scoring bit for bit.
  net::topology_config regular;
  regular.kind = net::topology_kind::random_regular;
  regular.degree = 4;
  net::topology_config ring;
  ring.kind = net::topology_kind::ring;
  ring.ring_k = 2;
  struct cell {
    std::uint32_t n;
    net::topology_config topology;
    net::routing_config routing;
  };
  const cell cells[] = {
      {24, regular, {net::route_select::kpaths, 3}},
      {12, net::topology_config{}, {net::route_select::kpaths, 2}},
      {24, ring, net::routing_config{}},
  };
  for (const cell& x : cells) {
    sim_config cfg;
    cfg.sys = {x.n, 2};
    cfg.compromised = spread_compromised(x.n, 2);
    cfg.lengths = path_length_distribution::uniform(1, 6);
    cfg.message_count = 120;
    cfg.seed = 5;
    cfg.collect_posteriors = true;
    cfg.topology = x.topology;
    cfg.routing = x.routing;
    const sim_trace trace = capture_trace(cfg);
    const net::topology_posterior_engine walk(
        cfg.sys, trace.compromised,
        cfg.routing.planned()
            ? path_length_distribution::uniform(1, x.n - 1)
            : cfg.lengths,
        net::topology::make(x.n, cfg.topology));
    const posterior_fn fn = [&walk](const observation& obs) {
      return walk.sender_posterior(obs);
    };
    const sim_report by_default = replay_trace(trace);
    const sim_report by_walk = replay_trace(trace, fn);
    SCOPED_TRACE(x.n);
    ASSERT_FALSE(by_default.posteriors.empty());
    EXPECT_EQ(by_default.posteriors, by_walk.posteriors);
    EXPECT_EQ(by_default.empirical_entropy_bits,
              by_walk.empirical_entropy_bits);
    EXPECT_EQ(by_default.identified_fraction, by_walk.identified_fraction);
    EXPECT_EQ(by_default.top1_accuracy, by_walk.top1_accuracy);
  }
}

TEST(RouteSim, PlannedRunRejectsInvalidCombinations) {
  sim_config cfg = kpaths_config();
  cfg.mode = routing_mode::hop_by_hop;
  EXPECT_THROW((void)run_simulation(cfg), contract_violation);
  cfg = kpaths_config();
  cfg.adversary.kind = adversary_kind::timing_correlator;
  EXPECT_THROW((void)run_simulation(cfg), contract_violation);
  cfg = kpaths_config();
  cfg.routing.k = 0;
  EXPECT_THROW((void)run_simulation(cfg), contract_violation);
}

}  // namespace
}  // namespace anonpath::sim
