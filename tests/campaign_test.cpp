// The campaign engine's contracts: deterministic grid expansion with
// feasibility filtering, byte-identical aggregation across thread counts
// (the mc_parallel_test analogue for the scenario fan-out), sane per-cell
// aggregates, and a stable CSV rendering.

#include "src/sim/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/sim/checkpoint.hpp"

namespace anonpath::sim {
namespace {

campaign_grid small_grid() {
  campaign_grid grid;
  grid.node_counts = {20, 40};
  grid.compromised_counts = {1, 4};
  grid.lengths = {path_length_distribution::fixed(3),
                  path_length_distribution::uniform(1, 8)};
  grid.modes = {routing_mode::source_routed};
  grid.drop_probabilities = {0.0, 0.05};
  grid.arrival_rates = {100.0};
  grid.message_count = 80;
  return grid;
}

std::string csv_of(const campaign_result& r) {
  std::ostringstream os;
  write_csv(r, os);
  return os.str();
}

TEST(CampaignGrid, ExpandsInDeclaredAxisOrder) {
  const auto grid = small_grid();
  const auto cells = expand_grid(grid);
  ASSERT_EQ(cells.size(), grid.cell_count());
  ASSERT_EQ(cells.size(), 16u);
  // node_counts outermost: first half N=20, second half N=40.
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(cells[i].node_count, 20u);
  for (std::size_t i = 8; i < 16; ++i) EXPECT_EQ(cells[i].node_count, 40u);
  // drop probability is the innermost varying axis here (rates has size 1).
  EXPECT_EQ(cells[0].drop_probability, 0.0);
  EXPECT_EQ(cells[1].drop_probability, 0.05);
  EXPECT_EQ(cells[0].lengths.label(), cells[1].lengths.label());
  // compromised axis sits outside the strategy axis.
  EXPECT_EQ(cells[0].compromised_count, 1u);
  EXPECT_EQ(cells[4].compromised_count, 4u);
}

TEST(CampaignGrid, SkipsInfeasibleCellsDeterministically) {
  campaign_grid grid;
  grid.node_counts = {6, 40};
  grid.compromised_counts = {1, 6};  // C == N is infeasible at N=6
  grid.lengths = {path_length_distribution::fixed(2),
                  path_length_distribution::uniform(1, 20)};  // > N-1 at N=6
  const auto cells = expand_grid(grid);
  // N=6: only (C=1, F(2)) survives; N=40: all four combinations.
  ASSERT_EQ(cells.size(), 5u);
  EXPECT_EQ(cells[0].node_count, 6u);
  EXPECT_EQ(cells[0].compromised_count, 1u);
  EXPECT_EQ(cells[0].lengths.label(), "F(2)");
  for (std::size_t i = 1; i < 5; ++i) EXPECT_EQ(cells[i].node_count, 40u);

  campaign_config cfg;
  cfg.replicas = 2;
  const auto result = run_campaign(grid, cfg);
  EXPECT_EQ(result.requested_cells, 8u);
  EXPECT_EQ(result.skipped_cells, 3u);
  EXPECT_EQ(result.runs, 10u);
  EXPECT_EQ(result.cells.size(), 5u);
}

/// A grid that crosses every runnability rule: C < N, path length vs N,
/// session coherence and its mode, kpaths vs mode and the timing
/// adversary, topology parameters vs N and restricted graphs vs the
/// timing adversary. The outage names a node outside every cell's N: it
/// must fail cells at run time, never filter them out here.
campaign_grid every_rule_grid() {
  campaign_grid grid;
  grid.node_counts = {6, 20};
  grid.compromised_counts = {1, 6};
  grid.lengths = {path_length_distribution::fixed(3),
                  path_length_distribution::uniform(1, 8),
                  path_length_distribution::fixed(5)};
  grid.modes = {routing_mode::source_routed, routing_mode::hop_by_hop};
  grid.adversaries = {
      adversary_config{},
      adversary_config{adversary_kind::timing_correlator},
      adversary_config{adversary_kind::partial_coverage, 0.3}};
  net::topology_config ring2, ring5, regular4;
  ring2.kind = ring5.kind = net::topology_kind::ring;
  ring2.ring_k = 2;
  ring5.ring_k = 5;
  regular4.kind = net::topology_kind::random_regular;
  regular4.degree = 4;
  grid.topologies = {net::topology_config{}, ring2, ring5, regular4};
  grid.routings = {net::routing_config{},
                   net::routing_config{net::route_select::kpaths, 2}};
  grid.populations = {0, 1, 100};
  grid.session_rounds = {0, 30, 40};
  grid.attacks = {attack::attack_kind::none, attack::attack_kind::sda,
                  attack::attack_kind::intersection};
  grid.streams = {workload::stream_backend::exact,
                  workload::stream_backend::sketch};
  grid.message_count = 30;
  grid.fault_outages = {{25, 0.0, 1.0}};
  return grid;
}

std::string cell_label(const scenario& s) {
  std::ostringstream os;
  os << s.node_count << ',' << s.compromised_count << ','
     << s.lengths.label() << ',' << static_cast<int>(s.mode) << ','
     << s.drop_probability << ',' << s.arrival_rate << ','
     << s.adversary.label() << ',' << s.topology.label() << ','
     << s.routing.label() << ',' << s.churn.label() << ','
     << s.mix_failure.label() << ',' << s.retry.label() << ','
     << s.population << ',' << s.rounds << ','
     << attack::attack_kind_label(s.attack) << ','
     << workload::stream_backend_label(s.stream) << '\n';
  return os.str();
}

TEST(CampaignGrid, OneRuleSelectsTheCells) {
  // Pins which cells of the every-rule grid are runnable, in which order,
  // and what the campaign fingerprints of them: any change to the
  // feasibility rule or to the configs the cells run under moves a count
  // or a hash.
  const campaign_grid grid = every_rule_grid();
  EXPECT_EQ(grid.cell_count(), 31104u);
  const std::vector<scenario> cells = expand_grid(grid);
  EXPECT_EQ(cells.size(), 708u);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the labels
  for (const scenario& s : cells)
    for (const char ch : cell_label(s)) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ULL;
    }
  EXPECT_EQ(h, 0x43d06a6b9a8b0365ULL);
  EXPECT_EQ(campaign_scope(grid, campaign_config{}), 0xf0baf02b036812a8ULL);
}

TEST(CampaignGrid, ScenarioConfigCarriesSharedSettings) {
  auto grid = small_grid();
  grid.forward_prob = 0.6;
  grid.latency.base = 0.042;
  const scenario s{20, 4, path_length_distribution::uniform(1, 8),
                   routing_mode::hop_by_hop, 0.05, 100.0};
  const sim_config cfg = scenario_config(s, grid, 99);
  EXPECT_EQ(cfg.sys.node_count, 20u);
  EXPECT_EQ(cfg.sys.compromised_count, 4u);
  EXPECT_EQ(cfg.compromised.size(), 4u);
  EXPECT_EQ(cfg.mode, routing_mode::hop_by_hop);
  EXPECT_EQ(cfg.forward_prob, 0.6);
  EXPECT_EQ(cfg.message_count, 80u);
  EXPECT_EQ(cfg.arrival_rate, 100.0);
  EXPECT_EQ(cfg.latency.base, 0.042);
  EXPECT_EQ(cfg.faults.drop_probability, 0.05);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(CampaignDeterminism, ByteIdenticalAcrossThreadCounts) {
  // The headline guarantee: same grid + master seed => identical bits and
  // identical CSV for every thread count.
  const auto grid = small_grid();
  campaign_config cfg;
  cfg.replicas = 3;
  cfg.master_seed = 2002;
  cfg.threads = 1;
  const auto base = run_campaign(grid, cfg);
  const std::string base_csv = csv_of(base);
  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const auto result = run_campaign(grid, cfg);
    ASSERT_EQ(result.cells.size(), base.cells.size()) << threads;
    for (std::size_t i = 0; i < base.cells.size(); ++i) {
      const auto& a = base.cells[i];
      const auto& b = result.cells[i];
      EXPECT_EQ(a.submitted, b.submitted) << threads << " threads, cell " << i;
      EXPECT_EQ(a.delivered, b.delivered) << threads << " threads, cell " << i;
      EXPECT_EQ(a.delivered_fraction.mean(), b.delivered_fraction.mean());
      EXPECT_EQ(a.delivered_fraction.std_error(),
                b.delivered_fraction.std_error());
      EXPECT_EQ(a.latency_seconds.mean(), b.latency_seconds.mean());
      EXPECT_EQ(a.latency_seconds.variance(), b.latency_seconds.variance());
      EXPECT_EQ(a.hops.mean(), b.hops.mean());
      EXPECT_EQ(a.entropy_bits.mean(), b.entropy_bits.mean());
      EXPECT_EQ(a.entropy_bits.std_error(), b.entropy_bits.std_error());
      EXPECT_EQ(a.identified_fraction.mean(), b.identified_fraction.mean());
      EXPECT_EQ(a.top1_accuracy.mean(), b.top1_accuracy.mean());
    }
    EXPECT_EQ(csv_of(result), base_csv) << threads << " threads";
  }
}

TEST(CampaignDeterminism, MasterSeedSelectsTheSample) {
  const auto grid = small_grid();
  campaign_config cfg;
  cfg.replicas = 2;
  cfg.master_seed = 1;
  const auto a = run_campaign(grid, cfg);
  cfg.master_seed = 2;
  const auto b = run_campaign(grid, cfg);
  // Same structure, different draws: at least one latency mean moves.
  ASSERT_EQ(a.cells.size(), b.cells.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.cells.size(); ++i)
    any_diff |= a.cells[i].latency_seconds.mean() !=
                b.cells[i].latency_seconds.mean();
  EXPECT_TRUE(any_diff);
}

TEST(CampaignAggregates, PerCellSummariesAreSane) {
  const auto grid = small_grid();
  campaign_config cfg;
  cfg.replicas = 4;
  const auto result = run_campaign(grid, cfg);
  ASSERT_EQ(result.cells.size(), 16u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.replicas, 4u);
    EXPECT_EQ(cell.submitted, 4u * grid.message_count);
    EXPECT_LE(cell.delivered, cell.submitted);
    EXPECT_EQ(cell.delivered_fraction.count(), 4u);
    EXPECT_GE(cell.delivered_fraction.mean(), 0.0);
    EXPECT_LE(cell.delivered_fraction.mean(), 1.0);
    EXPECT_GT(cell.latency_seconds.mean(), 0.0);
    EXPECT_GT(cell.hops.mean(), 0.0);
    // Source-routed cells carry inference metrics, one scalar per replica.
    EXPECT_EQ(cell.entropy_bits.count(), 4u);
    const double ceiling = std::log2(static_cast<double>(
        cell.scene.node_count - cell.scene.compromised_count));
    EXPECT_GE(cell.entropy_bits.mean(), 0.0);
    EXPECT_LE(cell.entropy_bits.mean(), ceiling);
    EXPECT_GE(cell.identified_fraction.mean(), 0.0);
    EXPECT_LE(cell.identified_fraction.mean(), 1.0);
    EXPECT_GE(cell.top1_accuracy.mean(), 0.0);
    EXPECT_LE(cell.top1_accuracy.mean(), 1.0);
  }
  // Loss must show up: the drop=0.05 cells deliver less than drop=0 cells.
  EXPECT_GT(result.cells[0].delivered, result.cells[1].delivered);
}

TEST(CampaignAggregates, HopByHopCellsSkipInferenceMetrics) {
  campaign_grid grid;
  grid.node_counts = {25};
  grid.compromised_counts = {2};
  grid.lengths = {path_length_distribution::fixed(3)};
  grid.modes = {routing_mode::source_routed, routing_mode::hop_by_hop};
  grid.message_count = 60;
  campaign_config cfg;
  cfg.replicas = 2;
  const auto result = run_campaign(grid, cfg);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].entropy_bits.count(), 2u);
  EXPECT_EQ(result.cells[1].entropy_bits.count(), 0u);
  EXPECT_EQ(result.cells[1].identified_fraction.count(), 0u);
  EXPECT_GT(result.cells[1].delivered, 0u);  // traffic metrics still present
  const std::string csv = csv_of(result);
  EXPECT_NE(csv.find("hop_by_hop"), std::string::npos);
  EXPECT_NE(csv.find("nan,nan"), std::string::npos);
}

TEST(CampaignAggregates, ZeroDeliveryCellsKeepInferenceColumnsAbsent) {
  // A cell whose replicas never deliver must not report entropy 0 ("all
  // senders identified"); its inference summaries stay empty => "nan" CSV.
  campaign_grid grid;
  grid.node_counts = {15};
  grid.compromised_counts = {1};
  grid.lengths = {path_length_distribution::uniform(1, 4)};
  grid.drop_probabilities = {0.99};  // < 1.0 per the network precondition
  grid.message_count = 20;
  campaign_config cfg;
  cfg.replicas = 3;
  const auto result = run_campaign(grid, cfg);
  ASSERT_EQ(result.cells.size(), 1u);
  const auto& cell = result.cells[0];
  EXPECT_EQ(cell.delivered, 0u);
  EXPECT_EQ(cell.entropy_bits.count(), 0u);
  EXPECT_EQ(cell.identified_fraction.count(), 0u);
  EXPECT_EQ(cell.top1_accuracy.count(), 0u);
  EXPECT_EQ(cell.delivered_fraction.mean(), 0.0);
  const std::string csv = csv_of(result);
  EXPECT_NE(csv.find("nan,nan,nan,nan,nan,nan"), std::string::npos);
}

TEST(CampaignCsv, HeaderAndOneRowPerCell) {
  const auto grid = small_grid();
  campaign_config cfg;
  cfg.replicas = 2;
  const auto result = run_campaign(grid, cfg);
  const std::string csv = csv_of(result);
  EXPECT_EQ(csv.rfind("n,c,dist,mode,drop,rate,replicas,messages,", 0), 0u);
  std::size_t lines = 0;
  for (char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 1u + result.cells.size());
  // Strategy labels contain commas, so they must be quoted.
  EXPECT_NE(csv.find("\"U(1,8)\""), std::string::npos);
}

}  // namespace
}  // namespace anonpath::sim
