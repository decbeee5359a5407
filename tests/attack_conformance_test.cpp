// Conformance pins for the statistical disclosure attacks: on every small
// (N <= 8 receivers) fixture family the exact hitting-set oracle defines
// ground truth, and attack::sda / attack::sequential_bayes must agree with
// it — their top-ranked receiver lies in the union of minimum hitting sets,
// and when the oracle resolves a unique singleton both must rank exactly
// that receiver first. Fixtures are deterministic (constructed and seeded),
// so a scoring regression in either estimator fails loudly, not flakily.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/attack/disclosure.hpp"
#include "src/attack/intersection.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sequential_bayes.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/stats/rng.hpp"
#include "src/workload/cooccurrence.hpp"
#include "src/workload/population.hpp"

namespace anonpath::attack {
namespace {

/// One fixture: the target-round receiver sets (the hitting-set family)
/// plus background rounds calibrating the statistical estimators.
struct fixture {
  std::string name;
  std::uint32_t receivers = 0;
  std::vector<std::vector<node_id>> target_rounds;
  std::vector<std::vector<node_id>> background_rounds;
};

/// Constructed families for every N in [2, 8]: the partner (id N-1) is in
/// all of T = 3*(N-1) target rounds; round i's background is every other
/// receiver EXCEPT (i mod (N-1)), so each non-partner is eliminated
/// (absent) at least three times yet remains frequent enough to make the
/// statistical ranking non-trivial. Background rounds rotate uniformly.
fixture constructed_fixture(std::uint32_t n) {
  fixture f;
  f.name = "constructed N=" + std::to_string(n);
  f.receivers = n;
  const node_id partner = n - 1;
  const std::uint32_t rounds = 3 * (n - 1);
  for (std::uint32_t i = 0; i < rounds; ++i) {
    std::vector<node_id> recv{partner};
    for (node_id r = 0; r + 1 < n; ++r)
      if (r != i % (n - 1)) recv.push_back(r);
    f.target_rounds.push_back(std::move(recv));
    f.background_rounds.push_back(
        {static_cast<node_id>(i % n), static_cast<node_id>((i + 1) % n)});
  }
  return f;
}

/// Seeded generative families: partner always present, 2 background draws
/// per round from the whole population. Deterministic via stats::rng.
fixture seeded_fixture(std::uint32_t n, std::uint64_t seed) {
  fixture f;
  f.name = "seeded N=" + std::to_string(n) + " seed=" + std::to_string(seed);
  f.receivers = n;
  const node_id partner = static_cast<node_id>(seed % n);
  stats::rng gen(seed);
  for (std::uint32_t i = 0; i < 40; ++i) {
    f.target_rounds.push_back(
        {partner, static_cast<node_id>(gen.next_below(n)),
         static_cast<node_id>(gen.next_below(n))});
    f.background_rounds.push_back(
        {static_cast<node_id>(gen.next_below(n)),
         static_cast<node_id>(gen.next_below(n)),
         static_cast<node_id>(gen.next_below(n))});
  }
  return f;
}

std::vector<fixture> fixtures() {
  std::vector<fixture> out;
  for (std::uint32_t n = 2; n <= 8; ++n) {
    out.push_back(constructed_fixture(n));
    out.push_back(seeded_fixture(n, 100 + n));
    out.push_back(seeded_fixture(n, 1000 + n));
  }
  return out;
}

/// Runs a streaming attack over the fixture, interleaving background and
/// target rounds (order must not matter for the verdicts).
std::vector<double> run_fixture(const fixture& f, disclosure_attack& atk) {
  const std::size_t rounds =
      std::max(f.target_rounds.size(), f.background_rounds.size());
  for (std::size_t i = 0; i < rounds; ++i) {
    if (i < f.background_rounds.size()) {
      round_observation obs;
      obs.target_present = false;
      obs.receivers = f.background_rounds[i];
      atk.observe_round(obs);
    }
    if (i < f.target_rounds.size()) {
      round_observation obs;
      obs.target_present = true;
      obs.receivers = f.target_rounds[i];
      atk.observe_round(obs);
    }
  }
  return atk.posterior();
}

TEST(AttackConformance, StatisticalAttacksAgreeWithHittingSetOracle) {
  for (const fixture& f : fixtures()) {
    const auto oracle = minimum_hitting_sets(f.target_rounds, f.receivers);
    ASSERT_FALSE(oracle.empty()) << f.name;
    // Union of minimum hitting sets = every receiver the exact analysis
    // keeps in play.
    std::vector<node_id> allowed;
    for (const auto& set : oracle)
      allowed.insert(allowed.end(), set.begin(), set.end());
    std::sort(allowed.begin(), allowed.end());
    allowed.erase(std::unique(allowed.begin(), allowed.end()), allowed.end());

    // The intersection attack must compute exactly the singleton-consistent
    // candidates when a singleton hitting set exists.
    intersection_attack inter(f.receivers);
    run_fixture(f, inter);
    if (oracle.front().size() == 1) {
      std::vector<node_id> singles;
      for (const auto& set : oracle) singles.push_back(set.front());
      EXPECT_EQ(inter.candidates(), singles) << f.name;
    }

    for (const attack_kind kind :
         {attack_kind::sda, attack_kind::sequential_bayes}) {
      auto atk = make_attack(kind, f.receivers);
      const std::vector<double> post = run_fixture(f, *atk);
      const auto top = static_cast<node_id>(
          std::max_element(post.begin(), post.end()) - post.begin());
      EXPECT_TRUE(std::binary_search(allowed.begin(), allowed.end(), top))
          << f.name << ": " << attack_kind_label(kind) << " top receiver "
          << top << " is outside the oracle's minimum hitting sets";
      // A uniquely-resolved singleton must be the statistical argmax too.
      if (oracle.size() == 1 && oracle.front().size() == 1) {
        EXPECT_EQ(top, oracle.front().front())
            << f.name << ": " << attack_kind_label(kind);
      }
    }
  }
}

TEST(AttackConformance, ConstructedFamiliesResolveUniquely) {
  // The constructed fixtures are built to eliminate every non-partner, so
  // the oracle must resolve to exactly {partner} — guarding the fixtures
  // themselves against silently becoming vacuous.
  for (std::uint32_t n = 2; n <= 8; ++n) {
    const fixture f = constructed_fixture(n);
    const auto oracle = minimum_hitting_sets(f.target_rounds, f.receivers);
    ASSERT_EQ(oracle.size(), 1u) << f.name;
    EXPECT_EQ(oracle.front(), std::vector<node_id>{n - 1}) << f.name;
  }
}

TEST(AttackConformance, SketchSdaMatchesExactSdaOnEveryFixtureFamily) {
  // The sketch backend's conformance pin: on every N <= 8 fixture the
  // default-width sketches are collision-free and the candidate reservoir
  // never saturates, so the sketched posterior must be bit-identical to the
  // exact sda on the same stream — and every count-min estimate must cover
  // the exact count without exceeding its error bound.
  for (const fixture& f : fixtures()) {
    sda_attack exact(f.receivers);
    run_fixture(f, exact);
    sketch_sda_attack sketched(f.receivers);
    const std::vector<double> post = run_fixture(f, sketched);
    ASSERT_FALSE(sketched.candidates_saturated()) << f.name;
    EXPECT_EQ(post, exact.posterior()) << f.name;

    std::vector<std::uint64_t> global(f.receivers, 0);
    std::vector<std::uint64_t> target(f.receivers, 0);
    for (const auto& round : f.target_rounds)
      for (node_id r : round) ++global[r], ++target[r];
    for (const auto& round : f.background_rounds)
      for (node_id r : round) ++global[r];
    for (node_id r = 0; r < f.receivers; ++r) {
      EXPECT_GE(sketched.estimate_global(r), global[r]) << f.name;
      EXPECT_LE(sketched.estimate_global(r), global[r] + sketched.error_bound())
          << f.name;
      EXPECT_GE(sketched.estimate_target(r), target[r]) << f.name;
    }
  }
}

TEST(AttackConformance, BayesSupportEqualsIntersectionOnCrispData) {
  // On lossless membership data the sequential-Bayes support (nonzero
  // posterior entries) must equal the intersection candidates exactly —
  // the per-receiver elimination rule is the same zero-count test.
  for (const fixture& f : fixtures()) {
    intersection_attack inter(f.receivers);
    run_fixture(f, inter);
    sequential_bayes_attack bayes(f.receivers);
    const std::vector<double> post = run_fixture(f, bayes);
    std::vector<node_id> support;
    for (node_id r = 0; r < f.receivers; ++r)
      if (post[r] > 0.0) support.push_back(r);
    EXPECT_EQ(support, inter.candidates()) << f.name;
  }
}

// ---- summarize(): the sparse trajectory point equals the dense one --------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// engine.summarize() against summarize_posterior over the dense posterior,
/// field by field, doubles compared bit for bit (so +0.0 vs -0.0 counts).
void expect_summary_matches_dense(const disclosure_attack& engine,
                                  std::uint32_t round, const std::string& what) {
  for (const double threshold : {0.01, 0.5, 0.99}) {
    const trajectory_point sparse = engine.summarize(round, threshold);
    const trajectory_point dense =
        summarize_posterior(engine.posterior(), round, threshold);
    EXPECT_EQ(sparse.round, dense.round) << what;
    EXPECT_TRUE(same_bits(sparse.entropy_bits, dense.entropy_bits))
        << what << ": entropy " << sparse.entropy_bits << " vs "
        << dense.entropy_bits;
    EXPECT_TRUE(same_bits(sparse.top_mass, dense.top_mass))
        << what << ": top mass " << sparse.top_mass << " vs "
        << dense.top_mass;
    EXPECT_EQ(sparse.top_receiver, dense.top_receiver) << what;
    EXPECT_EQ(sparse.identified, dense.identified) << what;
  }
}

/// A random membership stream: rounds of 1..max_size receivers drawn from a
/// hot set of `hot` ids (heavy repetition, frequent count ties) or, with
/// probability 1/4, from the whole population.
std::vector<round_observation> random_stream(std::uint32_t receivers,
                                             std::uint32_t rounds,
                                             std::uint32_t max_size,
                                             std::uint32_t hot,
                                             std::uint64_t seed) {
  stats::rng gen(seed);
  std::vector<round_observation> out(rounds);
  for (round_observation& obs : out) {
    obs.target_present = gen.next_below(3) != 0;
    const std::uint64_t size = 1 + gen.next_below(max_size);
    for (std::uint64_t j = 0; j < size; ++j)
      obs.receivers.push_back(static_cast<node_id>(
          gen.next_below(4) == 0 ? gen.next_below(receivers)
                                 : gen.next_below(hot)));
  }
  return out;
}

/// Feeds `stream` and checks the summary after every round (and before the
/// first, on the uniform prior).
void check_every_round(disclosure_attack& engine,
                       const std::vector<round_observation>& stream,
                       const std::string& what) {
  expect_summary_matches_dense(engine, 0, what + " (prior)");
  for (std::uint32_t r = 0; r < stream.size(); ++r) {
    engine.observe_round(stream[r]);
    expect_summary_matches_dense(engine, r + 1,
                                 what + " round " + std::to_string(r + 1));
  }
}

TEST(SummarizeSparse, SdaStreamingMatchesDenseOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::uint32_t receivers = 2 + static_cast<std::uint32_t>(seed * 37);
    const auto stream = random_stream(
        receivers, 60, 1 + static_cast<std::uint32_t>(seed % 9),
        std::min<std::uint32_t>(receivers, 5), seed);
    sda_attack engine(receivers);
    check_every_round(engine, stream, "sda seed " + std::to_string(seed));
  }
}

TEST(SummarizeSparse, SdaFromCountsMatchesDense) {
  // Counts gathered by the accumulator's rule, replayed through from_counts
  // — including target rows that carry an explicit zero count.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::uint32_t receivers = 40;
    const auto stream = random_stream(receivers, 50, 6, 8, 100 + seed);
    workload::cooccurrence_result totals;
    totals.per_pair.resize(1);
    std::vector<std::uint64_t> global(receivers, 0), target(receivers, 0);
    for (const round_observation& obs : stream) {
      ++totals.rounds;
      totals.messages += obs.receivers.size();
      for (node_id v : obs.receivers) ++global[v];
      if (!obs.target_present) continue;
      ++totals.per_pair[0].target_rounds;
      totals.per_pair[0].target_messages += obs.receivers.size();
      for (node_id v : obs.receivers) ++target[v];
    }
    for (node_id v = 0; v < receivers; ++v) {
      if (global[v] == 0) continue;
      totals.global_receiver_counts.emplace_back(v, global[v]);
      if (target[v] > 0 || v % 3 == 0)
        totals.per_pair[0].target_receiver_counts.emplace_back(v, target[v]);
    }
    const sda_attack engine = sda_attack::from_counts(totals, 0, receivers);
    expect_summary_matches_dense(engine, 50,
                                 "from_counts seed " + std::to_string(seed));
  }
}

TEST(SummarizeSparse, SdaUniformFallbacksMatchDense) {
  // Zero target rounds: only background evidence, so the uniform prior.
  sda_attack background_only(7);
  round_observation obs;
  obs.receivers = {1, 1, 4};
  background_only.observe_round(obs);
  expect_summary_matches_dense(background_only, 1, "zero target rounds");

  // All-nonpositive signal: inconsistent (but accepted) totals whose target
  // messages exceed the target rows, so every signal entry is <= 0.
  workload::cooccurrence_result totals;
  totals.rounds = 2;
  totals.messages = 10;
  totals.global_receiver_counts = {{0, 5}, {1, 5}};
  totals.per_pair.resize(1);
  totals.per_pair[0].target_rounds = 1;
  totals.per_pair[0].target_messages = 5;
  totals.per_pair[0].target_receiver_counts = {{0, 1}};
  const sda_attack nonpositive = sda_attack::from_counts(totals, 0, 3);
  for (double s : nonpositive.signal()) ASSERT_LE(s, 0.0);
  expect_summary_matches_dense(nonpositive, 2, "all-nonpositive signal");

  // m-bar < 1 (fewer target messages than target rounds): receivers never
  // seen in a target round get positive signal, so the dense path decides.
  totals.per_pair[0].target_rounds = 2;
  totals.per_pair[0].target_messages = 1;
  totals.per_pair[0].target_receiver_counts = {{0, 1}};
  const sda_attack thin = sda_attack::from_counts(totals, 0, 3);
  expect_summary_matches_dense(thin, 2, "m-bar below one");
}

TEST(SummarizeSparse, SdaMeanBatchOfOneMatchesDense) {
  // m-bar == 1: every target round delivers one message, so (m-bar - 1)
  // scales the background by exactly zero.
  stats::rng gen(77);
  std::vector<round_observation> stream(40);
  for (round_observation& obs : stream) {
    obs.target_present = gen.next_below(2) == 0;
    obs.receivers.push_back(static_cast<node_id>(gen.next_below(6)));
    if (!obs.target_present)
      obs.receivers.push_back(static_cast<node_id>(gen.next_below(6)));
  }
  sda_attack engine(9);
  check_every_round(engine, stream, "m-bar 1");
}

TEST(SummarizeSparse, TopTiesResolveToTheSmallestId) {
  sda_attack engine(10);
  round_observation obs;
  obs.target_present = true;
  obs.receivers = {7, 3};
  engine.observe_round(obs);
  engine.observe_round(obs);
  const trajectory_point pt = engine.summarize(2, 0.3);
  EXPECT_EQ(pt.top_receiver, 3u);
  EXPECT_DOUBLE_EQ(pt.top_mass, 0.5);
  EXPECT_TRUE(pt.identified);
  expect_summary_matches_dense(engine, 2, "tie at the top");
}

TEST(SummarizeSparse, SdaSendRateBelowOneMatchesDense) {
  // A workload stream at send rate 1/2: half the rounds carry no target, so
  // receivers gain background counts and their classes move along both
  // axes. 24 receivers over 400 rounds of 8 push the counts of many past
  // the class grid, so the table and the moves between the two are
  // exercised too.
  workload::population_config cfg;
  cfg.seed = 3;
  cfg.user_count = 30;
  cfg.receiver_count = 24;
  cfg.round_count = 400;
  cfg.persistent_rate = 0.5;
  cfg.round_size = 8;
  ASSERT_TRUE(cfg.valid());
  const workload::population pop(cfg);
  const node_id target = pop.pairs().front().sender;
  sda_attack engine(cfg.receiver_count);
  std::vector<std::uint64_t> target_count(cfg.receiver_count, 0),
      background_count(cfg.receiver_count, 0);
  round_observation obs;
  for (std::uint32_t r = 0; r < cfg.round_count; ++r) {
    const workload::round_batch batch = pop.round(r);
    obs.target_present = std::find(batch.senders.begin(), batch.senders.end(),
                                   target) != batch.senders.end();
    obs.receivers = batch.receivers;
    for (node_id v : obs.receivers)
      ++(obs.target_present ? target_count : background_count)[v];
    engine.observe_round(obs);
    if (r % 7 == 0 || r + 1 == cfg.round_count)
      expect_summary_matches_dense(engine, r + 1,
                                   "send rate 1/2 round " + std::to_string(r));
  }
  const auto past_grid = [](const std::vector<std::uint64_t>& counts) {
    return *std::max_element(counts.begin(), counts.end()) >=
           count_class_table::k_side;
  };
  EXPECT_TRUE(past_grid(target_count));
  EXPECT_TRUE(past_grid(background_count));
}

TEST(CountClassTable, ExactSizesAndTargetZeroIsNoClass) {
  // Target 0 is no class, in the grid and past it; sizes are exact on both
  // sides, and a class past the grid is dropped when it empties.
  count_class_table table;
  table.join(0, 3, 4);
  table.join(0, 100, 5);
  table.leave(0, 100);
  table.join(2, 3, 9);
  table.join(2, 3, 6);
  table.join(40, 50, 8);
  table.join(40, 50, 1);
  table.leave(40, 50);
  table.join(7, 60, 2);
  table.leave(7, 60);
  using row = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, node_id>;
  const auto rows = [&table] {
    std::vector<row> out;
    table.for_each([&](std::uint64_t t, std::uint64_t b, std::uint64_t n,
                       node_id first) { out.emplace_back(t, b, n, first); });
    std::sort(out.begin(), out.end());
    return out;
  };
  // (40, 50) keeps `first` = 1, the smallest id that joined it: at most the
  // smallest member, which is all the caller relies on.
  EXPECT_EQ(rows(), (std::vector<row>{{2, 3, 2, 6}, {40, 50, 1, 1}}));
  table.settle_first(40, 50, 8);
  EXPECT_EQ(rows(), (std::vector<row>{{2, 3, 2, 6}, {40, 50, 1, 8}}));
  EXPECT_THROW(table.leave(7, 60), contract_violation);
  EXPECT_THROW(table.leave(5, 5), contract_violation);
}

TEST(SummarizeSparse, NormalizedTiesAcrossClassesTakeTheSmallestId) {
  // Two classes with adjacent raw weights that divide to the same mass:
  // the argmax must compare normalized masses, so the smaller-weight class
  // wins on its smaller id — exactly as the dense first maximum does.
  // Adjacent weights just below 2 are 2^-53 apart relatively; a mass near
  // the bottom of its binade has a relative ulp near 2^-52, so some
  // normalizers send both to one double. Search for one.
  const double high = std::nextafter(2.0, 0.0);
  const double low = std::nextafter(high, 0.0);
  std::vector<weight_class> classes;
  double z = 0.0;
  for (double rest = 0.5; rest < 0.9; rest += 1e-4) {
    classes = {{high, 1, 9}, {low, 1, 4}, {rest, 5, 0}};
    z = class_normalizer(classes);
    if (high / z == low / z) break;
  }
  ASSERT_EQ(high / z, low / z) << "no collapsing normalizer found";
  ASSERT_LT(classes[2].weight / z, low / z);

  const auto pt = summarize_classes(classes, 3, 0.2);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(pt->top_receiver, 4u);

  // The dense vector: id 9 high, id 4 low, ids {0,1,2,3,5} the rest.
  std::vector<double> dense(10, 0.0);
  dense[9] = high / z;
  dense[4] = low / z;
  for (node_id r : {0u, 1u, 2u, 3u, 5u}) dense[r] = classes[2].weight / z;
  const trajectory_point want = summarize_posterior(dense, 3, 0.2);
  EXPECT_EQ(pt->top_receiver, want.top_receiver);
  EXPECT_TRUE(same_bits(pt->top_mass, want.top_mass));
  EXPECT_TRUE(same_bits(pt->entropy_bits, want.entropy_bits));
  EXPECT_EQ(pt->identified, want.identified);
}

TEST(SummarizeSparse, SdaRescansWhenTheSmallestMemberLeaves) {
  // Receivers 3, 5 and 6 share the top class until 3 takes a background
  // delivery; the class then names 5 only by a rescan, which is written
  // back. Once with counts in the class grid, once past it (the table).
  for (const std::uint32_t rounds : {2u, 40u}) {
    const std::string what = std::to_string(rounds) + " target rounds";
    sda_attack engine(10);
    round_observation obs;
    obs.target_present = true;
    obs.receivers = {6, 3, 5};
    for (std::uint32_t r = 0; r < rounds; ++r) engine.observe_round(obs);
    obs.receivers = {1};
    engine.observe_round(obs);
    EXPECT_EQ(engine.summarize(rounds + 1, 0.5).top_receiver, 3u) << what;
    obs.target_present = false;
    obs.receivers = {3, 8};
    engine.observe_round(obs);
    EXPECT_EQ(engine.summarize(rounds + 2, 0.5).top_receiver, 5u) << what;
    EXPECT_EQ(engine.summarize(rounds + 2, 0.5).top_receiver, 5u)
        << what << ", after the write-back";
    expect_summary_matches_dense(engine, rounds + 2, what);
    // 5 leaves too (upward, by a target delivery): 6 is the sole member
    // left behind, and 5 now tops the class above.
    obs.target_present = true;
    obs.receivers = {5};
    engine.observe_round(obs);
    expect_summary_matches_dense(engine, rounds + 3, what + ", 5 moved up");
    // 6 follows 5 up, then 5 takes a background delivery: the class names
    // 6 by a rescan, written back; 2 then joins it from below that minimum.
    obs.receivers = {6};
    engine.observe_round(obs);
    obs.target_present = false;
    obs.receivers = {5};
    engine.observe_round(obs);
    EXPECT_EQ(engine.summarize(rounds + 5, 0.5).top_receiver, 6u) << what;
    obs.target_present = true;
    obs.receivers = {2};
    for (std::uint32_t r = 0; r <= rounds; ++r) engine.observe_round(obs);
    EXPECT_EQ(engine.summarize(2 * rounds + 6, 0.5).top_receiver, 2u) << what;
    expect_summary_matches_dense(engine, 2 * rounds + 6, what + ", 2 joined");
  }
}

TEST(SummarizeSparse, SdaFromCountsClassesKeepStreaming) {
  // Seed from counts that reach past the class grid on both axes, then
  // stream more rounds into the seeded engine: placed members and moved
  // members must add up to the same classes the dense path sees.
  const std::uint32_t receivers = 60;
  workload::cooccurrence_result totals;
  totals.per_pair.resize(1);
  totals.rounds = 200;
  totals.per_pair[0].target_rounds = 120;
  for (node_id v = 0; v < receivers; ++v) {
    const std::uint64_t target = (v * 7) % 45;
    const std::uint64_t global = target + (v * 11) % 50;
    if (global == 0) continue;
    totals.global_receiver_counts.emplace_back(v, global);
    totals.messages += global;
    totals.per_pair[0].target_messages += target;
    if (target > 0)
      totals.per_pair[0].target_receiver_counts.emplace_back(v, target);
  }
  sda_attack engine = sda_attack::from_counts(totals, 0, receivers);
  expect_summary_matches_dense(engine, 200, "seeded");
  check_every_round(engine, random_stream(receivers, 80, 6, 10, 41),
                    "seeded then streamed");
}

TEST(SummarizeSparse, SdaRoundZeroPriorAndThinBatchAreDense) {
  // Round 0: the uniform prior, H = log2 N exactly, smallest id on top.
  sda_attack prior(8);
  const trajectory_point pt = prior.summarize(0, 0.5);
  EXPECT_EQ(pt.top_receiver, 0u);
  EXPECT_EQ(pt.top_mass, 0.125);
  EXPECT_EQ(pt.entropy_bits, 3.0);
  expect_summary_matches_dense(prior, 0, "round-0 prior");

  // m-bar < 1 with classes present: a receiver outside them has positive
  // signal, so the summary must come from the dense vector.
  workload::cooccurrence_result totals;
  totals.rounds = 4;
  totals.messages = 8;
  totals.global_receiver_counts = {{0, 3}, {1, 2}, {2, 3}};
  totals.per_pair.resize(1);
  totals.per_pair[0].target_rounds = 3;
  totals.per_pair[0].target_messages = 2;
  totals.per_pair[0].target_receiver_counts = {{0, 1}, {2, 1}};
  const sda_attack thin = sda_attack::from_counts(totals, 0, 5);
  EXPECT_GT(thin.signal()[1], 0.0);
  expect_summary_matches_dense(thin, 4, "m-bar below one, classes present");
}

TEST(SummarizeSparse, SketchSdaMatchesDenseSaturatedOrNot) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto stream = random_stream(300, 60, 8, 12, 200 + seed);
    workload::sketch_params roomy;  // default: 512 candidates, wide rows
    sketch_sda_attack unsaturated(300, roomy);
    check_every_round(unsaturated, stream,
                      "sketch unsaturated seed " + std::to_string(seed));
    EXPECT_FALSE(unsaturated.candidates_saturated());

    workload::sketch_params tight;  // tiny reservoir, colliding rows
    tight.width = 16;
    tight.candidates = 4;
    sketch_sda_attack saturated(300, tight);
    check_every_round(saturated, stream,
                      "sketch saturated seed " + std::to_string(seed));
    EXPECT_TRUE(saturated.candidates_saturated());
  }
}

TEST(SummarizeSparse, DefaultPathEnginesMatchDense) {
  // Engines without an override take summarize_posterior(posterior()).
  for (const attack_kind kind :
       {attack_kind::intersection, attack_kind::sequential_bayes}) {
    const auto stream = random_stream(25, 30, 5, 6, 300);
    std::vector<round_observation> crisp = stream;
    for (round_observation& obs : crisp) obs.receivers.push_back(24);
    const auto engine = make_attack(kind, 25);
    check_every_round(*engine, crisp, attack_kind_label(kind));
  }
}

}  // namespace
}  // namespace anonpath::attack
