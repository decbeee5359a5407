// The validation backbone: the exhaustive analyzer is ground truth; the
// analytic C=1 engine and the general posterior engine must agree with it
// exactly (up to floating point) on every system small enough to enumerate.

#include "src/anonymity/brute_force.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/stats/contract.hpp"

namespace anonpath {
namespace {

TEST(BruteForce, EventProbabilitiesSumToOne) {
  const system_params sys{6, 1};
  const brute_force_analyzer bf(sys, {3}, path_length_distribution::uniform(0, 4));
  EXPECT_NEAR(bf.total_probability(), 1.0, 1e-12);
}

TEST(BruteForce, DirectSendIdentifiesSender) {
  const system_params sys{6, 1};
  const brute_force_analyzer bf(sys, {0}, path_length_distribution::fixed(0));
  EXPECT_NEAR(bf.anonymity_degree(), 0.0, 1e-12);
  for (const auto& e : bf.events()) EXPECT_NEAR(e.entropy_bits, 0.0, 1e-12);
}

TEST(BruteForce, AllCompromisedLeavesNothingHidden) {
  const system_params sys{5, 5};
  const brute_force_analyzer bf(sys, {0, 1, 2, 3, 4},
                                path_length_distribution::uniform(0, 3));
  EXPECT_NEAR(bf.anonymity_degree(), 0.0, 1e-12);
}

TEST(BruteForce, NoCompromisedGivesMaximumUncertaintyAmongConsistent) {
  // C=0: adversary only has the receiver. For fixed l>=1 the receiver sees
  // x_l = v; senders other than v equally likely: H = log2(N-1).
  const system_params sys{6, 0};
  const brute_force_analyzer bf(sys, {}, path_length_distribution::fixed(2));
  EXPECT_NEAR(bf.anonymity_degree(), std::log2(5.0), 1e-12);
}

TEST(BruteForce, GuardsLargeSystems) {
  EXPECT_THROW(brute_force_analyzer(system_params{11, 1}, {0},
                                    path_length_distribution::fixed(1)),
               contract_violation);
}

// ---------------------------------------------------------------------------
// Analytic C=1 engine vs brute force, parameterized over distributions.
// ---------------------------------------------------------------------------

struct dist_case {
  const char* name;
  path_length_distribution (*make)();
};

// Without a printer gtest dumps the raw bytes, pointers included, into the
// test's listed name, which then changes from run to run.
void PrintTo(const dist_case& c, std::ostream* os) { *os << c.name; }

class AnalyticVsBruteForce : public ::testing::TestWithParam<dist_case> {};

TEST_P(AnalyticVsBruteForce, ExactAgreement) {
  const auto d = GetParam().make();
  for (std::uint32_t n : {5u, 6u, 7u, 8u}) {
    if (d.max_length() > n - 1) continue;
    const system_params sys{n, 1};
    // Compromised identity is irrelevant by symmetry; check two.
    for (node_id c : {node_id{0}, node_id{n - 1}}) {
      const brute_force_analyzer bf(sys, {c}, d);
      EXPECT_NEAR(anonymity_degree(sys, d), bf.anonymity_degree(), 1e-10)
          << GetParam().name << " N=" << n << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, AnalyticVsBruteForce,
    ::testing::Values(
        dist_case{"F0", [] { return path_length_distribution::fixed(0); }},
        dist_case{"F1", [] { return path_length_distribution::fixed(1); }},
        dist_case{"F2", [] { return path_length_distribution::fixed(2); }},
        dist_case{"F3", [] { return path_length_distribution::fixed(3); }},
        dist_case{"F4", [] { return path_length_distribution::fixed(4); }},
        dist_case{"U04", [] { return path_length_distribution::uniform(0, 4); }},
        dist_case{"U13", [] { return path_length_distribution::uniform(1, 3); }},
        dist_case{"U24", [] { return path_length_distribution::uniform(2, 4); }},
        dist_case{"Geom", [] { return path_length_distribution::geometric(0.5, 1, 4); }},
        dist_case{"TwoPoint",
                  [] { return path_length_distribution::two_point(1, 0.3, 4); }},
        dist_case{"Poisson",
                  [] { return path_length_distribution::poisson(1.5, 4); }}),
    [](const ::testing::TestParamInfo<dist_case>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Posterior engine vs brute force, event by event, including C > 1.
// ---------------------------------------------------------------------------

class PosteriorVsBruteForce
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(PosteriorVsBruteForce, EveryEventPosteriorMatches) {
  const auto [n, c_count] = GetParam();
  const system_params sys{n, c_count};
  std::vector<node_id> compromised;
  for (std::uint32_t i = 0; i < c_count; ++i)
    compromised.push_back(static_cast<node_id>(2 * i + 1 < n ? 2 * i + 1 : i));
  const auto d = path_length_distribution::uniform(0, std::min(n - 1, 4u));

  const brute_force_analyzer bf(sys, compromised, d);
  const posterior_engine engine(sys, compromised, d);

  double reconstructed_degree = 0.0;
  for (const auto& e : bf.events()) {
    const auto post = engine.sender_posterior(e.obs);
    ASSERT_EQ(post.size(), e.posterior.size());
    for (std::size_t i = 0; i < post.size(); ++i) {
      EXPECT_NEAR(post[i], e.posterior[i], 1e-9)
          << "N=" << n << " C=" << c_count << " event=" << e.obs.key()
          << " node=" << i;
    }
    reconstructed_degree += e.probability * e.entropy_bits;
  }
  EXPECT_NEAR(reconstructed_degree, bf.anonymity_degree(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SystemGrid, PosteriorVsBruteForce,
                         ::testing::Combine(::testing::Values(5u, 6u, 7u, 8u),
                                            ::testing::Values(1u, 2u, 3u)));

// Fixed-length variants exercise different event shapes than uniform.
TEST(PosteriorVsBruteForceFixed, LongPathsManyCompromised) {
  const system_params sys{7, 3};
  const std::vector<node_id> compromised{1, 4, 5};
  for (path_length l : {3u, 5u, 6u}) {
    const auto d = path_length_distribution::fixed(l);
    const brute_force_analyzer bf(sys, compromised, d);
    const posterior_engine engine(sys, compromised, d);
    for (const auto& e : bf.events()) {
      const auto post = engine.sender_posterior(e.obs);
      for (std::size_t i = 0; i < post.size(); ++i)
        EXPECT_NEAR(post[i], e.posterior[i], 1e-9)
            << "l=" << l << " event=" << e.obs.key();
    }
  }
}

TEST(PosteriorVsBruteForceFixed, AdjacentCompromisedChain) {
  // Adjacent compromised ids stress fragment chaining.
  const system_params sys{6, 2};
  const std::vector<node_id> compromised{2, 3};
  const auto d = path_length_distribution::uniform(1, 5);
  const brute_force_analyzer bf(sys, compromised, d);
  const posterior_engine engine(sys, compromised, d);
  for (const auto& e : bf.events()) {
    const auto post = engine.sender_posterior(e.obs);
    for (std::size_t i = 0; i < post.size(); ++i)
      EXPECT_NEAR(post[i], e.posterior[i], 1e-9) << e.obs.key();
  }
}

}  // namespace
}  // namespace anonpath
