#include "src/anonymity/multi_message.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/anonymity/analytic.hpp"
#include "src/stats/contract.hpp"

namespace anonpath {
namespace {

TEST(CombinePosteriors, SingleFactorIsIdentity) {
  const std::vector<std::vector<double>> ps{{0.1, 0.6, 0.3}};
  const auto fused = combine_posteriors(ps);
  EXPECT_NEAR(fused[0], 0.1, 1e-12);
  EXPECT_NEAR(fused[1], 0.6, 1e-12);
  EXPECT_NEAR(fused[2], 0.3, 1e-12);
}

TEST(CombinePosteriors, ProductSharpens) {
  const std::vector<std::vector<double>> ps{{0.5, 0.25, 0.25},
                                            {0.5, 0.25, 0.25}};
  const auto fused = combine_posteriors(ps);
  // 0.25 / (0.25 + 0.0625 + 0.0625) = 2/3.
  EXPECT_NEAR(fused[0], 2.0 / 3.0, 1e-12);
  EXPECT_GT(fused[0], 0.5);
}

TEST(CombinePosteriors, ZeroAnywhereEliminatesCandidate) {
  const std::vector<std::vector<double>> ps{{0.5, 0.5, 0.0},
                                            {0.0, 0.5, 0.5}};
  const auto fused = combine_posteriors(ps);
  EXPECT_DOUBLE_EQ(fused[0], 0.0);
  EXPECT_DOUBLE_EQ(fused[2], 0.0);
  EXPECT_NEAR(fused[1], 1.0, 1e-12);
}

TEST(CombinePosteriors, ManyFactorsStayNormalizedAndFinite) {
  // 200 identical soft factors would underflow in linear space.
  std::vector<std::vector<double>> ps(200, std::vector<double>{0.6, 0.4});
  const auto fused = combine_posteriors(ps);
  EXPECT_NEAR(fused[0] + fused[1], 1.0, 1e-12);
  EXPECT_GT(fused[0], 0.999999);
}

TEST(CombinePosteriors, TenThousandFactorsRegression) {
  // Underflow audit at large k (the longitudinal regime src/attack opened):
  // 10^4 factors drive per-candidate products to ~e^-7000, far below the
  // smallest subnormal double, so any linear-space accumulation collapses
  // every candidate to 0/0. The log-space path must keep the fused result
  // exact: argmax pinned to the candidate with the largest average log
  // weight, output normalized, and the runner-up's odds matching the
  // closed-form log-odds ratio.
  constexpr std::size_t k = 10000;
  constexpr std::size_t n = 24;
  std::vector<std::vector<double>> ps;
  ps.reserve(k);
  std::vector<double> factor(n);
  for (std::size_t j = 0; j < k; ++j) {
    // Deterministic near-uniform factors with a tiny persistent tilt toward
    // candidate 17 and a j-dependent wobble elsewhere — every entry is
    // small, no entry is zero.
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      factor[i] = 1.0 + 0.02 * ((i * 31 + j * 7) % 11) / 11.0 +
                  (i == 17 ? 0.015 : 0.0);
      sum += factor[i];
    }
    for (double& x : factor) x /= sum;
    ps.push_back(factor);
  }
  const auto fused = combine_posteriors(ps);
  ASSERT_EQ(fused.size(), n);
  double total = 0.0;
  for (double p : fused) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  const auto top =
      std::max_element(fused.begin(), fused.end()) - fused.begin();
  EXPECT_EQ(top, 17);
  EXPECT_GT(fused[17], 0.999999) << "10^4 consistent tilts must concentrate";

  // Cross-check one odds ratio against a direct long-double log-space
  // recomputation: the function's output is exact fusion, not just "some
  // large number".
  long double log_odds = 0.0L;
  for (const auto& p : ps)
    log_odds += std::log(static_cast<long double>(p[17])) -
                std::log(static_cast<long double>(p[16]));
  EXPECT_GT(fused[16], 0.0);
  EXPECT_NEAR(std::log(fused[17] / fused[16]),
              static_cast<double>(log_odds), 1e-6);
}

TEST(CombinePosteriors, RejectsBadInput) {
  EXPECT_THROW((void)combine_posteriors({}), contract_violation);
  const std::vector<std::vector<double>> mismatched{{0.5, 0.5}, {1.0}};
  EXPECT_THROW((void)combine_posteriors(mismatched), contract_violation);
}

TEST(CombinePosteriors, SkipsAFactorThatAnnihilatesTheSupport) {
  // The second factor is zero wherever the first is positive: fusing it in
  // would leave nothing to normalise, so it carries no weight.
  const std::vector<std::vector<double>> contradictory{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_EQ(combine_posteriors(contradictory), (std::vector<double>{1.0, 0.0}));
}

TEST(Degradation, FirstMessageMatchesSingleShotEntropyScale) {
  // k=1 point should sit near the analytic H* conditioned on honest
  // senders (slightly above H*, which also averages the identified
  // compromised-sender event).
  const system_params sys{30, 1};
  const auto d = path_length_distribution::uniform(1, 8);
  const auto curve = simulate_degradation(sys, {5}, d, 1, 800, true, 7);
  ASSERT_EQ(curve.size(), 1u);
  const double exact = anonymity_degree(sys, d);
  // Conditioning on an honest sender removes the zero-entropy
  // compromised-sender events, so the curve sits slightly *above* H*.
  EXPECT_GT(curve[0].mean_entropy_bits, exact - 1e-9);
  EXPECT_LT(curve[0].mean_entropy_bits, exact + 0.3);
}

TEST(Degradation, ReroutingLeaksMonotonically) {
  const system_params sys{20, 3};
  const auto d = path_length_distribution::uniform(1, 6);
  const auto curve = simulate_degradation(sys, {2, 9, 14}, d, 12, 300, true, 11);
  ASSERT_EQ(curve.size(), 12u);
  // Entropy must fall (strictly over the span) as messages accumulate.
  for (std::size_t k = 1; k < curve.size(); ++k) {
    EXPECT_LE(curve[k].mean_entropy_bits,
              curve[k - 1].mean_entropy_bits + 0.02)
        << "k=" << k;
  }
  EXPECT_LT(curve.back().mean_entropy_bits,
            curve.front().mean_entropy_bits - 0.5);
  EXPECT_GT(curve.back().identified_fraction,
            curve.front().identified_fraction);
}

TEST(Degradation, StaticPathDoesNotDegrade) {
  const system_params sys{20, 3};
  const auto d = path_length_distribution::uniform(1, 6);
  const auto curve =
      simulate_degradation(sys, {2, 9, 14}, d, 10, 300, false, 13);
  // Same observation repeated: the fused posterior never changes.
  for (std::size_t k = 1; k < curve.size(); ++k) {
    EXPECT_NEAR(curve[k].mean_entropy_bits, curve[0].mean_entropy_bits, 1e-9);
    EXPECT_NEAR(curve[k].identified_fraction, curve[0].identified_fraction,
                1e-12);
  }
}

TEST(Degradation, DeterministicUnderSeed) {
  const system_params sys{15, 2};
  const auto d = path_length_distribution::uniform(1, 5);
  const auto a = simulate_degradation(sys, {1, 8}, d, 5, 100, true, 42);
  const auto b = simulate_degradation(sys, {1, 8}, d, 5, 100, true, 42);
  for (std::size_t k = 0; k < a.size(); ++k)
    EXPECT_DOUBLE_EQ(a[k].mean_entropy_bits, b[k].mean_entropy_bits);
}

TEST(Degradation, ValidatesArguments) {
  const system_params sys{15, 1};
  const auto d = path_length_distribution::fixed(3);
  EXPECT_THROW((void)simulate_degradation(sys, {1}, d, 0, 10, true, 1),
               contract_violation);
  EXPECT_THROW((void)simulate_degradation(sys, {1}, d, 5, 0, true, 1),
               contract_violation);
}

}  // namespace
}  // namespace anonpath
