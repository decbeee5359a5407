#include "src/anonymity/posterior.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "src/anonymity/path_sampler.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath {
namespace {

std::vector<bool> flags(std::uint32_t n, const std::vector<node_id>& set) {
  std::vector<bool> f(n, false);
  for (node_id c : set) f[c] = true;
  return f;
}

TEST(Posterior, SumsToOne) {
  const system_params sys{20, 3};
  const std::vector<node_id> comp{2, 7, 11};
  const auto d = path_length_distribution::uniform(0, 10);
  const posterior_engine engine(sys, comp, d);
  stats::rng gen(1);
  for (int i = 0; i < 200; ++i) {
    const route r = sample_route(sys.node_count, d, gen);
    const auto post = engine.sender_posterior(observe(r, flags(20, comp)));
    const double total = std::accumulate(post.begin(), post.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Posterior, TrueSenderAlwaysPossible) {
  // The generative sender must never receive zero posterior mass.
  const system_params sys{15, 4};
  const std::vector<node_id> comp{0, 5, 9, 14};
  const auto d = path_length_distribution::uniform(0, 8);
  const posterior_engine engine(sys, comp, d);
  stats::rng gen(7);
  for (int i = 0; i < 300; ++i) {
    const route r = sample_route(sys.node_count, d, gen);
    const auto post = engine.sender_posterior(observe(r, flags(15, comp)));
    EXPECT_GT(post[r.sender], 0.0) << "iteration " << i;
  }
}

TEST(Posterior, CompromisedSenderIsPointMass) {
  const system_params sys{10, 2};
  const std::vector<node_id> comp{3, 6};
  const auto d = path_length_distribution::uniform(1, 5);
  const posterior_engine engine(sys, comp, d);
  route r{3, {0, 1}};
  const auto post = engine.sender_posterior(observe(r, flags(10, comp)));
  EXPECT_DOUBLE_EQ(post[3], 1.0);
  for (node_id i = 0; i < 10; ++i) {
    if (i != 3) {
      EXPECT_DOUBLE_EQ(post[i], 0.0);
    }
  }
}

TEST(Posterior, FirstHopCompromisedFixedShortPathIdentifiesSender) {
  // F(1): the single intermediate sees pred = sender and succ = R.
  const system_params sys{10, 1};
  const std::vector<node_id> comp{4};
  const auto d = path_length_distribution::fixed(1);
  const posterior_engine engine(sys, comp, d);
  route r{2, {4}};
  const auto post = engine.sender_posterior(observe(r, flags(10, comp)));
  EXPECT_NEAR(post[2], 1.0, 1e-12);
}

TEST(Posterior, VariableLengthLastHopKeepsSenderAmbiguous) {
  // With lengths {1,2} both possible, a compromised last hop cannot tell
  // whether its predecessor is the sender (l=1) or an intermediate (l=2).
  const system_params sys{10, 1};
  const std::vector<node_id> comp{4};
  const auto d = path_length_distribution::uniform(1, 2);
  const posterior_engine engine(sys, comp, d);
  route r{2, {4}};
  const auto post = engine.sender_posterior(observe(r, flags(10, comp)));
  EXPECT_GT(post[2], 0.0);
  EXPECT_LT(post[2], 1.0);
  // All other consistent senders share the remainder equally (use node 0 as
  // the reference generic candidate).
  for (node_id i = 1; i < 10; ++i) {
    if (i == 2 || i == 4) continue;
    EXPECT_GT(post[i], 0.0);
    EXPECT_NEAR(post[i], post[0], 1e-12);
  }
}

TEST(Posterior, CompromisedNodesExcludedWithoutOriginReport) {
  const system_params sys{12, 3};
  const std::vector<node_id> comp{1, 5, 8};
  const auto d = path_length_distribution::uniform(0, 6);
  const posterior_engine engine(sys, comp, d);
  stats::rng gen(3);
  for (int i = 0; i < 200; ++i) {
    route r = sample_route(sys.node_count, d, gen);
    if (flags(12, comp)[r.sender]) continue;  // origin case tested separately
    const auto post = engine.sender_posterior(observe(r, flags(12, comp)));
    for (node_id c : comp) EXPECT_DOUBLE_EQ(post[c], 0.0);
  }
}

TEST(Posterior, FastPathMatchesReference) {
  // The class-collapsed fast path and the per-candidate reference must be
  // bit-for-bit comparable across many random observations and C values.
  stats::rng gen(42);
  for (std::uint32_t c_count : {1u, 2u, 4u}) {
    const system_params sys{16, c_count};
    std::vector<node_id> comp;
    for (std::uint32_t i = 0; i < c_count; ++i)
      comp.push_back(static_cast<node_id>(i * 3 + 1));
    const auto d = path_length_distribution::uniform(0, 9);
    const posterior_engine engine(sys, comp, d);
    for (int i = 0; i < 150; ++i) {
      const route r = sample_route(sys.node_count, d, gen);
      const auto obs = observe(r, flags(16, comp));
      const auto fast = engine.sender_posterior(obs);
      const auto ref = engine.sender_posterior_reference(obs);
      for (std::size_t k = 0; k < fast.size(); ++k)
        EXPECT_NEAR(fast[k], ref[k], 1e-12)
            << "C=" << c_count << " obs=" << obs.key() << " node=" << k;
    }
  }
}

TEST(Posterior, ReceiverPredecessorExcludedUnlessDirectPossible) {
  // Support {1..3}: v = x_l can never be the sender.
  const system_params sys{10, 1};
  const std::vector<node_id> comp{9};
  const auto d = path_length_distribution::uniform(1, 3);
  const posterior_engine engine(sys, comp, d);
  route r{0, {1, 2}};
  const auto post = engine.sender_posterior(observe(r, flags(10, comp)));
  EXPECT_DOUBLE_EQ(post[2], 0.0);  // v = 2
}

TEST(Posterior, DirectSendGivesReceiverPredecessorMass) {
  // Support {0..3}: now v could be the sender (l = 0).
  const system_params sys{10, 1};
  const std::vector<node_id> comp{9};
  const auto d = path_length_distribution::uniform(0, 3);
  const posterior_engine engine(sys, comp, d);
  route r{0, {1, 2}};
  const auto post = engine.sender_posterior(observe(r, flags(10, comp)));
  EXPECT_GT(post[2], 0.0);  // v = 2 now plausible as direct sender
}

TEST(Posterior, ConstructorValidatesArguments) {
  const auto d = path_length_distribution::fixed(2);
  EXPECT_THROW(posterior_engine(system_params{10, 2}, {1}, d),
               contract_violation);
  EXPECT_THROW(posterior_engine(system_params{10, 1}, {10}, d),
               contract_violation);
  EXPECT_THROW(posterior_engine(system_params{10, 2}, {3, 3}, d),
               contract_violation);
  EXPECT_THROW(posterior_engine(system_params{5, 1}, {0},
                                path_length_distribution::fixed(5)),
               contract_violation);
}

}  // namespace
}  // namespace anonpath
