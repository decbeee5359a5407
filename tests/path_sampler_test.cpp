#include "src/anonymity/path_sampler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/stats/chi_square.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/histogram.hpp"

namespace anonpath {
namespace {

TEST(SimpleRoute, DistinctHopsExcludingSender) {
  stats::rng g(1);
  for (int i = 0; i < 500; ++i) {
    const auto r = sample_simple_route(12, 5, 8, g);
    EXPECT_EQ(r.sender, 5u);
    EXPECT_EQ(r.length(), 8u);
    std::set<node_id> uniq(r.hops.begin(), r.hops.end());
    EXPECT_EQ(uniq.size(), 8u);
    EXPECT_FALSE(uniq.contains(5u));
  }
}

TEST(SimpleRoute, MaximumLengthUsesAllOtherNodes) {
  stats::rng g(2);
  const auto r = sample_simple_route(6, 0, 5, g);
  std::set<node_id> uniq(r.hops.begin(), r.hops.end());
  EXPECT_EQ(uniq, (std::set<node_id>{1, 2, 3, 4, 5}));
}

TEST(SimpleRoute, UniformOverOrderedArrangements) {
  // N=4, sender 0, length 2: 6 ordered pairs from {1,2,3}, all equal.
  stats::rng g(3);
  std::map<std::pair<node_id, node_id>, std::uint64_t> counts;
  constexpr int n = 60000;
  for (int i = 0; i < n; ++i) {
    const auto r = sample_simple_route(4, 0, 2, g);
    ++counts[{r.hops[0], r.hops[1]}];
  }
  ASSERT_EQ(counts.size(), 6u);
  std::vector<std::uint64_t> obs;
  for (const auto& [k, v] : counts) obs.push_back(v);
  const std::vector<double> expected(6, 1.0 / 6.0);
  const auto res = stats::chi_square_goodness_of_fit(obs, expected);
  EXPECT_GT(res.p_value, 1e-4);
}

TEST(SimpleRoute, RejectsOverlongPaths) {
  stats::rng g(4);
  EXPECT_THROW((void)sample_simple_route(5, 0, 5, g), contract_violation);
  EXPECT_THROW((void)sample_simple_route(5, 5, 1, g), contract_violation);
}

TEST(SimpleRouteSampler, DrawsExactlyWhatSampleSimpleRouteDraws) {
  // Same generator state in, same route and same generator state out —
  // for every length up to N-1, senders at both ends and in the middle,
  // and across many consecutive draws (the pool must be restored).
  for (const std::uint32_t n : {1u, 2u, 3u, 7u, 100u}) {
    simple_route_sampler sampler(n);
    stats::rng a(n * 31 + 1);
    stats::rng b(n * 31 + 1);
    stats::rng pick(n);
    route got;
    for (int draw = 0; draw < 400; ++draw) {
      const auto sender = static_cast<node_id>(pick.next_below(n));
      const auto length = static_cast<path_length>(pick.next_below(n));
      const route want = sample_simple_route(n, sender, length, a);
      sampler.sample(sender, length, b, got);
      ASSERT_EQ(got.sender, want.sender);
      ASSERT_EQ(got.hops, want.hops) << "n=" << n << " draw " << draw;
      ASSERT_EQ(a.next_u64(), b.next_u64()) << "n=" << n << " draw " << draw;
    }
  }
}

TEST(SimpleRouteSampler, RejectsOverlongPathsAndUnknownSenders) {
  simple_route_sampler sampler(5);
  stats::rng gen(3);
  route out;
  EXPECT_THROW(sampler.sample(0, 5, gen, out), contract_violation);
  EXPECT_THROW(sampler.sample(5, 1, gen, out), contract_violation);
}

TEST(SampleRoute, DrawsSenderUniformly) {
  stats::rng g(8);
  const auto d = path_length_distribution::fixed(2);
  stats::int_histogram h(8);
  constexpr int n = 80000;
  for (int i = 0; i < n; ++i)
    h.add(sample_route(8, d, g).sender);
  const std::vector<double> expected(8, 0.125);
  const auto res = stats::chi_square_goodness_of_fit(h.counts(), expected);
  EXPECT_GT(res.p_value, 1e-4);
}

TEST(SampleRoute, RespectsLengthDistribution) {
  stats::rng g(9);
  const auto d = path_length_distribution::uniform(1, 4);
  stats::int_histogram h(5);
  for (int i = 0; i < 60000; ++i)
    h.add(sample_route(10, d, g).length());
  const auto res = stats::chi_square_goodness_of_fit(h.counts(), d.dense_pmf());
  EXPECT_GT(res.p_value, 1e-4);
}

}  // namespace
}  // namespace anonpath
