// Determinism and correctness of the Monte-Carlo estimation pipeline:
// pinned clique bits, thread-count invariance (the mc_config contract) for
// the clique and for graphs, agreement with per-sample scoring, the
// allocation-free route sampler's distribution, and a fuzz pass pitting
// the memoized posterior fast path against the uncached reference.

#include "src/anonymity/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/entropy.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

namespace anonpath {
namespace {

std::vector<bool> flags(std::uint32_t n, const std::vector<node_id>& set) {
  std::vector<bool> f(n, false);
  for (node_id c : set) f[c] = true;
  return f;
}

TEST(McParallel, BitIdenticalAcrossThreadCounts) {
  // The headline guarantee: for a fixed (seed, samples, shards, topology),
  // every thread count produces the same bits.
  const system_params sys{60, 4};
  const std::vector<node_id> comp{3, 17, 33, 49};
  const auto d = path_length_distribution::uniform(1, 12);
  mc_config cfg;
  cfg.shards = 16;
  cfg.threads = 1;
  const auto base = estimate_anonymity_degree(sys, comp, d, 6000, 77, cfg);
  for (unsigned threads : {2u, 3u, 8u}) {
    cfg.threads = threads;
    const auto est = estimate_anonymity_degree(sys, comp, d, 6000, 77, cfg);
    EXPECT_EQ(base.degree, est.degree) << threads << " threads";
    EXPECT_EQ(base.std_error, est.std_error) << threads << " threads";
    EXPECT_EQ(base.distinct_observations, est.distinct_observations)
        << threads << " threads";
  }
}

TEST(McParallel, CliqueEstimatesKeepTheirBits) {
  // Pins the clique estimator's output bit for bit, so a refactor of the
  // pipeline (sampling, class merge, scoring, reduction) cannot move it.
  struct pinned {
    system_params sys;
    std::vector<node_id> comp;
    path_length_distribution lengths;
    std::uint64_t samples, seed, shards;
    std::uint64_t degree_bits, std_error_bits, distinct;
  };
  const pinned cases[] = {
      {{60, 4}, {3, 17, 33, 49}, path_length_distribution::uniform(1, 10),
       6000, 77, 16, 0x4014f166b68cbaf4ull, 0x3f92e580cf86ff6aull, 1988},
      {{100, 1}, {7}, path_length_distribution::fixed(5), 20000, 5, 0,
       0x401a0dea2b2edea7ull, 0x3f73815fc7d8f71dull, 1042},
  };
  for (const pinned& p : cases) {
    mc_config cfg;
    cfg.shards = p.shards;
    const auto est = estimate_anonymity_degree(p.sys, p.comp, p.lengths,
                                               p.samples, p.seed, cfg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(est.degree), p.degree_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(est.std_error), p.std_error_bits);
    EXPECT_EQ(est.distinct_observations, p.distinct);
  }
}

net::topology_config graph(const std::string& spec) {
  net::topology_config cfg;
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg = spec.substr(colon + 1);
  if (kind == "ring") {
    cfg.kind = net::topology_kind::ring;
    cfg.ring_k = static_cast<std::uint32_t>(std::stoul(arg));
  } else if (kind == "regular") {
    cfg.kind = net::topology_kind::random_regular;
    cfg.degree = static_cast<std::uint32_t>(std::stoul(arg));
  } else {
    cfg.kind = net::topology_kind::trust_weighted;
    cfg.trust_decay = std::stod(arg);
  }
  return cfg;
}

TEST(McParallel, GraphEstimatesAreBitIdenticalAcrossThreadCounts) {
  const system_params sys{24, 2};
  const std::vector<node_id> comp{5, 17};
  const auto d = path_length_distribution::uniform(1, 6);
  for (const char* spec : {"ring:2", "regular:3", "trust:0.6"}) {
    const net::topology_config topo = graph(spec);
    mc_config cfg;
    cfg.threads = 1;
    const auto base =
        estimate_anonymity_degree(sys, comp, d, 4000, 31, cfg, topo);
    EXPECT_EQ(base.shards, 16u) << spec;
    EXPECT_GT(base.distinct_observations, 1u) << spec;
    EXPECT_LT(base.distinct_observations, base.samples) << spec;
    for (unsigned threads : {2u, 8u}) {
      cfg.threads = threads;
      const auto est =
          estimate_anonymity_degree(sys, comp, d, 4000, 31, cfg, topo);
      EXPECT_EQ(base.degree, est.degree) << spec << " " << threads;
      EXPECT_EQ(base.std_error, est.std_error) << spec << " " << threads;
      EXPECT_EQ(base.distinct_observations, est.distinct_observations)
          << spec << " " << threads;
    }
  }
}

TEST(McParallel, DedupMatchesDirectScoring) {
  // Scoring each distinct observation once and weighting it by its count
  // must give what scoring every sample does, up to rounding. The
  // reference draws from the same single stream (shards = 1), in the same
  // per-sample order, and scores each sample on its own.
  const system_params sys{30, 3};
  const std::vector<node_id> comp{2, 13, 25};
  const auto d = path_length_distribution::uniform(1, 8);
  const std::uint64_t samples = 5000, seed = 13;
  mc_config cfg;
  cfg.shards = 1;
  const auto check = [&](const mc_estimate& est,
                         const stats::running_summary& ref) {
    EXPECT_EQ(ref.count(), samples);
    EXPECT_NEAR(est.degree, ref.mean(), 1e-9);
    EXPECT_NEAR(est.std_error, ref.std_error(), 1e-9);
    EXPECT_LT(est.distinct_observations, samples);
  };
  const auto f = flags(sys.node_count, comp);

  {  // The clique: simple paths, posterior_engine.
    const posterior_engine engine(sys, comp, d);
    route_sampler sampler(sys.node_count, d);
    stats::rng gen = stats::rng::stream(seed, 0);
    stats::running_summary ref;
    for (std::uint64_t i = 0; i < samples; ++i)
      ref.add(entropy_bits(
          engine.sender_posterior(observe(sampler.next(gen), f))));
    SCOPED_TRACE("clique");
    check(estimate_anonymity_degree(sys, comp, d, samples, seed, cfg), ref);
  }
  {  // A graph: uniform sender, length, weighted walk; the walk engine.
    const net::topology_config topo = graph("ring:2");
    const net::topology_posterior_engine engine(
        sys, comp, d, net::topology::make(sys.node_count, topo));
    stats::rng gen = stats::rng::stream(seed, 0);
    stats::running_summary ref;
    route r;
    for (std::uint64_t i = 0; i < samples; ++i) {
      r.sender = static_cast<node_id>(gen.next_below(sys.node_count));
      const path_length l = d.sample(gen);
      sample_topology_route_into(engine.graph(), r.sender, l, gen, r);
      ref.add(entropy_bits(engine.sender_posterior(observe(r, f))));
    }
    SCOPED_TRACE("ring:2");
    check(estimate_anonymity_degree(sys, comp, d, samples, seed, cfg, topo),
          ref);
  }
}

TEST(McParallel, ShardCountChangesStreamButNotDistribution) {
  // Different shard counts draw different routes, so estimates differ — but
  // both must straddle the analytic C=1 value.
  const system_params sys{50, 1};
  const auto d = path_length_distribution::uniform(0, 20);
  const double exact = anonymity_degree(sys, d);
  for (std::uint64_t shards : {1ull, 4ull, 64ull}) {
    mc_config cfg;
    cfg.shards = shards;
    const auto est = estimate_anonymity_degree(sys, {7}, d, 20000, 4242, cfg);
    EXPECT_NEAR(est.degree, exact, 5.0 * est.std_error + 1e-6)
        << shards << " shards";
  }
}

TEST(McParallel, RngStreamsAreDecoupled) {
  // stream(seed, i) must not depend on any other stream's consumption.
  stats::rng a = stats::rng::stream(123, 5);
  stats::rng b = stats::rng::stream(123, 6);
  (void)b.next_u64();
  stats::rng a2 = stats::rng::stream(123, 5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), a2.next_u64());
  // Distinct indices give distinct streams.
  stats::rng c = stats::rng::stream(123, 7);
  stats::rng d = stats::rng::stream(123, 8);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (c.next_u64() != d.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(McParallel, RouteSamplerDrawsValidSimpleRoutes) {
  const std::uint32_t n = 30;
  const auto d = path_length_distribution::uniform(0, 12);
  route_sampler sampler(n, d);
  stats::rng gen(3);
  double mean_len = 0.0;
  const int trials = 20000;
  std::vector<int> sender_counts(n, 0);
  for (int i = 0; i < trials; ++i) {
    const route& r = sampler.next(gen);
    ASSERT_LT(r.sender, n);
    ++sender_counts[r.sender];
    ASSERT_LE(r.length(), d.max_length());
    mean_len += static_cast<double>(r.length());
    // Simple-path invariant: sender and hops all distinct.
    std::vector<bool> seen(n, false);
    seen[r.sender] = true;
    for (node_id x : r.hops) {
      ASSERT_LT(x, n);
      ASSERT_FALSE(seen[x]);
      seen[x] = true;
    }
  }
  mean_len /= trials;
  EXPECT_NEAR(mean_len, d.mean(), 0.1);
  // Sender must be uniform: every node within 5 sigma of trials/n.
  const double expect = static_cast<double>(trials) / n;
  const double sigma = std::sqrt(expect * (1.0 - 1.0 / n));
  for (std::uint32_t v = 0; v < n; ++v)
    EXPECT_NEAR(sender_counts[v], expect, 5.0 * sigma) << "sender " << v;
}

TEST(McParallel, ObserveIntoMatchesObserve) {
  const std::uint32_t n = 25;
  const std::vector<node_id> comp{1, 8, 14, 22};
  const auto f = flags(n, comp);
  const auto d = path_length_distribution::uniform(0, 10);
  route_sampler sampler(n, d);
  stats::rng gen(11);
  observation reused;
  std::string key;
  for (int i = 0; i < 500; ++i) {
    const route& r = sampler.next(gen);
    const observation fresh = observe(r, f);
    observe_into(r, f, reused);  // reused buffer must fully reset
    EXPECT_EQ(fresh, reused);
    reused.key_into(key);
    EXPECT_EQ(fresh.key(), key);
  }
}

TEST(McParallel, MemoizedPosteriorMatchesReferenceFuzz) {
  // Fuzz the memoized fast path against the uncached per-candidate
  // reference across systems, compromised sets, and length laws. Repeated
  // queries of the same engine exercise warm-cache hits.
  stats::rng gen(2024);
  for (std::uint32_t c_count : {1u, 3u, 6u}) {
    for (const auto& d : {path_length_distribution::uniform(0, 11),
                          path_length_distribution::fixed(4),
                          path_length_distribution::geometric(0.6, 1, 11)}) {
      const system_params sys{18, c_count};
      std::vector<node_id> comp;
      for (std::uint32_t i = 0; i < c_count; ++i)
        comp.push_back(static_cast<node_id>((i * 18) / c_count + 1));
      const posterior_engine engine(sys, comp, d);
      const auto f = flags(18, comp);
      route_sampler sampler(18, d);
      for (int i = 0; i < 200; ++i) {
        const observation obs = observe(sampler.next(gen), f);
        const auto fast = engine.sender_posterior(obs);
        const auto ref = engine.sender_posterior_reference(obs);
        ASSERT_EQ(fast.size(), ref.size());
        for (std::size_t k = 0; k < fast.size(); ++k)
          ASSERT_NEAR(fast[k], ref[k], 1e-12)
              << "C=" << c_count << " dist=" << d.label()
              << " obs=" << obs.key() << " node=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace anonpath
