// Cross-engine conformance: every estimation engine in the library pinned
// to the exhaustive brute-force oracle on small systems — Monte-Carlo
// within its sampling error for every surveyed protocol preset, the
// analytic C=1 engine and the Theorem 1-3 closed forms to near machine
// precision, the general posterior engine event by event, and the cyclic
// oracle wherever the two path models provably coincide.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <fstream>
#include <sstream>

#include "src/anonymity/api.hpp"
#include "src/net/graph_oracle.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"

namespace anonpath {
namespace {

double oracle(std::uint32_t n, const std::vector<node_id>& comp,
              const path_length_distribution& d) {
  return brute_force_analyzer(
             system_params{n, static_cast<std::uint32_t>(comp.size())}, comp, d)
      .anonymity_degree();
}

TEST(Conformance, MonteCarloMatchesBruteForceOnEverySurveyPreset) {
  // N=8 keeps the oracle exact while every preset (fixed, geometric,
  // two-point) fits the simple-path support cap of N-1=7.
  const system_params sys{8, 2};
  const std::vector<node_id> comp{2, 6};
  mc_config cfg;
  cfg.shards = 8;
  for (const auto& proto : protocols::survey(7)) {
    const double exact = oracle(8, comp, proto.lengths);
    const auto est =
        estimate_anonymity_degree(sys, comp, proto.lengths, 30000, 11, cfg);
    EXPECT_NEAR(est.degree, exact, 5.0 * est.std_error + 1e-6)
        << proto.name << " (" << proto.lengths.label() << ")";
  }
}

TEST(Conformance, MonteCarloMatchesBruteForceAcrossCompromisedSizes) {
  const auto d = path_length_distribution::uniform(0, 5);
  const std::vector<std::vector<node_id>> sets{
      {3}, {1, 4}, {0, 3, 6}, {0, 2, 4, 6, 7}};
  for (const auto& comp : sets) {
    const system_params sys{8, static_cast<std::uint32_t>(comp.size())};
    const double exact = oracle(8, comp, d);
    const auto est = estimate_anonymity_degree(sys, comp, d, 30000, 23);
    EXPECT_NEAR(est.degree, exact, 5.0 * est.std_error + 1e-6)
        << comp.size() << " compromised";
  }
}

TEST(Conformance, AnalyticMatchesBruteForceAtC1) {
  // The closed-form C=1 engine against exhaustive enumeration, across
  // every distribution family the factories produce.
  for (std::uint32_t n : {8u, 10u}) {
    const std::vector<path_length_distribution> dists{
        path_length_distribution::fixed(0),
        path_length_distribution::fixed(1),
        path_length_distribution::fixed(3),
        path_length_distribution::fixed(5),
        path_length_distribution::uniform(0, 4),
        path_length_distribution::uniform(1, 7),
        path_length_distribution::geometric(0.7, 1, 7),
        path_length_distribution::poisson(2.5, 7),
        path_length_distribution::two_point(1, 0.3, 6),
    };
    for (const auto& d : dists) {
      const double exact = oracle(n, {n / 2}, d);
      EXPECT_NEAR(anonymity_degree(system_params{n, 1}, d), exact, 1e-9)
          << "N=" << n << " " << d.label();
    }
  }
}

TEST(Conformance, Theorem1MatchesBruteForceAtEveryLength) {
  for (path_length l = 0; l <= 7; ++l) {
    const double exact =
        oracle(8, {3}, path_length_distribution::fixed(l));
    EXPECT_NEAR(theorem1_fixed_length(8, l), exact, 1e-9) << "l=" << l;
  }
}

TEST(Conformance, Theorem3MatchesBruteForceOnUniformFamilies) {
  const std::vector<std::pair<path_length, path_length>> ranges{
      {0, 4}, {1, 7}, {3, 7}, {2, 2}};
  for (const auto& [a, b] : ranges) {
    const double exact =
        oracle(8, {5}, path_length_distribution::uniform(a, b));
    EXPECT_NEAR(theorem3_uniform(8, a, b), exact, 1e-9)
        << "U(" << a << "," << b << ")";
  }
}

TEST(Conformance, Theorem2MatchesBruteForceWhenTruncationIsNegligible) {
  // Theorem 2 assumes the untruncated geometric tail; at pf=0.2 the mass
  // beyond the N-1=9 support cap is pf^9 ~ 5e-7, so the truncated oracle
  // agrees to ~1e-4.
  const double pf = 0.2;
  const double exact =
      oracle(10, {4}, path_length_distribution::geometric(pf, 1, 9));
  EXPECT_NEAR(theorem2_geometric(10, pf), exact, 1e-4);
}

TEST(Conformance, PosteriorEngineMatchesOracleEventByEvent) {
  // The general-C exact engine must reproduce the oracle's posterior for
  // every observation class in the enumerated event space.
  const system_params sys{7, 2};
  const std::vector<node_id> comp{1, 5};
  const auto d = path_length_distribution::uniform(0, 4);
  const brute_force_analyzer bf(sys, comp, d);
  const posterior_engine engine(sys, comp, d);
  ASSERT_GT(bf.events().size(), 10u);
  for (const auto& event : bf.events()) {
    const auto post = engine.sender_posterior(event.obs);
    ASSERT_EQ(post.size(), event.posterior.size());
    for (std::size_t i = 0; i < post.size(); ++i)
      ASSERT_NEAR(post[i], event.posterior[i], 1e-10)
          << "obs=" << event.obs.key() << " node=" << i;
  }
}

TEST(Conformance, CyclicMatchesBruteForceOnCycleFreeDistributions) {
  // With support in {0, 1} a walk cannot revisit anything, so the cyclic
  // and simple path models define the same generative process and the two
  // oracles must agree exactly — for any compromised set.
  const std::vector<path_length_distribution> dists{
      path_length_distribution::fixed(0),
      path_length_distribution::fixed(1),
      path_length_distribution::uniform(0, 1),
      path_length_distribution::two_point(0, 0.3, 1),
      path_length_distribution::two_point(0, 0.7, 1),
  };
  for (std::uint32_t n : {5u, 7u}) {
    for (const std::vector<node_id>& comp :
         std::vector<std::vector<node_id>>{{2}, {0, 3}}) {
      const system_params sys{n, static_cast<std::uint32_t>(comp.size())};
      for (const auto& d : dists) {
        const cyclic_brute_force_analyzer cyc(sys, comp, d);
        const brute_force_analyzer simple(sys, comp, d);
        EXPECT_NEAR(cyc.anonymity_degree(), simple.anonymity_degree(), 1e-12)
            << "N=" << n << " C=" << comp.size() << " " << d.label();
        EXPECT_NEAR(cyc.total_probability(), 1.0, 1e-12);
      }
    }
  }
}

// The small-graph fixture set the topology machinery is pinned on: every
// constructor family, uniform and non-uniform weights, N <= 8.
std::vector<anonpath::net::topology> oracle_graphs() {
  using anonpath::net::topology;
  std::vector<topology> graphs;
  graphs.push_back(topology::complete(7));
  graphs.push_back(topology::ring(7, 1));
  graphs.push_back(topology::ring(7, 2));
  graphs.push_back(topology::tiered(7, 3));
  graphs.push_back(topology::trust_weighted(7, 0.5));
  graphs.push_back(topology::random_regular(6, 3, 11));
  graphs.push_back(topology::trust_weighted(6, 0.5));
  graphs.push_back(topology::random_regular(8, 3, 11));
  return graphs;
}

TEST(Conformance, GraphOracleOnCliqueMatchesCyclicBruteForce) {
  // The weighted walk on the complete graph IS the paper's "complicated"
  // path model, so the graph oracle must reproduce the cyclic oracle — the
  // bridge that anchors the whole topology subsystem to the existing,
  // independently validated machinery.
  for (std::uint32_t n : {5u, 7u}) {
    const auto topo = net::topology::complete(n);
    for (const std::vector<node_id>& comp :
         std::vector<std::vector<node_id>>{{2}, {0, 3}}) {
      const system_params sys{n, static_cast<std::uint32_t>(comp.size())};
      for (const auto& d : {path_length_distribution::fixed(3),
                            path_length_distribution::uniform(0, 4),
                            path_length_distribution::geometric(0.7, 1, 4)}) {
        const net::graph_oracle walk(sys, comp, d, topo);
        const cyclic_brute_force_analyzer cyc(sys, comp, d);
        EXPECT_NEAR(walk.anonymity_degree(), cyc.anonymity_degree(), 1e-12)
            << "N=" << n << " C=" << comp.size() << " " << d.label();
        EXPECT_NEAR(walk.total_probability(), 1.0, 1e-12);
        EXPECT_EQ(walk.events().size(), cyc.events().size());
      }
    }
  }
}

TEST(Conformance, TopologyEngineMatchesGraphOracleEventByEvent) {
  // The restricted-path posterior engine against exhaustive enumeration:
  // every observation class of every fixture graph, posterior pinned
  // exactly. This is the graph-oracle conformance layer of the topology
  // subsystem.
  for (const auto& topo : oracle_graphs()) {
    const std::uint32_t n = topo.node_count();
    const std::vector<node_id> comp{1, n - 2};
    const system_params sys{n, 2};
    for (const auto& d : {path_length_distribution::uniform(0, 4),
                          path_length_distribution::fixed(3),
                          path_length_distribution::two_point(1, 0.3, 4)}) {
      const net::graph_oracle oracle(sys, comp, d, topo);
      const net::topology_posterior_engine engine(sys, comp, d, topo);
      ASSERT_GT(oracle.events().size(), 5u) << topo.config().label();
      for (const auto& event : oracle.events()) {
        const auto post = engine.sender_posterior(event.obs);
        ASSERT_EQ(post.size(), event.posterior.size());
        for (std::size_t i = 0; i < post.size(); ++i)
          ASSERT_NEAR(post[i], event.posterior[i], 1e-10)
              << topo.config().label() << " " << d.label()
              << " obs=" << event.obs.key() << " node=" << i;
      }
    }
  }
}

TEST(Conformance, MonteCarloMatchesGraphOracleOnRestrictedGraphs) {
  // The estimator's graph route source and walk-engine scorer against the
  // exhaustive graph oracle's H*, within the sampling error.
  const auto d = path_length_distribution::uniform(1, 4);
  std::vector<std::pair<std::uint32_t, net::topology_config>> graphs(3);
  graphs[0].first = 8;
  graphs[0].second.kind = net::topology_kind::ring;
  graphs[0].second.ring_k = 2;
  graphs[1].first = 8;
  graphs[1].second.kind = net::topology_kind::random_regular;
  graphs[1].second.degree = 3;
  graphs[2].first = 6;
  graphs[2].second.kind = net::topology_kind::trust_weighted;
  graphs[2].second.trust_decay = 0.5;
  for (const auto& [n, cfg] : graphs) {
    const std::vector<node_id> comp{1, n - 2};
    const system_params sys{n, 2};
    const double exact =
        net::graph_oracle(sys, comp, d, net::topology::make(n, cfg))
            .anonymity_degree();
    const auto est =
        estimate_anonymity_degree(sys, comp, d, 30000, 17, {}, cfg);
    EXPECT_NEAR(est.degree, exact, 5.0 * est.std_error) << cfg.label();
    EXPECT_GT(est.std_error, 0.0) << cfg.label();
  }
}

TEST(Conformance, TopologyEngineMatchesOracleWithHonestReceiver) {
  // receiver_observed == false (partial coverage with an honest receiver)
  // marginalizes over the open walk tail; pin that path against the oracle
  // by erasing the receiver report from each enumerated event and checking
  // the engine against the re-aggregated event space.
  for (const auto& topo : oracle_graphs()) {
    const std::uint32_t n = topo.node_count();
    const std::vector<node_id> comp{1, n - 2};
    const system_params sys{n, 2};
    const auto d = path_length_distribution::uniform(0, 4);
    const net::graph_oracle oracle(sys, comp, d, topo);
    const net::topology_posterior_engine engine(sys, comp, d, topo);

    // Group the full event space by the receiver-blind observation.
    struct blind_bucket {
      observation obs;
      std::vector<double> mass;
    };
    std::map<std::string, blind_bucket> blind;
    for (const auto& event : oracle.events()) {
      if (event.obs.origin) continue;  // origin events are unaffected
      observation obs = event.obs;
      obs.receiver_observed = false;
      obs.receiver_predecessor = 0;
      if (obs.reports.empty()) continue;  // nothing captured: never scored
      auto [it, inserted] = blind.try_emplace(obs.key());
      if (inserted) {
        it->second.obs = obs;
        it->second.mass.assign(n, 0.0);
      }
      for (node_id s = 0; s < n; ++s)
        it->second.mass[s] += event.probability * event.posterior[s];
    }
    ASSERT_GT(blind.size(), 3u) << topo.config().label();
    for (const auto& [key, bucket] : blind) {
      double total = 0.0;
      for (double m : bucket.mass) total += m;
      const auto post = engine.sender_posterior(bucket.obs);
      for (node_id s = 0; s < n; ++s)
        ASSERT_NEAR(post[s], bucket.mass[s] / total, 1e-10)
            << topo.config().label() << " obs=" << key << " node=" << s;
    }
  }
}

TEST(Conformance, TopologyCompleteRecapturesPreTopologyGoldenTrace) {
  // Acceptance pin: tests/golden/trace_v1.trace was captured by the
  // pre-topology build, so re-running its embedded config today — with
  // the complete topology and zero churn spelled out explicitly — must
  // reproduce the identical byte stream: same routing draws, same event
  // order, same ground truth, and no extension lines. Any perturbation of
  // the clique code path (an extra rng draw, a sampler change, churn
  // touching a generator) breaks this.
  const std::string path =
      std::string(ANONPATH_TEST_DATA_DIR) + "/golden/trace_v1.trace";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream buffered;
  buffered << in.rdbuf();

  std::istringstream is(buffered.str());
  sim::sim_config cfg = sim::read_trace(is).config;
  cfg.topology = net::topology_config{};  // complete, spelled out
  cfg.faults.churn = net::churn_config{};        // rate 0, spelled out

  std::ostringstream recaptured;
  sim::write_trace(sim::capture_trace(cfg), recaptured);
  EXPECT_EQ(recaptured.str(), buffered.str())
      << "complete-topology runs are no longer bit-identical to the "
         "pre-topology simulator";
}

TEST(Conformance, CyclicDivergesOnceCyclesArePossible) {
  // Guard against the previous test passing vacuously: at support {2} the
  // models genuinely differ.
  const system_params sys{6, 1};
  const auto d = path_length_distribution::fixed(2);
  EXPECT_GT(
      std::fabs(cyclic_brute_force_analyzer(sys, {1}, d).anonymity_degree() -
                brute_force_analyzer(sys, {1}, d).anonymity_degree()),
      1e-6);
}

}  // namespace
}  // namespace anonpath
