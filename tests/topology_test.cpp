// Unit layer for the net::topology subsystem: constructor invariants
// (degree, symmetry, connectivity, weights), parameter validation, labels,
// the make() dispatch, walk-step sampling membership, every family's graph
// pinned by a byte hash, and the churn renewal process (determinism,
// rate-0 inertness, realized transitions).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/net/churn.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::net {
namespace {

void check_invariants(const topology& t) {
  const std::uint32_t n = t.node_count();
  const std::vector<std::uint32_t> comp = connected_components(t);
  EXPECT_EQ(*std::max_element(comp.begin(), comp.end()), 0u)
      << "not connected";
  EXPECT_GE(t.min_degree(), 1u);
  for (node_id u = 0; u < n; ++u) {
    const neighbor_view a = t.adjacency(u);
    const node_id* nbr = a.ids;
    const double* w = a.weights;
    double total = 0.0;
    double prob = 0.0;
    for (std::size_t i = 0; i < a.size; ++i) {
      EXPECT_NE(nbr[i], u) << "self-loop at " << u;
      if (i > 0) EXPECT_LT(nbr[i - 1], nbr[i]) << "unsorted adjacency";
      EXPECT_GT(w[i], 0.0);
      // Undirected: same edge, same weight, both directions.
      EXPECT_TRUE(t.has_edge(nbr[i], u));
      EXPECT_DOUBLE_EQ(t.edge_weight(nbr[i], u), w[i]);
      total += w[i];
      prob += t.transition_prob(u, nbr[i]);
    }
    EXPECT_DOUBLE_EQ(t.total_weight(u), total);
    EXPECT_NEAR(prob, 1.0, 1e-12) << "walk step not a distribution at " << u;
  }
}

TEST(Topology, CompleteHasAllEdges) {
  const auto t = topology::complete(8);
  check_invariants(t);
  EXPECT_EQ(t.min_degree(), 7u);
  EXPECT_EQ(t.max_degree(), 7u);
  EXPECT_TRUE(t.is_complete());
  for (node_id u = 0; u < 8; ++u)
    for (node_id v = 0; v < 8; ++v)
      EXPECT_EQ(t.has_edge(u, v), u != v);
}

TEST(Topology, RingDegreeAndLocality) {
  const auto t = topology::ring(10, 2);
  check_invariants(t);
  EXPECT_EQ(t.min_degree(), 4u);
  EXPECT_EQ(t.max_degree(), 4u);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_TRUE(t.has_edge(0, 2));
  EXPECT_TRUE(t.has_edge(0, 9));
  EXPECT_TRUE(t.has_edge(0, 8));
  EXPECT_FALSE(t.has_edge(0, 3));
  EXPECT_FALSE(t.has_edge(0, 5));
}

TEST(Topology, RandomRegularIsRegularAndSeedDeterministic) {
  const auto a = topology::random_regular(20, 4, 7);
  const auto b = topology::random_regular(20, 4, 7);
  check_invariants(a);
  EXPECT_EQ(a.min_degree(), 4u);
  EXPECT_EQ(a.max_degree(), 4u);
  const auto ids = [](const topology& t, node_id u) {
    const neighbor_view v = t.adjacency(u);
    return std::vector<node_id>(v.ids, v.ids + v.size);
  };
  for (node_id u = 0; u < 20; ++u)
    EXPECT_EQ(ids(a, u), ids(b, u)) << "same seed, same graph";
  // Another seed almost surely wires differently somewhere.
  const auto c = topology::random_regular(20, 4, 8);
  bool differs = false;
  for (node_id u = 0; u < 20; ++u)
    if (ids(a, u) != ids(c, u)) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Topology, TieredLinksOnlyAdjacentTiers) {
  const auto t = topology::tiered(9, 3);  // tiers {0,1,2} x 3 nodes
  check_invariants(t);
  const auto tier = [](node_id u) { return u / 3; };
  for (node_id u = 0; u < 9; ++u)
    for (node_id v = 0; v < 9; ++v) {
      if (u == v) continue;
      const bool adjacent_tier =
          tier(u) + 1 == tier(v) || tier(v) + 1 == tier(u);
      EXPECT_EQ(t.has_edge(u, v), adjacent_tier) << u << "~" << v;
    }
}

TEST(Topology, TrustWeightsDecayWithRingDistance) {
  const auto t = topology::trust_weighted(10, 0.5);
  check_invariants(t);
  EXPECT_EQ(t.min_degree(), 9u);  // complete adjacency, weighted
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 3), 0.25);
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 5), 0.0625);  // distance 5
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 9), 1.0);     // wraps: distance 1
  EXPECT_DOUBLE_EQ(t.edge_weight(0, 8), 0.5);
}

TEST(Topology, TrustDecayOneIsTheUniformClique) {
  const auto t = topology::trust_weighted(8, 1.0);
  for (node_id u = 0; u < 8; ++u)
    for (node_id v = 0; v < 8; ++v)
      if (u != v) EXPECT_DOUBLE_EQ(t.transition_prob(u, v), 1.0 / 7.0);
}

TEST(Topology, ConfigValidation) {
  topology_config cfg;
  EXPECT_TRUE(cfg.valid_for(2));
  EXPECT_FALSE(cfg.valid_for(1));

  cfg.kind = topology_kind::ring;
  cfg.ring_k = 0;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.ring_k = 4;
  EXPECT_TRUE(cfg.valid_for(10));  // 2k = 9 - 1
  cfg.ring_k = 5;
  EXPECT_FALSE(cfg.valid_for(10));  // 2k > n - 1

  cfg = topology_config{};
  cfg.kind = topology_kind::random_regular;
  cfg.degree = 1;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.degree = 3;
  EXPECT_TRUE(cfg.valid_for(10));   // n*d even
  EXPECT_FALSE(cfg.valid_for(9));   // n*d odd
  cfg.degree = 10;
  EXPECT_FALSE(cfg.valid_for(10));  // d >= n

  cfg = topology_config{};
  cfg.kind = topology_kind::tiered;
  cfg.tiers = 1;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.tiers = 3;
  EXPECT_TRUE(cfg.valid_for(10));
  EXPECT_FALSE(cfg.valid_for(2));  // tiers > n

  cfg = topology_config{};
  cfg.kind = topology_kind::trust_weighted;
  cfg.trust_decay = 0.0;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.trust_decay = 1.5;
  EXPECT_FALSE(cfg.valid_for(10));
  cfg.trust_decay = 0.3;
  EXPECT_TRUE(cfg.valid_for(10));
}

TEST(Topology, MakeRejectsInvalidConfigLoudly) {
  topology_config cfg;
  cfg.kind = topology_kind::ring;
  cfg.ring_k = 20;
  EXPECT_THROW((void)topology::make(10, cfg), contract_violation);
}

TEST(Topology, MakeDispatchesEveryKind) {
  for (const topology_kind kind :
       {topology_kind::complete, topology_kind::ring,
        topology_kind::random_regular, topology_kind::tiered,
        topology_kind::trust_weighted}) {
    topology_config cfg;
    cfg.kind = kind;
    cfg.ring_k = 2;
    cfg.degree = 4;
    cfg.tiers = 3;
    cfg.trust_decay = 0.5;
    const auto t = topology::make(12, cfg);
    EXPECT_EQ(t.config().kind, kind);
    EXPECT_EQ(t.node_count(), 12u);
    check_invariants(t);
  }
}

TEST(Topology, Labels) {
  EXPECT_EQ(topology_config{}.label(), "complete");
  topology_config cfg;
  cfg.kind = topology_kind::ring;
  cfg.ring_k = 2;
  EXPECT_EQ(cfg.label(), "ring(2)");
  cfg.kind = topology_kind::random_regular;
  cfg.degree = 4;
  cfg.graph_seed = 7;
  EXPECT_EQ(cfg.label(), "regular(4@7)");
  cfg.kind = topology_kind::tiered;
  cfg.tiers = 3;
  EXPECT_EQ(cfg.label(), "tiered(3)");
  cfg.kind = topology_kind::trust_weighted;
  cfg.trust_decay = 0.25;
  EXPECT_EQ(cfg.label(), "trust(0.25)");
}

TEST(Topology, SampleNeighborStaysOnEdges) {
  stats::rng gen(3);
  for (const auto& t : {topology::ring(12, 2), topology::tiered(12, 3),
                        topology::trust_weighted(12, 0.4)}) {
    for (int i = 0; i < 500; ++i) {
      const node_id u = static_cast<node_id>(gen.next_below(12));
      const node_id v = t.sample_neighbor(u, gen);
      EXPECT_TRUE(t.has_edge(u, v));
    }
  }
}

/// FNV-1a over every byte a topology shows of one graph: the edge count;
/// per node the degree, neighbour ids, weight bits, cumulative-weight bits,
/// total-weight bits and four seeded walk draws.
std::uint64_t graph_hash(const topology& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto put = [&h](const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  const std::uint64_t edges = t.edge_count();
  put(&edges, sizeof edges);
  for (node_id u = 0; u < t.node_count(); ++u) {
    const neighbor_view a = t.adjacency(u);
    put(&a.size, sizeof a.size);
    put(a.ids, a.size * sizeof(node_id));
    put(a.weights, a.size * sizeof(double));
    put(a.cum, a.size * sizeof(double));
    const double total = t.total_weight(u);
    put(&total, sizeof total);
    stats::rng gen(1000 + u);
    for (int draw = 0; draw < 4; ++draw) {
      const node_id v = t.sample_neighbor(u, gen);
      put(&v, sizeof v);
    }
  }
  return h;
}

TEST(Topology, EveryFamilyBuildsThePinnedAdjacency) {
  // Each family's graph, byte for byte, as the generators and the CSR
  // build wired it when these hashes were taken. A change to either that
  // moves one id, weight bit or walk draw fails here.
  struct pinned {
    std::uint32_t n;
    topology_kind kind;
    std::uint32_t param;  ///< ring k, tiers or degree
    std::uint64_t seed;   ///< random_regular only
    std::uint64_t hash;
  };
  using enum topology_kind;
  const pinned cases[] = {
      {7, complete, 0, 0, 0xe3b8c1a9c00bad08ull},
      {7, ring, 2, 0, 0x775dc1ff179bb916ull},
      {7, tiered, 3, 0, 0x6a48fde0cdc06ce1ull},
      {7, trust_weighted, 0, 0, 0x2270c6672b1809adull},
      {7, random_regular, 2, 9, 0xd4a29c031771c9a6ull},
      {7, random_regular, 4, 9, 0xbf51e10f74525922ull},
      {24, complete, 0, 0, 0x164fa747368c1751ull},
      {24, ring, 2, 0, 0xeb7f57ad032b9683ull},
      {24, tiered, 3, 0, 0xf5b95dd753066861ull},
      {24, trust_weighted, 0, 0, 0xf7da09878fee7142ull},
      {24, random_regular, 2, 9, 0xeddfc08739d2ae35ull},
      {24, random_regular, 3, 9, 0xc965eb937091fb19ull},
      {24, random_regular, 4, 9, 0x130983895a0b3cafull},
      {101, complete, 0, 0, 0xfcd9077ceeaef64cull},
      {101, ring, 2, 0, 0xe2ee14c474cd65cbull},
      {101, tiered, 3, 0, 0xf9fe54e88d10df81ull},
      {101, trust_weighted, 0, 0, 0xd320db4437893f94ull},
      {101, random_regular, 2, 9, 0x5c7ea6f6e2dcaefdull},
      {101, random_regular, 4, 9, 0xf6310f2550eb9c2aull},
      {5000, random_regular, 4, 3, 0x0a864b8b58e025bcull},
  };
  for (const pinned& c : cases) {
    topology_config cfg;
    cfg.kind = c.kind;
    if (c.kind == ring) cfg.ring_k = c.param;
    if (c.kind == tiered) cfg.tiers = c.param;
    if (c.kind == trust_weighted) cfg.trust_decay = 0.6;
    if (c.kind == random_regular) {
      cfg.degree = c.param;
      cfg.graph_seed = c.seed;
    }
    EXPECT_EQ(graph_hash(topology::make(c.n, cfg)), c.hash)
        << cfg.label() << " N=" << c.n;
    EXPECT_EQ(graph_hash(topology::make_csr(c.n, cfg)), c.hash)
        << cfg.label() << " N=" << c.n << " (make_csr)";
  }
}

TEST(Churn, RateZeroIsInertAndDrawsNothing) {
  churn_model churn(50, churn_config{}, 42);
  EXPECT_FALSE(churn.enabled());
  for (double t : {0.0, 5.0, 1e6}) EXPECT_TRUE(churn.is_up(7, t));
  EXPECT_EQ(churn.transitions(), 0u);
}

TEST(Churn, SameSeedSameSchedule) {
  const churn_config cfg{2.0, 0.3};
  churn_model a(20, cfg, 9);
  churn_model b(20, cfg, 9);
  for (int i = 0; i <= 200; ++i) {
    const double t = 0.05 * i;
    for (node_id v = 0; v < 20; ++v) EXPECT_EQ(a.is_up(v, t), b.is_up(v, t));
  }
  EXPECT_EQ(a.transitions(), b.transitions());
  EXPECT_GT(a.transitions(), 0u);  // rate 2/s over 10s across 20 nodes
}

TEST(Churn, QueryOrderAcrossNodesDoesNotMatter) {
  const churn_config cfg{1.0, 0.5};
  churn_model fwd(5, cfg, 4);
  churn_model rev(5, cfg, 4);
  std::vector<std::vector<bool>> seen_fwd, seen_rev;
  for (int i = 0; i <= 100; ++i) {
    const double t = 0.1 * i;
    std::vector<bool> f, r;
    for (node_id v = 0; v < 5; ++v) f.push_back(fwd.is_up(v, t));
    for (node_id v = 5; v-- > 0;) r.push_back(rev.is_up(v, t));
    seen_fwd.push_back(f);
    for (std::size_t k = 0; k < r.size(); ++k)
      EXPECT_EQ(r[r.size() - 1 - k], f[k]) << "node " << k << " t=" << t;
  }
}

TEST(Churn, NodesGoDownAndComeBack) {
  churn_model churn(1, churn_config{5.0, 0.2}, 1);
  bool saw_down = false;
  bool recovered = false;
  bool was_down = false;
  for (int i = 0; i <= 2000; ++i) {
    const bool up = churn.is_up(0, 0.01 * i);
    if (!up) saw_down = was_down = true;
    if (up && was_down) recovered = true;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(recovered);
}

}  // namespace
}  // namespace anonpath::net
