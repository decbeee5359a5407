// Conformance layer for src/net/route_plan: Dijkstra distances and Yen's
// k-shortest-paths pinned against exhaustive simple-path enumeration on
// N <= 8 fixtures, the goal-directed Yen pinned bit for bit to a plain
// masked-Dijkstra reference Yen, connected components, Dijkstra on a
// 50k-node graph, and the route_planner's selection model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <vector>

#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::net {
namespace {

std::vector<topology> fixture_graphs() {
  std::vector<topology> graphs;
  graphs.push_back(topology::complete(6));
  graphs.push_back(topology::ring(8, 1));
  graphs.push_back(topology::ring(7, 2));
  graphs.push_back(topology::tiered(7, 3));
  graphs.push_back(topology::trust_weighted(6, 0.5));
  graphs.push_back(topology::random_regular(8, 3, 11));
  return graphs;
}

/// Every simple s->t path in the graph, by DFS. Exponential, which is
/// exactly why it only runs on the N <= 8 fixtures.
void enumerate_paths(const topology& topo, node_id t,
                     std::vector<node_id>& stack, std::vector<bool>& used,
                     std::vector<planned_path>& out) {
  const node_id u = stack.back();
  if (u == t) {
    double cost = 0.0;
    for (std::size_t i = 0; i + 1 < stack.size(); ++i)
      cost += edge_cost(topo.edge_weight(stack[i], stack[i + 1]));
    out.push_back(planned_path{stack, cost});
    return;
  }
  const neighbor_view nbr = topo.adjacency(u);
  for (std::uint32_t i = 0; i < nbr.size; ++i) {
    const node_id v = nbr.ids[i];
    if (used[v]) continue;
    used[v] = true;
    stack.push_back(v);
    enumerate_paths(topo, t, stack, used, out);
    stack.pop_back();
    used[v] = false;
  }
}

std::vector<planned_path> all_simple_paths(const topology& topo, node_id s,
                                           node_id t) {
  std::vector<planned_path> out;
  std::vector<node_id> stack{s};
  std::vector<bool> used(topo.node_count(), false);
  used[s] = true;
  enumerate_paths(topo, t, stack, used, out);
  std::sort(out.begin(), out.end(),
            [](const planned_path& a, const planned_path& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.nodes < b.nodes;
            });
  return out;
}

void check_path_valid(const topology& topo, const planned_path& p, node_id s,
                      node_id t) {
  ASSERT_GE(p.nodes.size(), 2u);
  EXPECT_EQ(p.nodes.front(), s);
  EXPECT_EQ(p.nodes.back(), t);
  std::vector<bool> seen(topo.node_count(), false);
  double cost = 0.0;
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    ASSERT_FALSE(seen[p.nodes[i]]) << "loop in planned path";
    seen[p.nodes[i]] = true;
    if (i + 1 < p.nodes.size()) {
      ASSERT_TRUE(topo.has_edge(p.nodes[i], p.nodes[i + 1]))
          << p.nodes[i] << "->" << p.nodes[i + 1] << " is not an edge";
      cost += edge_cost(topo.edge_weight(p.nodes[i], p.nodes[i + 1]));
    }
  }
  EXPECT_NEAR(p.cost, cost, 1e-12);
}

/// Reference Yen: every search is a plain (dist, id)-ordered early-exit
/// Dijkstra under the spur bans, with no goal direction. The library's
/// k_shortest_paths must reproduce it bit for bit.
std::optional<planned_path> reference_masked_path(
    const topology& topo, node_id s, node_id t,
    const std::vector<char>& banned_nodes,
    const std::vector<std::uint64_t>& banned_arcs) {
  struct item {
    double dist;
    node_id node;
  };
  const auto greater = [](const item& a, const item& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.node > b.node;
  };
  const std::uint32_t n = topo.node_count();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<node_id> parent(n, no_vertex);
  std::vector<char> settled(n, 0);
  std::priority_queue<item, std::vector<item>, decltype(greater)> pq(greater);
  dist[s] = 0.0;
  pq.push({0.0, s});
  while (!pq.empty()) {
    const item top = pq.top();
    pq.pop();
    if (settled[top.node]) continue;
    settled[top.node] = 1;
    if (top.node == t) break;
    const neighbor_view a = topo.adjacency(top.node);
    for (std::uint32_t i = 0; i < a.size; ++i) {
      const node_id v = a.ids[i];
      const std::uint64_t arc = (std::uint64_t{top.node} << 32) | v;
      if (settled[v] || banned_nodes[v] ||
          std::binary_search(banned_arcs.begin(), banned_arcs.end(), arc))
        continue;
      const double nd = top.dist + edge_cost(a.weights[i]);
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = top.node;
        pq.push({nd, v});
      }
    }
  }
  if (!settled[t]) return std::nullopt;
  planned_path p;
  p.cost = dist[t];
  for (node_id x = t; x != no_vertex; x = parent[x]) p.nodes.push_back(x);
  std::reverse(p.nodes.begin(), p.nodes.end());
  return p;
}

std::vector<planned_path> reference_yen(const topology& topo, node_id s,
                                        node_id t, std::uint32_t k,
                                        std::uint64_t& spur_searches) {
  const auto less = [](const planned_path& a, const planned_path& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;
  };
  std::vector<char> banned_nodes(topo.node_count(), 0);
  std::vector<planned_path> A;
  if (auto first = reference_masked_path(topo, s, t, banned_nodes, {}))
    A.push_back(std::move(*first));
  else
    return A;
  std::vector<planned_path> B;
  while (A.size() < k) {
    const planned_path prev = A.back();
    double root_cost = 0.0;
    for (std::size_t j = 0; j + 1 < prev.nodes.size(); ++j) {
      std::vector<std::uint64_t> banned_arcs;
      for (const planned_path& p : A)
        if (p.nodes.size() > j + 1 &&
            std::equal(prev.nodes.begin(), prev.nodes.begin() + j + 1,
                       p.nodes.begin()))
          banned_arcs.push_back((std::uint64_t{p.nodes[j]} << 32) |
                                p.nodes[j + 1]);
      std::sort(banned_arcs.begin(), banned_arcs.end());
      for (std::size_t i = 0; i < j; ++i) banned_nodes[prev.nodes[i]] = 1;
      ++spur_searches;
      auto spur = reference_masked_path(topo, prev.nodes[j], t, banned_nodes,
                                        banned_arcs);
      for (std::size_t i = 0; i < j; ++i) banned_nodes[prev.nodes[i]] = 0;
      if (spur) {
        planned_path cand;
        cand.nodes.assign(prev.nodes.begin(),
                          prev.nodes.begin() + static_cast<std::ptrdiff_t>(j));
        cand.nodes.insert(cand.nodes.end(), spur->nodes.begin(),
                          spur->nodes.end());
        cand.cost = root_cost + spur->cost;
        const auto same = [&](const planned_path& p) {
          return p.nodes == cand.nodes;
        };
        if (std::none_of(A.begin(), A.end(), same) &&
            std::none_of(B.begin(), B.end(), same))
          B.insert(std::lower_bound(B.begin(), B.end(), cand, less),
                   std::move(cand));
      }
      root_cost +=
          edge_cost(topo.edge_weight(prev.nodes[j], prev.nodes[j + 1]));
    }
    if (B.empty()) break;
    A.push_back(std::move(B.front()));
    B.erase(B.begin());
  }
  return A;
}

/// k_shortest_paths vs reference_yen on one query: the same node
/// sequences, the same cost bits, the same number of spur searches.
void expect_reference_yen(const topology& topo, node_id s, node_id t,
                          std::uint32_t k) {
  std::uint64_t want_spurs = 0;
  const auto want = reference_yen(topo, s, t, k, want_spurs);
  plan_counters counters;
  const auto got = k_shortest_paths(topo, s, t, k, &counters);
  const std::string where = topo.config().label() + " " +
                            std::to_string(s) + "->" + std::to_string(t) +
                            " k=" + std::to_string(k);
  EXPECT_EQ(counters.yen_spur_searches, want_spurs) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].nodes, want[i].nodes) << where << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].cost, &want[i].cost, sizeof(double)), 0)
        << where << " rank " << i << ": " << got[i].cost << " vs "
        << want[i].cost;
  }
}

constexpr std::uint32_t reference_ks[] = {1, 2, 3, 5, 8, 16, 64};

TEST(RoutePlan, DijkstraMatchesBruteForceDistances) {
  for (const auto& topo : fixture_graphs()) {
    const std::uint32_t n = topo.node_count();
    for (node_id s = 0; s < n; ++s) {
      const shortest_path_tree tree = dijkstra(topo, s);
      ASSERT_EQ(tree.source, s);
      ASSERT_EQ(tree.dist.size(), n);
      ASSERT_EQ(tree.parent.size(), n);
      EXPECT_EQ(tree.dist[s], 0.0);
      EXPECT_EQ(tree.parent[s], no_vertex);
      for (node_id t = 0; t < n; ++t) {
        if (t == s) continue;
        const auto paths = all_simple_paths(topo, s, t);
        ASSERT_FALSE(paths.empty()) << "fixtures are connected";
        EXPECT_NEAR(tree.dist[t], paths.front().cost, 1e-12)
            << topo.config().label() << " " << s << "->" << t;
        // The parent chain is itself a path of exactly that cost.
        double chain_cost = 0.0;
        for (node_id v = t; v != s; v = tree.parent[v]) {
          ASSERT_NE(tree.parent[v], no_vertex);
          chain_cost += edge_cost(topo.edge_weight(tree.parent[v], v));
        }
        EXPECT_NEAR(chain_cost, tree.dist[t], 1e-12);
      }
    }
  }
}

TEST(RoutePlan, ShortestPathMatchesTree) {
  for (const auto& topo : fixture_graphs()) {
    const std::uint32_t n = topo.node_count();
    const shortest_path_tree tree = dijkstra(topo, 0);
    for (node_id t = 1; t < n; ++t) {
      const auto p = shortest_path(topo, 0, t);
      ASSERT_TRUE(p.has_value());
      check_path_valid(topo, *p, 0, t);
      EXPECT_NEAR(p->cost, tree.dist[t], 1e-12);
    }
  }
}

TEST(RoutePlan, YenMatchesBruteForceEnumeration) {
  // Exhaustive pin: for every (s, t) pair of every fixture and k in
  // {1, 3, 5}, Yen's result must be valid loopless paths, distinct,
  // best-first, and its cost sequence must equal the first k costs of the
  // fully enumerated, (cost, lexicographic) sorted simple-path list. Cost
  // ties between distinct equal-cost paths may legally resolve in either
  // order, so the sequences are compared by cost, not node identity.
  for (const auto& topo : fixture_graphs()) {
    const std::uint32_t n = topo.node_count();
    for (node_id s = 0; s < n; ++s) {
      for (node_id t = 0; t < n; ++t) {
        if (t == s) continue;
        const auto all = all_simple_paths(topo, s, t);
        for (std::uint32_t k : {1u, 3u, 5u}) {
          const auto got = k_shortest_paths(topo, s, t, k);
          const std::size_t want = std::min<std::size_t>(k, all.size());
          ASSERT_EQ(got.size(), want)
              << topo.config().label() << " " << s << "->" << t << " k=" << k;
          for (std::size_t i = 0; i < got.size(); ++i) {
            check_path_valid(topo, got[i], s, t);
            EXPECT_NEAR(got[i].cost, all[i].cost, 1e-12)
                << topo.config().label() << " " << s << "->" << t
                << " rank " << i;
            if (i > 0) {
              EXPECT_GE(got[i].cost, got[i - 1].cost - 1e-12);
              EXPECT_NE(got[i].nodes, got[i - 1].nodes);
            }
            // Every returned path must exist in the enumeration.
            EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                                    [&](const planned_path& p) {
                                      return p.nodes == got[i].nodes;
                                    }));
          }
          // Distinct across the whole result, not just neighbors.
          for (std::size_t i = 0; i < got.size(); ++i)
            for (std::size_t j = i + 1; j < got.size(); ++j)
              EXPECT_NE(got[i].nodes, got[j].nodes);
        }
      }
    }
  }
}

TEST(RoutePlan, YenMatchesReferenceOnFixtures) {
  // Every pair of every fixture, including ring(8, 1) at k = 64, where the
  // bans exhaust the two simple paths long before k.
  for (const auto& topo : fixture_graphs())
    for (node_id s = 0; s < topo.node_count(); ++s)
      for (node_id t = 0; t < topo.node_count(); ++t)
        if (s != t)
          for (std::uint32_t k : reference_ks)
            expect_reference_yen(topo, s, t, k);
}

TEST(RoutePlan, YenMatchesReferenceOnTrustWeightedGraphs) {
  // Non-integer costs: the goal-directed bound must absorb the rounding
  // gap between forward sums and reverse-tree sums.
  for (double decay : {0.3, 0.45, 0.6, 0.75, 0.9}) {
    const auto topo = topology::trust_weighted(13, decay);
    for (node_id s : {0u, 4u})
      for (node_id t = 0; t < topo.node_count(); ++t)
        if (s != t)
          for (std::uint32_t k : reference_ks)
            expect_reference_yen(topo, s, t, k);
  }
}

TEST(RoutePlan, YenMatchesReferenceInBothStorageModes) {
  std::vector<topology_config> configs;
  {
    topology_config c;
    c.kind = topology_kind::tiered;
    c.tiers = 5;
    configs.push_back(c);
  }
  {
    topology_config c;
    c.kind = topology_kind::ring;
    c.ring_k = 2;
    configs.push_back(c);
  }
  for (std::uint64_t seed : {3u, 8u}) {
    topology_config c;
    c.kind = topology_kind::random_regular;
    c.degree = 4;
    c.graph_seed = seed;
    configs.push_back(c);
  }
  const std::uint32_t n = 40;
  for (const auto& cfg : configs) {
    const topology topo = topology::make(n, cfg);
    stats::rng gen(cfg.graph_seed + 1);
    for (int pair = 0; pair < 6; ++pair) {
      const auto s = static_cast<node_id>(gen.next_below(n));
      auto t = static_cast<node_id>(gen.next_below(n - 1));
      if (t >= s) ++t;
      for (std::uint32_t k : reference_ks) expect_reference_yen(topo, s, t, k);
    }
  }
}

TEST(RoutePlan, YenIsDeterministic) {
  const auto topo = topology::random_regular(8, 3, 5);
  const auto a = k_shortest_paths(topo, 0, 5, 6);
  const auto b = k_shortest_paths(topo, 0, 5, 6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(RoutePlan, ConnectedComponentsWholeGraphIsOne) {
  for (const auto& topo : fixture_graphs()) {
    const auto comp = connected_components(topo);
    ASSERT_EQ(comp.size(), topo.node_count());
    for (std::uint32_t label : comp) EXPECT_EQ(label, 0u);
  }
}

TEST(RoutePlan, RoutingConfigValidityAndLabels) {
  routing_config walk;
  EXPECT_FALSE(walk.planned());
  EXPECT_TRUE(walk.valid());
  EXPECT_EQ(walk.label(), "walk");
  routing_config kp;
  kp.kind = route_select::kpaths;
  kp.k = 4;
  EXPECT_TRUE(kp.planned());
  EXPECT_TRUE(kp.valid());
  EXPECT_EQ(kp.label(), "kpaths(4)");
  kp.k = 0;
  EXPECT_FALSE(kp.valid());
  kp.k = 65;
  EXPECT_FALSE(kp.valid());
  kp.k = 64;
  EXPECT_TRUE(kp.valid());
}

TEST(RoutePlan, PlannerRoutesAreValidAndDeterministic) {
  const auto topo = topology::random_regular(12, 4, 3);
  routing_config cfg;
  cfg.kind = route_select::kpaths;
  cfg.k = 3;
  route_planner pa(topo, cfg), pb(topo, cfg);
  stats::rng ga = stats::rng::stream(99, 1), gb = stats::rng::stream(99, 1);
  for (int i = 0; i < 200; ++i) {
    const node_id sender = static_cast<node_id>(i % 12);
    const route ra = pa.sample_route(sender, ga);
    const route rb = pb.sample_route(sender, gb);
    EXPECT_EQ(ra.sender, sender);
    EXPECT_EQ(ra.hops, rb.hops) << "same stream, same route";
    // Planned paths are loopless: 1 <= hops <= N - 1, the exit differs
    // from the sender, and each hop follows a graph edge.
    ASSERT_GE(ra.hops.size(), 1u);
    ASSERT_LE(ra.hops.size(), 11u);
    EXPECT_NE(ra.hops.back(), sender);
    node_id prev = sender;
    std::vector<bool> seen(12, false);
    seen[sender] = true;
    for (node_id h : ra.hops) {
      EXPECT_TRUE(topo.has_edge(prev, h));
      EXPECT_FALSE(seen[h]) << "planned route revisits " << h;
      seen[h] = true;
      prev = h;
    }
  }
  EXPECT_GT(pa.planned_pairs(), 0u);
  EXPECT_LE(pa.planned_pairs(), 12u * 11u);
}

TEST(RoutePlan, PlannerExitLawCoversAllTargets) {
  // exit ~ Uniform(V \ {sender}): over many draws from one sender, every
  // other node must appear as the terminal hop.
  const auto topo = topology::ring(6, 2);
  routing_config cfg;
  cfg.kind = route_select::kpaths;
  cfg.k = 2;
  route_planner planner(topo, cfg);
  stats::rng gen(7);
  std::vector<bool> exit_seen(6, false);
  for (int i = 0; i < 400; ++i) {
    const route r = planner.sample_route(0, gen);
    exit_seen[r.hops.back()] = true;
  }
  EXPECT_FALSE(exit_seen[0]);
  for (node_id v = 1; v < 6; ++v)
    EXPECT_TRUE(exit_seen[v]) << "exit " << v << " never drawn";
}

TEST(RoutePlan, DijkstraOnCsrAtModerateScale) {
  // A fast stand-in for the CI million-node smoke: 50k-node sparse
  // graph, full Dijkstra, everything reachable.
  topology_config cfg;
  cfg.kind = topology_kind::random_regular;
  cfg.degree = 4;
  cfg.graph_seed = 17;
  const auto topo = topology::make(50000, cfg);
  EXPECT_EQ(topo.edge_count(), 100000u);
  const auto tree = dijkstra(topo, 12345);
  std::uint64_t reachable = 0;
  for (double d : tree.dist)
    if (d < std::numeric_limits<double>::infinity()) ++reachable;
  EXPECT_EQ(reachable, 50000u);
}

}  // namespace
}  // namespace anonpath::net
