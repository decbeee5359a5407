#include "src/net/route_plan.hpp"

#include <algorithm>
#include <cfloat>
#include <cstdio>
#include <limits>

#include "src/stats/contract.hpp"

namespace anonpath::net {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Directed arc key for the Yen spur bans.
std::uint64_t arc_key(node_id u, node_id v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

struct heap_item {
  double key;  ///< tentative distance (ordered pass) or g + h (bound pass)
  node_id node;
};

/// Min-heap order with ascending-id tie-breaking: the smaller node id pops
/// first among equal keys, which pins the settle order (and thus every
/// parent choice) regardless of insertion history.
struct heap_greater {
  bool operator()(const heap_item& a, const heap_item& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.node > b.node;
  }
};

/// Node and directed-arc bans for Yen's spur searches; empty bans restrict
/// nothing.
struct search_bans {
  std::vector<char> nodes;          ///< empty, or one flag per node
  std::vector<std::uint64_t> arcs;  ///< sorted arc_key values

  [[nodiscard]] bool blocks(node_id u, node_id v) const {
    if (!nodes.empty() && nodes[v]) return true;
    return !arcs.empty() &&
           std::binary_search(arcs.begin(), arcs.end(), arc_key(u, v));
  }
};

/// Scratch shared by consecutive searches over one graph. A node's `dist`
/// and `parent` belong to the current search only when its mark is at
/// least `base`, so a search starts in O(1) instead of resetting O(n)
/// arrays — Yen runs one search per spur node over the same graph.
struct search_state {
  explicit search_state(std::uint32_t n)
      : dist(n, inf), parent(n, no_vertex), mark(n, 0) {}

  /// Starts a search: every node reads as unreached again.
  void begin() {
    if (base > std::numeric_limits<std::uint32_t>::max() - 3) {
      std::fill(mark.begin(), mark.end(), 0u);
      base = 0;
    }
    base += 2;
    pq.clear();
  }
  [[nodiscard]] bool reached(node_id v) const { return mark[v] >= base; }
  [[nodiscard]] bool settled(node_id v) const { return mark[v] == base + 1; }

  void push(node_id v, double d, node_id from, double key) {
    dist[v] = d;
    parent[v] = from;
    mark[v] = base;
    pq.push_back({key, v});
    std::push_heap(pq.begin(), pq.end(), heap_greater{});
  }
  /// Pops the next unsettled node and settles it; no_vertex once drained.
  node_id settle_next() {
    while (!pq.empty()) {
      std::pop_heap(pq.begin(), pq.end(), heap_greater{});
      const node_id u = pq.back().node;
      pq.pop_back();
      if (settled(u)) continue;  // lazy deletion
      mark[u] = base + 1;
      return u;
    }
    return no_vertex;
  }

  std::vector<double> dist;
  std::vector<node_id> parent;
  std::vector<std::uint32_t> mark;  ///< base: queued, base + 1: settled
  std::uint32_t base = 0;
  std::vector<heap_item> pq;
};

/// Goal-directed prune for the ordered pass: a relaxation reaching v at
/// cost nd is skipped when nd + to_target[v] > bound. Null = no prune.
struct goal_bound {
  const std::vector<double>* to_target = nullptr;
  double bound = inf;
};

/// Shared Dijkstra core, ordered by (dist, id). Settles nodes until the
/// heap drains or `target` settles (pass no_vertex for a full tree).
void dijkstra_core(const topology& topo, node_id source, node_id target,
                   const search_bans& bans, const goal_bound& goal,
                   search_state& st, plan_counters* counters) {
  st.begin();
  st.push(source, 0.0, no_vertex, 0.0);
  if (counters != nullptr) ++counters->dijkstra_runs;
  for (node_id u = st.settle_next(); u != no_vertex; u = st.settle_next()) {
    if (counters != nullptr) ++counters->nodes_settled;
    if (u == target) return;
    const neighbor_view a = topo.adjacency(u);
    if (counters != nullptr) counters->edges_scanned += a.size;
    for (std::uint32_t i = 0; i < a.size; ++i) {
      const node_id v = a.ids[i];
      if (st.settled(v) || bans.blocks(u, v)) continue;
      const double nd = st.dist[u] + edge_cost(a.weights[i]);
      if (goal.to_target != nullptr && nd + (*goal.to_target)[v] > goal.bound)
        continue;
      if (!st.reached(v) || nd < st.dist[v]) st.push(v, nd, u, nd);
    }
  }
}

/// Bound pass: A* ordered by g + h with h = to_target, an admissible and
/// consistent lower bound under any bans (see k_shortest_paths). Returns
/// the cost of the first source->target path it settles, or nullopt when
/// the bans cut the target off.
std::optional<double> astar_cost(const topology& topo, node_id source,
                                 node_id target, const search_bans& bans,
                                 const std::vector<double>& to_target,
                                 search_state& st, plan_counters* counters) {
  st.begin();
  st.push(source, 0.0, no_vertex, to_target[source]);
  if (counters != nullptr) ++counters->dijkstra_runs;
  for (node_id u = st.settle_next(); u != no_vertex; u = st.settle_next()) {
    if (counters != nullptr) ++counters->nodes_settled;
    if (u == target) return st.dist[u];
    const neighbor_view a = topo.adjacency(u);
    if (counters != nullptr) counters->edges_scanned += a.size;
    for (std::uint32_t i = 0; i < a.size; ++i) {
      const node_id v = a.ids[i];
      if (st.settled(v) || bans.blocks(u, v)) continue;
      const double g = st.dist[u] + edge_cost(a.weights[i]);
      if (!st.reached(v) || g < st.dist[v])
        st.push(v, g, u, g + to_target[v]);
    }
  }
  return std::nullopt;
}

/// Reads the source->t path out of the last search; nullopt if unreached.
std::optional<planned_path> extract_path(const search_state& st,
                                         node_id source, node_id t) {
  if (!st.reached(t)) return std::nullopt;
  planned_path p;
  p.cost = st.dist[t];
  for (node_id x = t; x != no_vertex; x = st.parent[x]) p.nodes.push_back(x);
  std::reverse(p.nodes.begin(), p.nodes.end());
  ANONPATH_ENSURES(!p.nodes.empty() && p.nodes.front() == source);
  return p;
}

/// The path the plain (dist, id)-ordered early-exit search from s returns,
/// found goal-directed: the bound pass yields the best cost C, then the
/// ordered pass only relaxes arcs that can still lie on a path of cost at
/// most C + slack. Every node that can lie on an optimal path passes that
/// test, so those nodes settle in the same relative order and pick the
/// same parents as in the unpruned search, and the returned path (nodes
/// and cost bits) is the same.
std::optional<planned_path> bounded_shortest_path(
    const topology& topo, node_id s, node_id t, const search_bans& bans,
    const std::vector<double>& to_target, search_state& st,
    plan_counters* counters) {
  const std::optional<double> best =
      astar_cost(topo, s, t, bans, to_target, st, counters);
  if (!best) return std::nullopt;
  // C, the forward sums d(v) and the reverse-tree sums h(v) each add at
  // most n - 1 positive edge costs, so each carries a relative rounding
  // error of at most (n - 1) * DBL_EPSILON / 2. For v on an optimal path
  // fl(d(v) + h(v)) can therefore exceed the computed C by about
  // 2 * n * DBL_EPSILON * C; a bound of exactly C prunes t itself on
  // trust-weighted graphs. Twice that first-order gap covers the
  // higher-order terms.
  const double slack =
      4.0 * static_cast<double>(topo.node_count()) * DBL_EPSILON * *best;
  dijkstra_core(topo, s, t, bans, goal_bound{&to_target, *best + slack}, st,
                counters);
  std::optional<planned_path> p = extract_path(st, s, t);
  ANONPATH_ENSURES(p.has_value());
  return p;
}

/// Candidate order inside Yen: cheapest first, ties by lexicographic node
/// sequence — fully deterministic however the candidates were generated.
bool candidate_less(const planned_path& a, const planned_path& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.nodes < b.nodes;
}

}  // namespace

shortest_path_tree dijkstra(const topology& topo, node_id source,
                            plan_counters* counters) {
  ANONPATH_EXPECTS(source < topo.node_count());
  search_state st(topo.node_count());
  dijkstra_core(topo, source, no_vertex, {}, {}, st, counters);
  shortest_path_tree tree;
  tree.source = source;
  tree.dist = std::move(st.dist);
  tree.parent = std::move(st.parent);
  return tree;
}

std::optional<planned_path> shortest_path(const topology& topo, node_id s,
                                          node_id t, plan_counters* counters) {
  ANONPATH_EXPECTS(s < topo.node_count() && t < topo.node_count() && s != t);
  search_state st(topo.node_count());
  dijkstra_core(topo, s, t, {}, {}, st, counters);
  return extract_path(st, s, t);
}

std::vector<planned_path> k_shortest_paths(const topology& topo, node_id s,
                                           node_id t, std::uint32_t k,
                                           plan_counters* counters) {
  ANONPATH_EXPECTS(s < topo.node_count() && t < topo.node_count() && s != t);
  ANONPATH_EXPECTS(k >= 1);
  std::vector<planned_path> A;
  if (k == 1) {
    // One search: a reverse tree would cost more than it saves.
    if (auto first = shortest_path(topo, s, t, counters))
      A.push_back(std::move(*first));
    return A;
  }
  // Edge weights are symmetric, so the tree from t gives h(v) = dist(v, t);
  // bans only remove nodes and arcs, so h stays a consistent lower bound
  // inside every spur search.
  const std::vector<double> to_target = dijkstra(topo, t, counters).dist;
  search_state st(topo.node_count());
  search_bans bans;
  bans.nodes.assign(topo.node_count(), 0);
  {
    auto first =
        bounded_shortest_path(topo, s, t, bans, to_target, st, counters);
    if (!first) return A;  // unreachable (only under masks/teardown)
    A.push_back(std::move(*first));
  }
  std::vector<planned_path> B;  // candidate pool, candidate_less-sorted
  while (A.size() < k) {
    // Spur off every node of the newest accepted path except the target.
    const planned_path prev = A.back();
    double root_cost = 0.0;
    for (std::size_t j = 0; j + 1 < prev.nodes.size(); ++j) {
      const node_id spur = prev.nodes[j];
      // Ban the next arc of every accepted path sharing this root prefix,
      // so the spur search must deviate here.
      bans.arcs.clear();
      for (const planned_path& p : A)
        if (p.nodes.size() > j + 1 &&
            std::equal(prev.nodes.begin(), prev.nodes.begin() + j + 1,
                       p.nodes.begin()))
          bans.arcs.push_back(arc_key(p.nodes[j], p.nodes[j + 1]));
      std::sort(bans.arcs.begin(), bans.arcs.end());
      bans.arcs.erase(std::unique(bans.arcs.begin(), bans.arcs.end()),
                      bans.arcs.end());
      // Root nodes before the spur are off limits: keeps candidates simple.
      for (std::size_t i = 0; i < j; ++i) bans.nodes[prev.nodes[i]] = 1;
      if (counters != nullptr) ++counters->yen_spur_searches;
      auto spur_path = bounded_shortest_path(topo, spur, t, bans, to_target,
                                             st, counters);
      for (std::size_t i = 0; i < j; ++i) bans.nodes[prev.nodes[i]] = 0;
      if (spur_path) {
        planned_path cand;
        cand.nodes.assign(prev.nodes.begin(),
                          prev.nodes.begin() + static_cast<std::ptrdiff_t>(j));
        cand.nodes.insert(cand.nodes.end(), spur_path->nodes.begin(),
                          spur_path->nodes.end());
        cand.cost = root_cost + spur_path->cost;
        const auto same_nodes = [&](const planned_path& p) {
          return p.nodes == cand.nodes;
        };
        if (std::none_of(A.begin(), A.end(), same_nodes) &&
            std::none_of(B.begin(), B.end(), same_nodes))
          B.insert(std::lower_bound(B.begin(), B.end(), cand, candidate_less),
                   std::move(cand));
      }
      root_cost +=
          edge_cost(topo.edge_weight(prev.nodes[j], prev.nodes[j + 1]));
    }
    if (B.empty()) break;  // the graph has no more simple s->t paths
    A.push_back(std::move(B.front()));
    B.erase(B.begin());
  }
  return A;
}

std::vector<std::uint32_t> connected_components(const topology& topo) {
  std::vector<bool> active(topo.node_count(), true);
  return connected_components(topo, active);
}

std::vector<std::uint32_t> connected_components(
    const topology& topo, const std::vector<bool>& active) {
  const std::uint32_t n = topo.node_count();
  ANONPATH_EXPECTS(active.size() == n);
  std::vector<std::uint32_t> label(n, no_vertex);
  std::vector<node_id> stack;
  std::uint32_t next = 0;
  for (node_id root = 0; root < n; ++root) {
    if (!active[root] || label[root] != no_vertex) continue;
    const std::uint32_t comp = next++;
    label[root] = comp;
    stack.assign(1, root);
    while (!stack.empty()) {
      const node_id u = stack.back();
      stack.pop_back();
      const neighbor_view a = topo.adjacency(u);
      for (std::uint32_t i = 0; i < a.size; ++i) {
        const node_id v = a.ids[i];
        if (!active[v] || label[v] != no_vertex) continue;
        label[v] = comp;
        stack.push_back(v);
      }
    }
  }
  return label;
}

std::vector<bool> kpath_support(const topology& topo, std::uint32_t k,
                                const std::vector<node_id>& sources,
                                const std::vector<node_id>& exits) {
  ANONPATH_EXPECTS(k >= 1);
  std::vector<bool> support(topo.node_count(), false);
  for (node_id s : sources) {
    ANONPATH_EXPECTS(s < topo.node_count());
    for (node_id t : exits) {
      ANONPATH_EXPECTS(t < topo.node_count());
      if (t == s) continue;
      for (const planned_path& p : k_shortest_paths(topo, s, t, k))
        for (node_id x : p.nodes) support[x] = true;
    }
  }
  return support;
}

std::string routing_config::label() const {
  if (kind == route_select::walk) return "walk";
  char buf[32];
  std::snprintf(buf, sizeof buf, "kpaths(%u)", k);
  return buf;
}

route_planner::route_planner(const topology& topo, routing_config cfg)
    : topo_(&topo), cfg_(cfg) {
  ANONPATH_EXPECTS(cfg_.valid() && cfg_.planned());
  ANONPATH_EXPECTS(topo.node_count() >= 2);
}

const std::vector<planned_path>& route_planner::plan(node_id s, node_id t) {
  ANONPATH_EXPECTS(s < topo_->node_count() && t < topo_->node_count() &&
                   s != t);
  const std::uint64_t key = (static_cast<std::uint64_t>(s) << 32) | t;
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  return cache_
      .emplace(key, k_shortest_paths(*topo_, s, t, cfg_.k, &counters_))
      .first->second;
}

route route_planner::sample_route(node_id sender, stats::rng& gen) {
  const std::uint32_t n = topo_->node_count();
  ANONPATH_EXPECTS(sender < n);
  // Exit ~ Uniform(V \ {sender}); the planner then picks among the k best
  // sender->exit paths with probability proportional to 1/cost, so cheap
  // (short / trusted) alternatives dominate without starving the rest.
  auto exit_node = static_cast<node_id>(gen.next_below(n - 1));
  if (exit_node >= sender) ++exit_node;
  const std::vector<planned_path>& paths = plan(sender, exit_node);
  ANONPATH_EXPECTS(!paths.empty());  // connected topology: always reachable
  std::size_t pick = 0;
  if (paths.size() > 1) {
    double total = 0.0;
    for (const planned_path& p : paths) total += 1.0 / p.cost;
    const double x = gen.next_double() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      acc += 1.0 / paths[i].cost;
      pick = i;
      if (x < acc) break;
    }
  }
  route r;
  r.sender = sender;
  // Hops are everything after the sender: interior relays, then the exit,
  // which forwards to R — so the realized length is the path's edge count.
  r.hops.assign(paths[pick].nodes.begin() + 1, paths[pick].nodes.end());
  return r;
}

}  // namespace anonpath::net
