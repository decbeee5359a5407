#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/anonymity/types.hpp"
#include "src/net/topology.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::net {

/// Sentinel for "no vertex" in parent arrays and component labels.
inline constexpr node_id no_vertex = 0xFFFFFFFFu;

/// Traversal cost of an edge: the reciprocal of its trust weight, so
/// heavier (more trusted) links are cheaper and uniform-weight graphs cost
/// exactly the hop count. Strictly positive for every valid edge.
[[nodiscard]] inline double edge_cost(double weight) noexcept {
  return 1.0 / weight;
}

/// One planned source->target path: every node on it, endpoints included,
/// plus its total edge cost. Yen paths are loopless (simple), so
/// `nodes.size() - 1 <= N - 1` edges.
struct planned_path {
  std::vector<node_id> nodes;
  double cost = 0.0;

  friend bool operator==(const planned_path&, const planned_path&) = default;
};

/// Full single-source shortest-path tree. `dist` is +infinity and `parent`
/// is `no_vertex` for unreachable nodes (none exist on a connected
/// topology); the source's parent is `no_vertex` too.
struct shortest_path_tree {
  node_id source = 0;
  std::vector<double> dist;
  std::vector<node_id> parent;
};

/// Work counters for the planning algorithms, for the obs metrics layer.
/// Pure functions of the graph and the query sequence (the algorithms are
/// deterministic), so they are stable metrics — identical across runs,
/// thread counts, and platforms. Passing nullptr (the default everywhere)
/// skips all accounting.
struct plan_counters {
  /// Searches started: full trees, early-exit searches, and inside Yen at
  /// k >= 2 the reverse tree plus each point-to-point search's bound
  /// (A*) and ordered passes.
  std::uint64_t dijkstra_runs = 0;
  std::uint64_t nodes_settled = 0;   ///< heap pops that settled a node
  std::uint64_t edges_scanned = 0;   ///< adjacency entries examined
  std::uint64_t yen_spur_searches = 0;  ///< masked searches inside Yen
};

/// Binary-heap Dijkstra over the whole graph. Deterministic: equal
/// tentative distances pop in ascending node-id order, so the tree (and
/// every path read out of it) is a pure function of the graph; this is
/// the million-node workhorse.
/// O((V + E) log V). Precondition: source < node_count.
[[nodiscard]] shortest_path_tree dijkstra(const topology& topo,
                                          node_id source,
                                          plan_counters* counters = nullptr);

/// Point-to-point shortest path with early exit once the target settles.
/// nullopt only when the target is unreachable (never on a full topology;
/// Yen's banned spur searches do hit it). Preconditions: s, t <
/// node_count and s != t.
[[nodiscard]] std::optional<planned_path> shortest_path(
    const topology& topo, node_id s, node_id t,
    plan_counters* counters = nullptr);

/// Yen's k shortest loopless paths, best first. Deterministic: candidates
/// order by (cost, lexicographic node sequence). Returns fewer than k
/// entries when the graph has fewer simple s->t paths. Preconditions:
/// s, t < node_count, s != t, k >= 1.
///
/// Cost model. k == 1 is one early-exit Dijkstra. For k >= 2 the call
/// first builds one full reverse tree h(v) = dist(v, t), O((V + E) log V),
/// then runs one search for the first path and one per spur node of each
/// accepted path (at most k * (longest path) spur searches). Each search
/// is goal-directed: an A* pass ordered by g + h finds the best cost C
/// under the spur bans, then the plain (dist, id)-ordered Dijkstra reruns
/// skipping every relaxation whose g + h exceeds C by more than a rounding
/// slack, so it settles only nodes near an optimal path instead of most of
/// the graph. The result is bit-identical to unbounded spur searches.
/// This relies on the topology's symmetric edge costs (one weight per
/// undirected edge), which make the tree from t a tree of distances *to*
/// t; bans only remove nodes and arcs, so h stays a consistent lower
/// bound in every spur search.
[[nodiscard]] std::vector<planned_path> k_shortest_paths(
    const topology& topo, node_id s, node_id t, std::uint32_t k,
    plan_counters* counters = nullptr);

/// Connected-component labels, 0-based in first-discovery order (node 0's
/// component is 0). A whole topology is one component by construction.
[[nodiscard]] std::vector<std::uint32_t> connected_components(
    const topology& topo);

/// Route-selection model for source-routed traffic over a topology.
///   * walk   — the historical weighted random walk (default; byte-
///              identical to every release before route planning existed)
///   * kpaths — the sender plans the k shortest loopless paths to a
///              uniformly drawn exit node and picks one with probability
///              proportional to 1/cost; the exit delivers to R
enum class route_select : std::uint8_t { walk, kpaths };

struct routing_config {
  route_select kind = route_select::walk;
  std::uint32_t k = 4;  ///< kpaths: planned alternatives per pair, in [1, 64]

  /// True when routes come from the planner rather than the walk.
  [[nodiscard]] bool planned() const noexcept {
    return kind == route_select::kpaths;
  }

  /// k in [1, 64]; the cap bounds Yen's work per pair (and what a hostile
  /// trace can demand).
  [[nodiscard]] bool valid() const noexcept { return k >= 1 && k <= 64; }

  /// "walk" or "kpaths(4)"; deterministic, used in CSV cells and traces.
  [[nodiscard]] std::string label() const;

  friend bool operator==(const routing_config&,
                         const routing_config&) = default;
};

/// Stateful planner: Yen results cached per (source, exit) pair, route
/// draws layered on top. The selection rule is the anonymity-relevant
/// part: exit ~ Uniform(V \ {sender}) (one next_below draw), then one
/// path among the k planned with probability proportional to 1/cost (one
/// next_double draw when k > 1 paths exist) — seeded tie-breaking comes
/// from whatever rng::stream the caller dedicates to planning. Borrows
/// the topology; keep it alive.
class route_planner {
 public:
  /// Preconditions: cfg.valid() and cfg.planned().
  route_planner(const topology& topo, routing_config cfg);

  /// The k (or fewer) best paths s->t, best first, computed once per pair.
  const std::vector<planned_path>& plan(node_id s, node_id t);

  /// Draws one route for `sender`: hops are the planned path's nodes after
  /// the sender (interior relays, then the exit, which forwards to R).
  [[nodiscard]] route sample_route(node_id sender, stats::rng& gen);

  [[nodiscard]] const topology& graph() const noexcept { return *topo_; }
  [[nodiscard]] const routing_config& config() const noexcept { return cfg_; }

  /// Distinct (source, exit) pairs planned so far.
  [[nodiscard]] std::uint64_t planned_pairs() const noexcept {
    return cache_.size();
  }

  /// Accumulated search work across every cache-miss plan() call (cache
  /// hits add nothing — the gap between planned_pairs() growth and route
  /// draws is the planner's own memoization win).
  [[nodiscard]] const plan_counters& counters() const noexcept {
    return counters_;
  }

 private:
  const topology* topo_;
  routing_config cfg_;
  std::unordered_map<std::uint64_t, std::vector<planned_path>> cache_;
  plan_counters counters_;
};

}  // namespace anonpath::net
