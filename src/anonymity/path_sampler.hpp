#pragma once

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/types.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/stats/rng.hpp"

namespace anonpath {

/// Route samplers for the path models of paper Sec. 3.2. On the clique
/// every sampler here but the walk draws simple paths: intermediates are
/// distinct and differ from the sender, which is what the analytic
/// machinery assumes. The paper's "complicated" paths (cycles allowed, only
/// immediate self-loops excluded) are the weighted walk on the complete
/// topology, sample_topology_route; the planned sampler draws a route
/// planner's loopless paths.

/// Draws a uniformly random simple route of the given length from `sender`:
/// an ordered sample of `length` distinct intermediates from V \ {sender}.
/// Preconditions: sender < node_count, length <= node_count - 1.
[[nodiscard]] route sample_simple_route(std::uint32_t node_count, node_id sender,
                                        path_length length, stats::rng& gen);

/// In-place simple-route sampling for a fixed node count, as the simulator
/// draws one route per message: exactly the draws and the route of
/// sample_simple_route (the same partial Fisher-Yates over V \ {sender},
/// the same next_below calls), in O(length) per route with no allocation
/// once the buffers have grown. The pool holds the identity permutation of
/// [0, N-1) between calls — each draw's swaps are undone — and pool index
/// i stands for node i below the sender and node i + 1 from it on, which is
/// the ascending list of V \ {sender} sample_simple_route shuffles.
class simple_route_sampler {
 public:
  /// Precondition: node_count >= 1.
  explicit simple_route_sampler(std::uint32_t node_count);

  /// Fills `out`, reusing its hop buffer. Preconditions: sender <
  /// node_count, length <= node_count - 1.
  void sample(node_id sender, path_length length, stats::rng& gen,
              route& out);

 private:
  std::vector<node_id> pool_;          ///< identity between calls
  std::vector<std::uint32_t> swaps_;   ///< swap partner of each position
};

/// Draws a full (sender, length, route) triple from the generative model:
/// sender uniform over V, length from `lengths`, a simple route
/// (sample_simple_route). Precondition: lengths.max_length() <=
/// node_count - 1.
[[nodiscard]] route sample_route(std::uint32_t node_count,
                                 const path_length_distribution& lengths,
                                 stats::rng& gen);

/// Draws a topology-respecting route of the given length from `sender`:
/// each hop is a weighted draw among the current node's neighbors (the
/// walk model — net::topology documents why the clique instance coincides
/// with the paper's complicated paths). Every consecutive pair of the
/// result is a graph edge. Precondition: sender < topo.node_count().
[[nodiscard]] route sample_topology_route(const net::topology& topo,
                                          node_id sender, path_length length,
                                          stats::rng& gen);

/// In-place variant: fills `out`, reusing its hop buffer, so steady-state
/// sampling (the topology Monte-Carlo loop) allocates nothing.
void sample_topology_route_into(const net::topology& topo, node_id sender,
                                path_length length, stats::rng& gen,
                                route& out);

/// Draws a planned route from `sender` under the kpaths model: the planner
/// picks a uniform exit and one of its k best paths (see
/// net::route_planner::sample_route — this wrapper is the sampler-layer
/// entry point, parallel to sample_topology_route). Unlike the walk
/// samplers the length is data-driven, not a parameter: planned paths are
/// loopless, so lengths land in [1, N-1].
[[nodiscard]] route sample_planned_route(net::route_planner& planner,
                                         node_id sender, stats::rng& gen);

/// Allocation-free bulk sampler for the hot Monte-Carlo loop: draws the same
/// distribution of (sender, length, route) triples as sample_route but
/// reuses internal buffers, so steady-state sampling performs zero heap
/// allocations.
///
/// It exploits that a uniform (sender, ordered l-sample of V \ {sender})
/// pair is exactly a uniform (l+1)-prefix of a random permutation of V: one
/// partial Fisher-Yates pass over a persistent permutation buffer yields
/// sender and hops together. (Fisher-Yates is uniform from any starting
/// permutation, so the buffer is never re-sorted.)
///
/// The draw sequence differs from sample_route's, so the two produce
/// different — equally distributed — streams for the same generator state.
class route_sampler {
 public:
  /// Preconditions: node_count >= 2, and the length support fits simple
  /// paths (lengths.max_length() <= node_count - 1).
  route_sampler(std::uint32_t node_count, path_length_distribution lengths);

  /// Draws the next route into the internal buffer and returns a reference
  /// to it; valid until the next call.
  const route& next(stats::rng& gen);

 private:
  std::uint32_t node_count_;
  path_length_distribution lengths_;
  std::vector<node_id> pool_;  // persistent permutation of V
  route r_;
};

}  // namespace anonpath
