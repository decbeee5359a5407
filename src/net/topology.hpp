#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/anonymity/types.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::net {

/// Graph families for the rerouting substrate. The paper's Sec. 3.1 model
/// is `complete` — every node can forward to every other node — and that
/// stays the default everywhere. The rest open the topology axis that real
/// deployments live on:
///   * ring(k)          — circulant lattice: u ~ u±1..±k (mod N)
///   * random_regular   — seeded random d-regular graph (circulant base
///                        randomized by degree-preserving double-edge
///                        swaps, retried until connected)
///   * tiered           — Tor-style stratified layout: nodes split into
///                        consecutive tiers (guard/middle/exit at 3) and
///                        only adjacent tiers are linked
///   * trust_weighted   — complete adjacency with per-edge trust weights
///                        decaying geometrically in ring distance
enum class topology_kind : std::uint8_t {
  complete,
  ring,
  random_regular,
  tiered,
  trust_weighted,
};

/// Stable short name ("complete", "ring", ...) for CLI/CSV surfaces.
[[nodiscard]] const char* topology_kind_name(topology_kind kind) noexcept;

/// Declarative description of a topology, independent of N so it can ride
/// in sim_config, sweep over a campaign axis, and serialize into traces.
/// Only the fields of the selected kind are meaningful; the rest keep
/// their defaults so equality and serialization stay canonical.
struct topology_config {
  topology_kind kind = topology_kind::complete;
  std::uint32_t ring_k = 1;      ///< ring: links to the k nearest on each side
  std::uint32_t degree = 4;      ///< random_regular: uniform degree d
  std::uint64_t graph_seed = 1;  ///< random_regular: wiring seed
  std::uint32_t tiers = 3;       ///< tiered: number of layers
  double trust_decay = 0.5;      ///< trust_weighted: per-hop weight decay in (0,1]

  /// Parameter ranges that admit a connected, self-loop-free graph with
  /// positive edge weights on `node_count` nodes; one of the rules of
  /// sim::config_problem.
  [[nodiscard]] bool valid_for(std::uint32_t node_count) const noexcept;

  /// Compact label, e.g. "complete", "ring(2)", "regular(4@1)",
  /// "tiered(3)", "trust(0.5)". Deterministic; used in CSV cells.
  [[nodiscard]] std::string label() const;

  friend bool operator==(const topology_config&,
                         const topology_config&) = default;
};

/// One undirected weighted edge, as produced by the per-family generators.
struct weighted_edge {
  node_id u = 0;
  node_id v = 0;
  double w = 1.0;
};

/// A borrowed, non-owning view of one node's sorted adjacency: neighbor
/// ids ascending, the parallel edge weights, and the inclusive cumulative
/// weight table the walk sampler inverts. Valid as long as the owning
/// topology lives.
struct neighbor_view {
  const node_id* ids = nullptr;
  const double* weights = nullptr;
  const double* cum = nullptr;  ///< inclusive prefix sums of `weights`
  std::uint32_t size = 0;
};

/// An immutable weighted rerouting graph over nodes 0..N-1. Undirected,
/// no self-loops, connected (constructors enforce it); the receiver R stays
/// an external party reachable from every node, exactly as in the paper.
///
/// The generative routing model on a topology is the weighted random walk:
/// each forwarding step draws the next hop among the current node's
/// neighbors with probability proportional to edge weight (the paper's
/// "complicated" cycle-allowing model of Sec. 3.2 is precisely this walk on
/// the complete graph, which is how the clique machinery stays a special
/// case — see cyclic_brute_force_analyzer and the conformance suite).
///
/// Storage is compressed sparse rows: flat offset, neighbor and weight
/// arrays plus per-node inclusive cumulative-weight sampling tables, built
/// once from the generator's edge list and immutable after that. One
/// allocation per array instead of one per node is what lets million-node
/// graphs fit and route_plan traverse them at memory bandwidth.
/// `adjacency(u)` is the one accessor of a node's neighbors.
class topology {
 public:
  /// Builds the graph a config describes. Preconditions: node_count >= 2,
  /// cfg.valid_for(node_count).
  [[nodiscard]] static topology make(std::uint32_t node_count,
                                     const topology_config& cfg);

  /// Same as `make`. perfbench's plan job (perfbench/driver.cpp) still
  /// calls it by this name; it goes when that job does.
  [[nodiscard]] static topology make_csr(std::uint32_t node_count,
                                         const topology_config& cfg) {
    return make(node_count, cfg);
  }

  /// The paper's clique: every ordered pair linked, uniform weights.
  [[nodiscard]] static topology complete(std::uint32_t node_count);

  /// Circulant ring: u ~ u±1..±k (mod N). Preconditions: k >= 1,
  /// 2k <= node_count - 1.
  [[nodiscard]] static topology ring(std::uint32_t node_count, std::uint32_t k);

  /// Seeded random d-regular simple connected graph: a connected circulant
  /// base randomized by degree-preserving double-edge swaps, re-attempted
  /// until connected (d == 2 draws a random Hamiltonian cycle instead).
  /// Preconditions: 2 <= d < node_count, N*d even.
  [[nodiscard]] static topology random_regular(std::uint32_t node_count,
                                               std::uint32_t degree,
                                               std::uint64_t seed);

  /// Stratified layout: tier(u) = u*tiers/N; u ~ v iff their tiers are
  /// adjacent. Preconditions: 2 <= tiers <= node_count.
  [[nodiscard]] static topology tiered(std::uint32_t node_count,
                                       std::uint32_t tiers);

  /// Complete adjacency with w(u,v) = decay^(ring_distance(u,v) - 1) — a
  /// smooth interpolation from the uniform clique (decay = 1) toward a
  /// nearest-neighbour ring (decay -> 0). Preconditions: 0 < decay <= 1,
  /// and the farthest weight decay^(node_count/2 - 1) does not underflow
  /// to 0 (valid_for).
  [[nodiscard]] static topology trust_weighted(std::uint32_t node_count,
                                               double decay);

  [[nodiscard]] std::uint32_t node_count() const noexcept { return n_; }
  [[nodiscard]] const topology_config& config() const noexcept { return cfg_; }
  [[nodiscard]] bool is_complete() const noexcept {
    return cfg_.kind == topology_kind::complete;
  }

  /// Undirected edge count (each u~v counted once).
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return edge_count_;
  }

  /// u's sorted adjacency. The view borrows from this topology and is
  /// invalidated by its destruction.
  [[nodiscard]] neighbor_view adjacency(node_id u) const;

  [[nodiscard]] std::uint32_t degree(node_id u) const;

  [[nodiscard]] bool has_edge(node_id u, node_id v) const;

  /// w(u,v); 0 when the edge is absent.
  [[nodiscard]] double edge_weight(node_id u, node_id v) const;

  /// Sum of w(u, .) over u's neighbors (> 0: no isolated nodes).
  [[nodiscard]] double total_weight(node_id u) const;

  /// One walk step: Pr(next = v | at u) = w(u,v) / total_weight(u).
  [[nodiscard]] double transition_prob(node_id u, node_id v) const;

  /// Draws the next hop from u per the walk model. Uniform-weight graphs
  /// use a single next_below draw; weighted graphs invert the per-node
  /// cumulative weight table.
  [[nodiscard]] node_id sample_neighbor(node_id u, stats::rng& gen) const;

  [[nodiscard]] std::uint32_t min_degree() const noexcept { return min_degree_; }
  [[nodiscard]] std::uint32_t max_degree() const noexcept { return max_degree_; }

 private:
  topology(std::uint32_t n, topology_config cfg);

  /// Lays an undirected edge list out as sorted CSR rows, builds the
  /// cumulative tables and checks every invariant: ends in range, no
  /// self-loops, w > 0, simple, min degree >= 1, connected.
  void finalize(const std::vector<weighted_edge>& edges);

  std::uint32_t n_ = 0;
  topology_config cfg_;
  bool uniform_weights_ = true;
  std::uint32_t min_degree_ = 0;
  std::uint32_t max_degree_ = 0;
  std::uint64_t edge_count_ = 0;
  std::vector<double> total_;
  // The adjacency of u lives at [csr_off_[u], csr_off_[u+1]) in the three
  // parallel arrays below; csr_cum_ holds u's inclusive cumulative weights.
  std::vector<std::uint64_t> csr_off_;
  std::vector<node_id> csr_nbr_;
  std::vector<double> csr_w_;
  std::vector<double> csr_cum_;
};

}  // namespace anonpath::net
