#include "src/net/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "src/stats/contract.hpp"

namespace anonpath::net {

const char* topology_kind_name(topology_kind kind) noexcept {
  switch (kind) {
    case topology_kind::complete: return "complete";
    case topology_kind::ring: return "ring";
    case topology_kind::random_regular: return "regular";
    case topology_kind::tiered: return "tiered";
    case topology_kind::trust_weighted: return "trust";
  }
  return "?";
}

namespace {

/// The trust family's edge weights decay^(d-1) at ring distances
/// d = 1..n/2, by the repeated product that fixes their bits: calls
/// visit(d, w) in distance order and returns the last, smallest weight.
template <class Visit>
double trust_weights(std::uint32_t n, double decay, Visit&& visit) {
  double w = 1.0;
  for (std::uint32_t d = 1; d <= n / 2; ++d) {
    if (d > 1) w *= decay;
    visit(d, w);
  }
  return w;
}

}  // namespace

bool topology_config::valid_for(std::uint32_t node_count) const noexcept {
  if (node_count < 2) return false;
  switch (kind) {
    case topology_kind::complete:
      return true;
    case topology_kind::ring:
      return ring_k >= 1 && 2ull * ring_k <= node_count - 1;
    case topology_kind::random_regular:
      return degree >= 2 && degree < node_count &&
             (static_cast<std::uint64_t>(node_count) * degree) % 2 == 0;
    case topology_kind::tiered:
      return tiers >= 2 && tiers <= node_count;
    case topology_kind::trust_weighted:
      // Every weight must stay positive: a decay whose repeated product
      // underflows to 0 before the farthest ring distance has no graph.
      return trust_decay > 0.0 && trust_decay <= 1.0 &&
             trust_weights(node_count, trust_decay,
                           [](std::uint32_t, double) {}) > 0.0;
  }
  return false;
}

std::string topology_config::label() const {
  char buf[64];
  switch (kind) {
    case topology_kind::complete:
      return "complete";
    case topology_kind::ring:
      std::snprintf(buf, sizeof buf, "ring(%u)", ring_k);
      return buf;
    case topology_kind::random_regular:
      std::snprintf(buf, sizeof buf, "regular(%u@%llu)", degree,
                    static_cast<unsigned long long>(graph_seed));
      return buf;
    case topology_kind::tiered:
      std::snprintf(buf, sizeof buf, "tiered(%u)", tiers);
      return buf;
    case topology_kind::trust_weighted:
      std::snprintf(buf, sizeof buf, "trust(%g)", trust_decay);
      return buf;
  }
  return "?";
}

namespace {

/// Symmetric edge key: the same u~v in either orientation.
std::uint64_t edge_key(node_id u, node_id v) {
  const node_id lo = u < v ? u : v;
  const node_id hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Union-find connectivity over an edge list: the same answer a BFS over
/// the built adjacency gives, without materializing it. The random_regular
/// generator runs it per attempt, and finalize() asserts it for every graph.
bool edges_connect(std::uint32_t n, const std::vector<weighted_edge>& edges) {
  std::vector<node_id> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](node_id x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  std::uint32_t components = n;
  for (const weighted_edge& e : edges) {
    const node_id a = find(e.u);
    const node_id b = find(e.v);
    if (a != b) {
      parent[a] = b;
      --components;
    }
  }
  return components == 1;
}

void build_complete_edges(std::uint32_t n, std::vector<weighted_edge>& out) {
  out.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (node_id u = 0; u < n; ++u)
    for (node_id v = u + 1; v < n; ++v) out.push_back({u, v, 1.0});
}

void build_ring_edges(std::uint32_t n, std::uint32_t k,
                      std::vector<weighted_edge>& out) {
  out.reserve(static_cast<std::size_t>(n) * k);
  for (node_id u = 0; u < n; ++u)
    for (std::uint32_t j = 1; j <= k; ++j)
      out.push_back({u, static_cast<node_id>((u + j) % n), 1.0});
}

void build_random_regular_edges(std::uint32_t n, std::uint32_t degree,
                                std::uint64_t seed,
                                std::vector<weighted_edge>& out) {
  // d == 2 specializes to a seeded random Hamiltonian cycle (double-edge
  // swaps on 2-regular graphs split them into cycle unions almost surely).
  if (degree == 2) {
    stats::rng gen = stats::rng::stream(seed, 0);
    std::vector<node_id> order(n);
    for (node_id u = 0; u < n; ++u) order[u] = u;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[gen.next_below(i)]);
    out.reserve(n);
    for (node_id i = 0; i < n; ++i)
      out.push_back({order[i], order[(i + 1) % n], 1.0});
    return;
  }

  // d >= 3: start from a connected circulant d-regular base and randomize
  // with seeded degree-preserving double-edge swaps (the standard Markov
  // chain over d-regular simple graphs). Swaps can in principle disconnect
  // the graph; a random d-regular graph is connected with overwhelming
  // probability for d >= 3, so the per-attempt connectivity check makes a
  // handful of deterministic attempts practically infallible. Edge
  // presence lives in a hash set of symmetric keys — O(N*d) space, where
  // the dense N x N bitmap this replaced made million-node graphs
  // impossible — with the exact same accept/reject decisions and rng draw
  // order, so every (seed, n, d) still wires the identical graph.
  for (std::uint64_t attempt = 0; attempt < 128; ++attempt) {
    stats::rng gen = stats::rng::stream(seed, attempt);

    std::vector<std::pair<node_id, node_id>> edges;
    std::unordered_set<std::uint64_t> have;
    edges.reserve(static_cast<std::size_t>(n) * degree / 2);
    have.reserve(edges.capacity() * 2);
    const auto put = [&](node_id u, node_id v) {
      if (u == v || have.count(edge_key(u, v)) != 0) return false;
      have.insert(edge_key(u, v));
      edges.emplace_back(u, v);
      return true;
    };
    for (std::uint32_t off = 1; off <= degree / 2; ++off)
      for (node_id u = 0; u < n; ++u)
        put(u, static_cast<node_id>((u + off) % n));
    if (degree % 2 == 1)  // n is even here (valid_for: n*d even)
      for (node_id u = 0; u < n / 2; ++u)
        put(u, u + n / 2);

    const std::uint64_t swaps =
        20ull * n * degree;  // well past the chain's mixing regime
    for (std::uint64_t i = 0; i < swaps; ++i) {
      const std::size_t e1 = gen.next_below(edges.size());
      const std::size_t e2 = gen.next_below(edges.size());
      if (e1 == e2) continue;
      auto [a, b] = edges[e1];
      auto [c, d] = edges[e2];
      if (gen.next_below(2) == 1) std::swap(c, d);
      // Rewire (a,b),(c,d) -> (a,c),(b,d) when that keeps the graph simple.
      if (a == c || a == d || b == c || b == d) continue;
      if (have.count(edge_key(a, c)) != 0 || have.count(edge_key(b, d)) != 0)
        continue;
      have.erase(edge_key(a, b));
      have.erase(edge_key(c, d));
      have.insert(edge_key(a, c));
      have.insert(edge_key(b, d));
      edges[e1] = {a, c};
      edges[e2] = {b, d};
    }

    out.clear();
    out.reserve(edges.size());
    for (const auto& [u, v] : edges) out.push_back({u, v, 1.0});
    if (edges_connect(n, out)) return;
  }
  ANONPATH_EXPECTS(!"random_regular: no connected swap-randomized graph");
}

void build_tiered_edges(std::uint32_t n, std::uint32_t tiers,
                        std::vector<weighted_edge>& out) {
  const auto tier_of = [&](node_id u) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(u) * tiers) / n);
  };
  for (node_id u = 0; u < n; ++u)
    for (node_id v = u + 1; v < n; ++v) {
      const std::uint32_t tu = tier_of(u);
      const std::uint32_t tv = tier_of(v);
      if (tu + 1 == tv || tv + 1 == tu) out.push_back({u, v, 1.0});
    }
}

void build_trust_edges(std::uint32_t n, double decay,
                       std::vector<weighted_edge>& out) {
  // decay^(d-1) by ring distance d, tabulated once so construction stays
  // O(N^2) instead of O(N^3).
  std::vector<double> power(n / 2 + 1, 1.0);
  trust_weights(n, decay, [&](std::uint32_t d, double w) { power[d] = w; });
  out.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (node_id u = 0; u < n; ++u)
    for (node_id v = u + 1; v < n; ++v) {
      const std::uint32_t d = std::min(v - u, n - (v - u));
      out.push_back({u, v, power[d]});
    }
}

/// The one edge-list generator finalize() consumes. Preconditions:
/// cfg.valid_for(n).
void build_edges(std::uint32_t n, const topology_config& cfg,
                 std::vector<weighted_edge>& out) {
  switch (cfg.kind) {
    case topology_kind::complete:
      build_complete_edges(n, out);
      return;
    case topology_kind::ring:
      build_ring_edges(n, cfg.ring_k, out);
      return;
    case topology_kind::random_regular:
      build_random_regular_edges(n, cfg.degree, cfg.graph_seed, out);
      return;
    case topology_kind::tiered:
      build_tiered_edges(n, cfg.tiers, out);
      return;
    case topology_kind::trust_weighted:
      build_trust_edges(n, cfg.trust_decay, out);
      return;
  }
  ANONPATH_EXPECTS(!"unknown topology kind");
}

}  // namespace

topology::topology(std::uint32_t n, topology_config cfg)
    : n_(n), cfg_(cfg), total_(n, 0.0) {}

void topology::finalize(const std::vector<weighted_edge>& edges) {
  // Counting sort by source: degrees, their prefix sums as row offsets,
  // then both arcs of each edge scattered straight into their rows. A row
  // holds its arcs in edge-list order.
  csr_off_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const weighted_edge& e : edges) {
    ANONPATH_EXPECTS(e.u < n_ && e.v < n_);
    ANONPATH_EXPECTS(e.u != e.v);  // no self-loops
    ANONPATH_EXPECTS(e.w > 0.0);
    ++csr_off_[e.u + 1];
    ++csr_off_[e.v + 1];
  }
  for (std::size_t u = 0; u < n_; ++u) csr_off_[u + 1] += csr_off_[u];
  csr_nbr_.resize(edges.size() * 2);
  csr_w_.resize(edges.size() * 2);
  csr_cum_.resize(edges.size() * 2);
  std::vector<std::uint64_t> next(csr_off_.begin(), csr_off_.end() - 1);
  for (const weighted_edge& e : edges) {
    const std::uint64_t i = next[e.u]++;
    csr_nbr_[i] = e.v;
    csr_w_[i] = e.w;
    const std::uint64_t j = next[e.v]++;
    csr_nbr_[j] = e.u;
    csr_w_[j] = e.w;
  }

  // Rows the generator already emitted ascending (complete, tiered, trust)
  // stay as they are; the rest (ring wraps, random_regular) are sorted by
  // neighbor id, carrying the weights along.
  std::vector<std::pair<node_id, double>> row;
  min_degree_ = ~0u;
  max_degree_ = 0;
  for (node_id u = 0; u < n_; ++u) {
    const std::uint64_t b = csr_off_[u];
    const std::uint64_t e = csr_off_[u + 1];
    if (!std::is_sorted(csr_nbr_.begin() + b, csr_nbr_.begin() + e)) {
      row.clear();
      for (std::uint64_t i = b; i < e; ++i)
        row.emplace_back(csr_nbr_[i], csr_w_[i]);
      std::sort(row.begin(), row.end());
      for (std::uint64_t i = b; i < e; ++i)
        std::tie(csr_nbr_[i], csr_w_[i]) = row[i - b];
    }
    double acc = 0.0;
    for (std::uint64_t i = b; i < e; ++i) {
      ANONPATH_EXPECTS(i == b || csr_nbr_[i] != csr_nbr_[i - 1]);  // simple
      acc += csr_w_[i];
      csr_cum_[i] = acc;
      // Uniform weights within each node's row are what let the sampler
      // take the single next_below draw.
      if (uniform_weights_ && csr_w_[i] != csr_w_[b]) uniform_weights_ = false;
    }
    total_[u] = acc;
    const auto deg = static_cast<std::uint32_t>(e - b);
    min_degree_ = std::min(min_degree_, deg);
    max_degree_ = std::max(max_degree_, deg);
  }
  edge_count_ = edges.size();
  ANONPATH_ENSURES(min_degree_ >= 1);
  ANONPATH_ENSURES(edges_connect(n_, edges));
}

topology topology::complete(std::uint32_t node_count) {
  return make(node_count, topology_config{});
}

topology topology::ring(std::uint32_t node_count, std::uint32_t k) {
  topology_config cfg;
  cfg.kind = topology_kind::ring;
  cfg.ring_k = k;
  return make(node_count, cfg);
}

topology topology::random_regular(std::uint32_t node_count,
                                  std::uint32_t degree, std::uint64_t seed) {
  topology_config cfg;
  cfg.kind = topology_kind::random_regular;
  cfg.degree = degree;
  cfg.graph_seed = seed;
  return make(node_count, cfg);
}

topology topology::tiered(std::uint32_t node_count, std::uint32_t tiers) {
  topology_config cfg;
  cfg.kind = topology_kind::tiered;
  cfg.tiers = tiers;
  return make(node_count, cfg);
}

topology topology::trust_weighted(std::uint32_t node_count, double decay) {
  topology_config cfg;
  cfg.kind = topology_kind::trust_weighted;
  cfg.trust_decay = decay;
  return make(node_count, cfg);
}

topology topology::make(std::uint32_t node_count, const topology_config& cfg) {
  ANONPATH_EXPECTS(cfg.valid_for(node_count));
  std::vector<weighted_edge> edges;
  build_edges(node_count, cfg, edges);
  topology t(node_count, cfg);
  t.finalize(edges);
  return t;
}

neighbor_view topology::adjacency(node_id u) const {
  ANONPATH_EXPECTS(u < n_);
  const std::uint64_t b = csr_off_[u];
  const std::uint64_t e = csr_off_[u + 1];
  return {csr_nbr_.data() + b, csr_w_.data() + b, csr_cum_.data() + b,
          static_cast<std::uint32_t>(e - b)};
}

std::uint32_t topology::degree(node_id u) const {
  ANONPATH_EXPECTS(u < n_);
  return static_cast<std::uint32_t>(csr_off_[u + 1] - csr_off_[u]);
}

bool topology::has_edge(node_id u, node_id v) const {
  ANONPATH_EXPECTS(u < n_ && v < n_);
  const neighbor_view a = adjacency(u);
  return std::binary_search(a.ids, a.ids + a.size, v);
}

double topology::edge_weight(node_id u, node_id v) const {
  ANONPATH_EXPECTS(u < n_ && v < n_);
  const neighbor_view a = adjacency(u);
  const auto it = std::lower_bound(a.ids, a.ids + a.size, v);
  if (it == a.ids + a.size || *it != v) return 0.0;
  return a.weights[it - a.ids];
}

double topology::total_weight(node_id u) const {
  ANONPATH_EXPECTS(u < n_);
  return total_[u];
}

double topology::transition_prob(node_id u, node_id v) const {
  return edge_weight(u, v) / total_[u];
}

node_id topology::sample_neighbor(node_id u, stats::rng& gen) const {
  ANONPATH_EXPECTS(u < n_);
  const neighbor_view a = adjacency(u);
  if (uniform_weights_)
    return a.ids[static_cast<std::size_t>(gen.next_below(a.size))];
  const double x = gen.next_double() * total_[u];
  auto idx = static_cast<std::size_t>(
      std::upper_bound(a.cum, a.cum + a.size, x) - a.cum);
  if (idx >= a.size) idx = a.size - 1;  // x == total after rounding
  return a.ids[idx];
}

}  // namespace anonpath::net
