#include "src/anonymity/path_sampler.hpp"

#include <utility>

#include "src/stats/contract.hpp"

namespace anonpath {

route sample_simple_route(std::uint32_t node_count, node_id sender,
                          path_length length, stats::rng& gen) {
  ANONPATH_EXPECTS(sender < node_count);
  ANONPATH_EXPECTS(length <= node_count - 1);
  route r;
  r.sender = sender;
  r.hops = gen.sample_distinct(node_count, length, {sender});
  return r;
}

simple_route_sampler::simple_route_sampler(std::uint32_t node_count) {
  ANONPATH_EXPECTS(node_count >= 1);
  pool_.resize(node_count - 1);
  for (node_id v = 0; v < pool_.size(); ++v) pool_[v] = v;
}

void simple_route_sampler::sample(node_id sender, path_length length,
                                  stats::rng& gen, route& out) {
  const auto size = static_cast<std::uint32_t>(pool_.size());  // N - 1
  ANONPATH_EXPECTS(sender <= size);
  ANONPATH_EXPECTS(length <= size);
  out.sender = sender;
  out.hops.resize(length);
  swaps_.resize(length);
  for (std::uint32_t i = 0; i < length; ++i) {
    const auto j = i + static_cast<std::uint32_t>(gen.next_below(size - i));
    std::swap(pool_[i], pool_[j]);
    swaps_[i] = j;
    const node_id v = pool_[i];
    out.hops[i] = v < sender ? v : v + 1;
  }
  for (std::uint32_t i = length; i-- > 0;) std::swap(pool_[i], pool_[swaps_[i]]);
}

route sample_route(std::uint32_t node_count,
                   const path_length_distribution& lengths, stats::rng& gen) {
  const auto sender = static_cast<node_id>(gen.next_below(node_count));
  const path_length l = lengths.sample(gen);
  return sample_simple_route(node_count, sender, l, gen);
}

void sample_topology_route_into(const net::topology& topo, node_id sender,
                                path_length length, stats::rng& gen,
                                route& out) {
  ANONPATH_EXPECTS(sender < topo.node_count());
  out.sender = sender;
  out.hops.clear();
  out.hops.reserve(length);
  node_id cur = sender;
  for (path_length i = 0; i < length; ++i) {
    cur = topo.sample_neighbor(cur, gen);
    out.hops.push_back(cur);
  }
}

route sample_topology_route(const net::topology& topo, node_id sender,
                            path_length length, stats::rng& gen) {
  route r;
  sample_topology_route_into(topo, sender, length, gen, r);
  return r;
}

route sample_planned_route(net::route_planner& planner, node_id sender,
                           stats::rng& gen) {
  return planner.sample_route(sender, gen);
}

route_sampler::route_sampler(std::uint32_t node_count,
                             path_length_distribution lengths)
    : node_count_(node_count), lengths_(std::move(lengths)) {
  ANONPATH_EXPECTS(node_count_ >= 2);
  ANONPATH_EXPECTS(lengths_.max_length() <= node_count_ - 1);
  pool_.resize(node_count_);
  for (node_id v = 0; v < node_count_; ++v) pool_[v] = v;
  r_.hops.reserve(lengths_.max_length());
}

const route& route_sampler::next(stats::rng& gen) {
  const path_length l = lengths_.sample(gen);
  // Partial Fisher-Yates: pool_[0 .. l] becomes a uniform ordered
  // (l+1)-sample of V; slot 0 is the sender, slots 1..l the hops.
  for (path_length i = 0; i <= l; ++i) {
    const auto j =
        i + static_cast<std::uint32_t>(gen.next_below(node_count_ - i));
    std::swap(pool_[i], pool_[j]);
  }
  r_.sender = pool_[0];
  r_.hops.assign(pool_.begin() + 1, pool_.begin() + 1 + l);
  return r_;
}

}  // namespace anonpath
