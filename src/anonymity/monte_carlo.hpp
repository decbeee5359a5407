#pragma once

#include <cstdint>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/types.hpp"
#include "src/net/topology.hpp"

namespace anonpath {

/// A Monte-Carlo estimate of the anonymity degree with sampling error.
struct mc_estimate {
  double degree = 0.0;      ///< estimated H*(S), bits
  double std_error = 0.0;   ///< standard error of the estimate
  std::uint64_t samples = 0;
  std::uint64_t distinct_observations = 0;  ///< observation classes scored
  std::uint64_t shards = 0;                 ///< rng streams the estimate was split over

  /// Half-width of the ~95% confidence interval.
  [[nodiscard]] double ci95() const noexcept { return 1.96 * std_error; }
};

/// Tuning knobs for the Monte-Carlo estimation pipeline.
///
/// Determinism contract: for fixed (seed, samples, shards, topology) the
/// estimate is bit-identical for EVERY value of `threads`. Each shard owns
/// an independent rng stream (stats::rng::stream) and groups its sampled
/// observations into classes; the shards' classes are merged in shard order
/// and reduced in class order on the calling thread, so the schedule never
/// leaks into the arithmetic.
struct mc_config {
  /// Worker threads; 0 = hardware concurrency, 1 = serial. Requests are
  /// capped by stats::resolve_thread_count.
  unsigned threads = 1;
  /// Independent sampling streams; 0 = default (16, clamped to `samples`).
  /// Changing the shard count changes which routes are drawn (a different
  /// but equally valid estimate); changing `threads` never does.
  std::uint64_t shards = 0;
};

/// Estimates H*(S) = E_e[ H(X|e) ] for an arbitrary compromised set by
/// sampling routes from the generative model, running the adversary's
/// collection step, and scoring the exact posterior entropy of each
/// distinct sampled observation once (observation::key() classes, weighted
/// by their sample counts). Short paths collapse onto few classes, so the
/// posterior work is far below one per sample.
///
/// `topo` picks the model. `complete` (the default) is the paper's clique
/// with simple paths, scored by posterior_engine; any other graph is the
/// weighted-walk model (uniform sender, length from `lengths`, walk by
/// sample_topology_route_into), scored by net::topology_posterior_engine.
/// Only the route source and the class scorer depend on the model.
///
/// This is the tool the analytic C=1 engine cannot replace: it handles any
/// C and any topology, and is validated against brute force at small N.
///
/// Preconditions: samples > 0; for the clique, as posterior_engine; for a
/// graph, topo.valid_for(N) and as net::topology_posterior_engine.
[[nodiscard]] mc_estimate estimate_anonymity_degree(
    const system_params& sys, const std::vector<node_id>& compromised,
    const path_length_distribution& lengths, std::uint64_t samples,
    std::uint64_t seed, const mc_config& config = {},
    const net::topology_config& topo = {});

}  // namespace anonpath
