#pragma once

#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/types.hpp"
#include "src/net/topology.hpp"

namespace anonpath::net {

/// Exact Bayesian sender inference for the weighted-walk routing model on a
/// restricted topology — the graph-aware counterpart of the clique
/// posterior_engine. Where the clique engine's likelihood collapses into
/// closed-form composition counts and falling factorials, no such closed
/// form exists on a general graph; instead the walk model's Markov
/// structure is exploited directly:
///
///   * the observation's chained reports pin contiguous walk segments
///     whose transition probabilities are an s-independent constant;
///   * the unobserved stretches between segments are walks through honest
///     nodes only (full collection: a silent compromised node proves
///     absence), whose probabilities are powers of the transition matrix
///     restricted to honest columns — computed by sparse DP over the
///     adjacency lists, never by materializing an N x N matrix;
///   * gap lengths convolve across segments against the length pmf, and
///     only the first gap (sender -> first observed node) depends on the
///     hypothesis s, so one backward DP scores all N candidates at once.
///
/// Cost per observation is O(max_length * |E| + N * max_length^2) — exact
/// inference at simulation scale, pinned event-by-event against the
/// exhaustive graph_oracle on small graphs by the conformance suite.
///
/// Supports full-coalition and partial-coverage observation shapes
/// (receiver_observed == false marginalizes over the open walk tail).
/// Gapped (timing-correlator) observations are not supported on restricted
/// graphs — the simulator refuses that combination up front.
class topology_posterior_engine {
 public:
  /// Preconditions: sys.valid(); topo.node_count() == sys.node_count;
  /// `compromised` lists distinct ids < N, |compromised| == C.
  topology_posterior_engine(system_params sys,
                            std::vector<node_id> compromised,
                            path_length_distribution lengths, topology topo);

  /// Posterior Pr(S = i | obs) over all N nodes. Precondition: obs is
  /// explainable under the walk model (always true for observations the
  /// model itself generated) and not gapped.
  [[nodiscard]] std::vector<double> sender_posterior(
      const observation& obs) const;

  /// Computes the posterior into `out` (resized to N); returns false —
  /// leaving `out` all-zero — when no sender hypothesis has positive
  /// likelihood (a fuzzed or mis-assembled observation).
  [[nodiscard]] bool try_sender_posterior(const observation& obs,
                                          std::vector<double>& out) const;

  /// True iff sender_posterior(obs) is well defined.
  [[nodiscard]] bool explainable(const observation& obs) const;

  [[nodiscard]] const system_params& system() const noexcept { return sys_; }
  [[nodiscard]] const std::vector<node_id>& compromised() const noexcept {
    return compromised_;
  }
  [[nodiscard]] const path_length_distribution& lengths() const noexcept {
    return lengths_;
  }
  [[nodiscard]] const topology& graph() const noexcept { return topo_; }

 private:
  /// One honest-interior DP step: out[y] = sum_x in[x] * T(x->y) over
  /// honest y (forward == false runs the transpose, for the sender gap).
  void honest_step(const std::vector<double>& in, std::vector<double>& out,
                   bool forward) const;

  system_params sys_;
  std::vector<node_id> compromised_;
  std::vector<bool> compromised_flag_;
  path_length_distribution lengths_;
  topology topo_;
};

}  // namespace anonpath::net
