#include "src/anonymity/multi_message.hpp"

#include <algorithm>
#include <cmath>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/logspace.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

namespace anonpath {

std::vector<double> combine_posteriors(
    std::span<const std::vector<double>> posteriors) {
  ANONPATH_EXPECTS(!posteriors.empty());
  const std::size_t n = posteriors.front().size();
  ANONPATH_EXPECTS(n > 0);
  // Work in log space: long products of small probabilities underflow.
  std::vector<double> log_post(n, 0.0);
  std::vector<double> candidate(n);
  for (const auto& p : posteriors) {
    ANONPATH_EXPECTS(p.size() == n);
    bool has_support = false;
    for (std::size_t i = 0; i < n; ++i) {
      ANONPATH_EXPECTS(p[i] >= 0.0);
      candidate[i] =
          p[i] > 0.0 ? log_post[i] + std::log(p[i]) : stats::log_zero();
      has_support = has_support || candidate[i] > stats::log_zero();
    }
    if (has_support) log_post.swap(candidate);
  }
  const double norm = stats::log_sum_exp(log_post);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(log_post[i] - norm);
  return out;
}

std::vector<degradation_point> simulate_degradation(
    const system_params& sys, const std::vector<node_id>& compromised,
    const path_length_distribution& lengths, std::uint32_t max_messages,
    std::uint32_t trials, bool reroute_per_message, std::uint64_t seed,
    double identified_threshold) {
  ANONPATH_EXPECTS(trials > 0);
  ANONPATH_EXPECTS(max_messages > 0);
  const posterior_engine engine(sys, compromised, lengths);
  std::vector<bool> flags(sys.node_count, false);
  for (node_id c : compromised) flags[c] = true;

  struct accumulator {
    stats::running_summary entropy;
    std::uint64_t identified = 0;
  };
  std::vector<accumulator> acc(max_messages);

  stats::rng gen(seed);
  for (std::uint32_t t = 0; t < trials; ++t) {
    // Track an *honest* sender: a compromised sender is identified at the
    // first message, which would only dilute the curve.
    node_id sender;
    do {
      sender = static_cast<node_id>(gen.next_below(sys.node_count));
    } while (flags[sender]);

    std::vector<std::vector<double>> posteriors;
    posteriors.reserve(max_messages);
    route fixed_route;  // used when reroute_per_message is false
    for (std::uint32_t k = 0; k < max_messages; ++k) {
      if (reroute_per_message || k == 0) {
        const path_length l = lengths.sample(gen);
        fixed_route = sample_simple_route(sys.node_count, sender, l, gen);
        const observation obs = observe(fixed_route, flags);
        posteriors.push_back(engine.sender_posterior(obs));
      }
      // Static-path mode: later messages deterministically repeat the first
      // observation. A repeat carries no evidence (Pr(e,e|s) = Pr(e|s)), so
      // the factor list simply does not grow — multiplying the duplicate in
      // would wrongly sharpen the posterior. Fresh routes *are* independent
      // draws, so every factor multiplies (even coincidental repeats).
      const auto fused = combine_posteriors(posteriors);
      acc[k].entropy.add(entropy_bits(fused));
      if (*std::max_element(fused.begin(), fused.end()) > identified_threshold)
        ++acc[k].identified;
    }
  }

  std::vector<degradation_point> out;
  out.reserve(max_messages);
  for (std::uint32_t k = 0; k < max_messages; ++k) {
    degradation_point p;
    p.messages = k + 1;
    p.mean_entropy_bits = acc[k].entropy.mean();
    p.std_error = acc[k].entropy.std_error();
    p.identified_fraction =
        static_cast<double>(acc[k].identified) / static_cast<double>(trials);
    out.push_back(p);
  }
  return out;
}

}  // namespace anonpath
