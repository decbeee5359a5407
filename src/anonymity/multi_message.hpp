#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/types.hpp"

namespace anonpath {

/// Cross-message sender inference — the degradation scenario the paper cites
/// as [23] (Wright et al., NDSS 2002): a sender who keeps communicating with
/// the same receiver under per-message rerouting hands the adversary
/// independent observations whose posteriors multiply. Crowds instead pins
/// one path per (sender, receiver) pair for 24h — repeated use of the same
/// path yields the *same* observation and no extra information.

/// Fuses independent per-message posteriors over the same unknown sender:
/// Pr(S=s | e_1..e_k) ∝ Π_i Pr(S=s | e_i) under a uniform prior, summed in
/// log space and normalised with log_sum_exp. The simulator fuses a
/// message's retransmissions with it, and simulate_degradation a sender's
/// messages.
///
/// Skip rule: a factor that would leave no candidate with positive mass
/// (zero wherever the running product is positive) is skipped, so
/// contradictory evidence — possible only for a mis-linked timing chain —
/// carries no weight instead of leaving nothing to normalise. The fused
/// result therefore always has some positive mass, and {{1, 0}, {0, 1}}
/// fuses to {1, 0}.
///
/// Preconditions: at least one posterior; all non-empty, the same size,
/// with entries >= 0.
[[nodiscard]] std::vector<double> combine_posteriors(
    std::span<const std::vector<double>> posteriors);

/// Result of a multi-message degradation experiment.
struct degradation_point {
  std::uint32_t messages = 0;       ///< messages sent by the tracked sender
  double mean_entropy_bits = 0.0;   ///< E[H(posterior after k messages)]
  double std_error = 0.0;
  double identified_fraction = 0.0; ///< runs where posterior max > threshold
};

/// Simulates the attack: a fixed (honest) sender emits `max_messages`
/// messages, each over a fresh simple path drawn from `lengths`; after every
/// message the adversary refines its fused posterior. Averaged over
/// `trials` independent runs (sender redrawn uniformly among honest nodes).
/// Returns one point per message count 1..max_messages.
///
/// When `reroute_per_message` is false the first path is reused for all
/// messages (Crowds-style static path): observations repeat and the fused
/// posterior equals the single-message one — the baseline that shows *why*
/// static paths resist the attack.
///
/// A run counts as "identified" after k messages when the fused posterior
/// puts strictly more than `identified_threshold` mass on one node (the
/// paper-style 0.99 by default, matching sim_config::identified_threshold).
///
/// Preconditions: as posterior_engine; trials > 0; max_messages > 0.
[[nodiscard]] std::vector<degradation_point> simulate_degradation(
    const system_params& sys, const std::vector<node_id>& compromised,
    const path_length_distribution& lengths, std::uint32_t max_messages,
    std::uint32_t trials, bool reroute_per_message, std::uint64_t seed,
    double identified_threshold = 0.99);

}  // namespace anonpath
