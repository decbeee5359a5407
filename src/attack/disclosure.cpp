#include "src/attack/disclosure.hpp"

#include <algorithm>
#include <cmath>

#include "src/anonymity/entropy.hpp"
#include "src/attack/intersection.hpp"
#include "src/attack/online.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sequential_bayes.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"

namespace anonpath::attack {

disclosure_attack::disclosure_attack(std::uint32_t receiver_count)
    : receiver_count_(receiver_count) {
  ANONPATH_EXPECTS(receiver_count >= 2);
}

const char* attack_kind_label(attack_kind kind) noexcept {
  switch (kind) {
    case attack_kind::none: return "none";
    case attack_kind::intersection: return "intersection";
    case attack_kind::sda: return "sda";
    case attack_kind::sequential_bayes: return "sequential_bayes";
  }
  return "unknown";
}

std::optional<attack_kind> parse_attack_kind(const std::string& label) {
  if (label == "none") return attack_kind::none;
  if (label == "intersection") return attack_kind::intersection;
  if (label == "sda") return attack_kind::sda;
  if (label == "sequential_bayes" || label == "bayes")
    return attack_kind::sequential_bayes;
  return std::nullopt;
}

std::unique_ptr<disclosure_attack> make_attack(
    attack_kind kind, std::uint32_t receiver_count,
    const sequential_bayes_config& bayes) {
  ANONPATH_EXPECTS(kind != attack_kind::none);
  switch (kind) {
    case attack_kind::intersection:
      return std::make_unique<intersection_attack>(receiver_count);
    case attack_kind::sda:
      return std::make_unique<sda_attack>(receiver_count);
    case attack_kind::sequential_bayes:
      return std::make_unique<sequential_bayes_attack>(receiver_count, bayes);
    case attack_kind::none: break;
  }
  ANONPATH_EXPECTS(false);
  return nullptr;
}

trajectory_point summarize_posterior(const std::vector<double>& posterior,
                                     std::uint32_t round,
                                     double identified_threshold) {
  ANONPATH_EXPECTS(!posterior.empty());
  trajectory_point pt;
  pt.round = round;
  pt.entropy_bits = entropy_bits(posterior);
  const auto top =
      std::max_element(posterior.begin(), posterior.end()) - posterior.begin();
  pt.top_receiver = static_cast<node_id>(top);
  pt.top_mass = posterior[static_cast<std::size_t>(top)];
  pt.identified = pt.top_mass > identified_threshold;
  return pt;
}

trajectory_point disclosure_attack::summarize(
    std::uint32_t round, double identified_threshold) const {
  return summarize_posterior(posterior(), round, identified_threshold);
}

std::optional<trajectory_point> summarize_sparse(
    const std::vector<node_id>& support, std::vector<double> weights,
    std::uint32_t round, double identified_threshold) {
  ANONPATH_EXPECTS(weights.size() == support.size());
  // Pass 1: clamp the negative part away and take the normalizer.
  stats::kahan_sum z;
  for (double& w : weights) {
    if (w < 0.0) w = 0.0;
    z.add(w);
  }
  if (z.value() <= 0.0) return std::nullopt;
  // Pass 2: normalize; entropy_bits' total and the argmax (first maximum,
  // i.e. smallest id, like std::max_element over the dense vector, whose
  // skipped entries are +0 and never win).
  trajectory_point pt;
  pt.round = round;
  stats::kahan_sum total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] /= z.value();
    total.add(weights[i]);
    if (weights[i] > pt.top_mass) {
      pt.top_mass = weights[i];
      pt.top_receiver = support[i];
    }
  }
  // Pass 3: entropy, exactly as entropy_bits accumulates it.
  const double norm = total.value();
  if (norm > 0.0) {
    stats::kahan_sum h;
    for (double p : weights) {
      if (p > 0.0) {
        const double q = p / norm;
        h.add(-q * std::log2(q));
      }
    }
    pt.entropy_bits = h.value();
  }
  pt.identified = pt.top_mass > identified_threshold;
  return pt;
}

double estimated_membership_noise(const workload::population& pop,
                                  std::uint32_t pair_index) {
  ANONPATH_EXPECTS(pair_index < pop.pairs().size());
  const workload::population_config& cfg = pop.config();
  const double rate = cfg.persistent_rate;
  if (rate >= 1.0) return 0.0;
  // Expected background volume per round.
  const double background =
      cfg.mode == workload::round_mode::threshold
          ? static_cast<double>(cfg.round_size)
          : cfg.arrival_rate * cfg.round_interval;
  // The pair sender's per-draw popularity under the sender law.
  const double p_sender =
      workload::popularity_pmf(cfg.sender_law,
                               cfg.user_count)[pop.pairs()[pair_index].sender];
  // P(some background message this round is the target's), then Bayes:
  // P(pair did not emit | target in the sender multiset).
  const double coincidence = 1.0 - std::pow(1.0 - p_sender, background);
  const double present = rate + (1.0 - rate) * coincidence;
  const double noise =
      present > 0.0 ? (1.0 - rate) * coincidence / present : 0.0;
  // rate == 0 makes every marked round coincidental (noise exactly 1, a
  // degenerate "no persistent signal" workload); clamp inside the Bayes
  // config's [0, 1) domain so the engine stays constructible.
  return std::min(noise, 0.99);
}

attack_result run_workload_attack(const workload::population& pop,
                                  std::uint32_t pair_index,
                                  disclosure_attack& attack,
                                  double identified_threshold,
                                  std::uint32_t stride) {
  ANONPATH_EXPECTS(pair_index < pop.pairs().size());
  ANONPATH_EXPECTS(attack.receiver_count() == pop.config().receiver_count);
  const node_id target = pop.pairs()[pair_index].sender;
  const std::uint32_t rounds = pop.config().round_count;

  // The offline post-process IS the online session fed to the end of the
  // stream — one trajectory/identification implementation, so the
  // online == offline bit-identity holds by construction.
  online_attack online(attack, identified_threshold, stride);
  round_observation obs;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    const workload::round_batch batch = pop.round(r);
    obs.target_present =
        std::find(batch.senders.begin(), batch.senders.end(), target) !=
        batch.senders.end();
    obs.receivers = batch.receivers;
    online.ingest(obs);
  }
  return online.result();
}

}  // namespace anonpath::attack
