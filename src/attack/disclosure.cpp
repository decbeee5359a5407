#include "src/attack/disclosure.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/attack/intersection.hpp"
#include "src/attack/online.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sequential_bayes.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/exact_sum.hpp"

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

namespace {

/// One receiver's term of the entropy sum, shared by the dense and the
/// class paths so both add the same doubles.
double entropy_term(double q) { return -q * std::log2(q); }

}  // namespace

trajectory_point summarize_posterior(const std::vector<double>& posterior,
                                     std::uint32_t round,
                                     double identified_threshold) {
  ANONPATH_EXPECTS(!posterior.empty());
  trajectory_point pt;
  pt.round = round;
  // entropy_bits' two passes, with exactly rounded sums.
  stats::exact_sum total;
  for (double p : posterior) {
    ANONPATH_EXPECTS(p >= 0.0);
    total.add(p);
  }
  const double norm = total.value();
  if (norm > 0.0) {
    stats::exact_sum h;
    for (double p : posterior)
      if (p > 0.0) h.add(entropy_term(p / norm));
    pt.entropy_bits = h.value();
  }
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

double class_normalizer(std::span<const weight_class> classes) {
  stats::exact_sum z;
  for (const weight_class& c : classes)
    if (c.weight > 0.0) z.add_product(c.members, c.weight);
  return z.value();
}

std::optional<trajectory_point> summarize_classes(
    std::span<const weight_class> classes, std::uint32_t round,
    double identified_threshold) {
  const double z = class_normalizer(classes);
  if (z <= 0.0) return std::nullopt;
  // A clamped class is +0 in the dense vector: it adds nothing to either
  // sum and never wins the argmax, whose maximum is positive here.
  trajectory_point pt;
  pt.round = round;
  stats::exact_sum total;
  for (const weight_class& c : classes) {
    if (!(c.weight > 0.0)) continue;
    const double p = c.weight / z;
    total.add_product(c.members, p);
    if (p > pt.top_mass || (p == pt.top_mass && c.first < pt.top_receiver)) {
      pt.top_mass = p;
      pt.top_receiver = c.first;
    }
  }
  const double norm = total.value();
  if (norm > 0.0) {
    stats::exact_sum h;
    for (const weight_class& c : classes) {
      if (!(c.weight > 0.0)) continue;
      const double p = c.weight / z;
      if (p > 0.0) h.add_product(c.members, entropy_term(p / norm));
    }
    pt.entropy_bits = h.value();
  }
  pt.identified = pt.top_mass > identified_threshold;
  return pt;
}

trajectory_point summarize_uniform(std::uint32_t receiver_count,
                                   std::uint32_t round,
                                   double identified_threshold) {
  ANONPATH_EXPECTS(receiver_count >= 1);
  // Weight 1 normalizes by exactly receiver_count, so each member's mass is
  // the dense entry 1.0 / receiver_count.
  const weight_class all{1.0, receiver_count, 0};
  return *summarize_classes({&all, 1}, round, identified_threshold);
}

std::optional<trajectory_point> summarize_sparse(
    const std::vector<node_id>& support, const std::vector<double>& weights,
    std::uint32_t round, double identified_threshold) {
  ANONPATH_EXPECTS(weights.size() == support.size());
  std::vector<weight_class> classes(support.size());
  for (std::size_t i = 0; i < support.size(); ++i)
    classes[i] = {weights[i], 1, support[i]};
  return summarize_classes(classes, round, identified_threshold);
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

std::vector<attack_result> run_workload_attack(
    const workload::population& pop, std::uint32_t pair_index,
    std::span<disclosure_attack* const> engines, double identified_threshold,
    std::uint32_t stride) {
  ANONPATH_EXPECTS(pair_index < pop.pairs().size());
  const node_id target = pop.pairs()[pair_index].sender;
  const std::uint32_t rounds = pop.config().round_count;

  // The offline post-process IS the online session fed to the end of the
  // stream — one trajectory/identification implementation, so the
  // online == offline bit-identity holds by construction.
  std::vector<online_attack> sessions;
  sessions.reserve(engines.size());
  for (disclosure_attack* engine : engines) {
    ANONPATH_EXPECTS(engine != nullptr &&
                     engine->receiver_count() == pop.config().receiver_count);
    sessions.emplace_back(*engine, identified_threshold, stride);
  }
  round_observation obs;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    workload::round_batch batch = pop.round(r);
    obs.target_present =
        std::find(batch.senders.begin(), batch.senders.end(), target) !=
        batch.senders.end();
    obs.receivers = std::move(batch.receivers);
    for (online_attack& session : sessions) session.ingest(obs);
  }
  std::vector<attack_result> results;
  results.reserve(sessions.size());
  for (const online_attack& session : sessions)
    results.push_back(session.result());
  return results;
}

attack_result run_workload_attack(const workload::population& pop,
                                  std::uint32_t pair_index,
                                  disclosure_attack& attack,
                                  double identified_threshold,
                                  std::uint32_t stride) {
  disclosure_attack* const engines[] = {&attack};
  return std::move(run_workload_attack(pop, pair_index, engines,
                                       identified_threshold, stride)
                       .front());
}

}  // namespace anonpath::attack
