#include "src/attack/sketch_sda.hpp"

#include <algorithm>

#include "src/stats/contract.hpp"
#include "src/stats/exact_sum.hpp"

namespace anonpath::attack {

sketch_sda_attack::sketch_sda_attack(std::uint32_t receiver_count,
                                     workload::sketch_params params)
    : disclosure_attack(receiver_count),
      params_(params),
      global_(params.depth, params.width, params.salt),
      target_(params.depth, params.width, params.salt),
      candidates_(params.candidates, params.salt) {
  ANONPATH_EXPECTS(params.valid());
}

void sketch_sda_attack::observe_round(const round_observation& round) {
  // Stream position advances even for skipped rounds so the reservoir
  // priorities (pure functions of (round, slot)) line up with the sharded
  // accumulator's, which indexes by the batch's own round number.
  const std::uint64_t round_index = rounds_seen_++;
  if (round.receivers.empty()) return;
  for (node_id v : round.receivers) {
    ANONPATH_EXPECTS(v < receiver_count_);
    global_.add(v);
  }
  total_messages_ += round.receivers.size();
  if (!round.target_present) return;
  ++target_rounds_;
  target_messages_ += round.receivers.size();
  for (std::size_t j = 0; j < round.receivers.size(); ++j) {
    target_.add(round.receivers[j]);
    candidates_.offer(round.receivers[j],
                      workload::occurrence_priority(params_.salt, round_index,
                                                    j));
  }
}

std::vector<double> sketch_sda_attack::posterior() const {
  // Candidate-restricted sda_attack::signal(), clamped and divided by the
  // exactly rounded sum (zeros where no candidate add nothing), so
  // collision-free instances reproduce sda_attack bit-for-bit.
  std::vector<double> post(receiver_count_, 0.0);
  if (target_messages_ > 0) {
    const std::vector<node_id> keys = candidates();
    const std::vector<double> sig = candidate_signal(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) post[keys[i]] = sig[i];
  }
  stats::exact_sum z;
  for (double& p : post) {
    if (p < 0.0) p = 0.0;
    z.add(p);
  }
  const double norm = z.value();
  if (target_messages_ == 0 || norm <= 0.0) {
    const double u = 1.0 / static_cast<double>(receiver_count_);
    for (double& p : post) p = u;
    return post;
  }
  for (double& p : post) p /= norm;
  return post;
}

std::vector<double> sketch_sda_attack::candidate_signal(
    const std::vector<node_id>& keys) const {
  const std::uint64_t bm = total_messages_ - target_messages_;
  const double mbar = static_cast<double>(target_messages_) /
                      static_cast<double>(target_rounds_);
  std::vector<double> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t tc = target_.estimate(keys[i]);
    const std::uint64_t gc = global_.estimate(keys[i]);
    // Both estimates overestimate independently, so clamp the implied
    // background complement into its feasible range instead of
    // underflowing — the same invariant from_counts enforces on untrusted
    // exact counts.
    const std::uint64_t bc = std::min(gc > tc ? gc - tc : 0, bm);
    const double p_target =
        static_cast<double>(tc) / static_cast<double>(target_messages_);
    const double q = bm > 0 ? static_cast<double>(bc) /
                                  static_cast<double>(bm)
                            : 1.0 / static_cast<double>(receiver_count_);
    out[i] = mbar * p_target - (mbar - 1.0) * q;
  }
  return out;
}

trajectory_point sketch_sda_attack::summarize(
    std::uint32_t round, double identified_threshold) const {
  // posterior() is +0 off the candidates whatever m̄ is, so only the
  // uniform fallback needs the dense default.
  if (target_messages_ > 0) {
    const std::vector<node_id> keys = candidates();
    if (auto pt = summarize_sparse(keys, candidate_signal(keys), round,
                                   identified_threshold))
      return *pt;
  }
  return disclosure_attack::summarize(round, identified_threshold);
}

std::size_t sketch_sda_attack::memory_bytes() const noexcept {
  return sizeof(*this) + global_.memory_bytes() + target_.memory_bytes() +
         candidates_.memory_bytes();
}

std::vector<node_id> sketch_sda_attack::candidates() const {
  std::vector<node_id> out;
  for (std::uint64_t key : candidates_.keys())
    out.push_back(static_cast<node_id>(key));
  return out;
}

std::uint64_t sketch_sda_attack::estimate_target(node_id receiver) const {
  return target_.estimate(receiver);
}

std::uint64_t sketch_sda_attack::estimate_global(node_id receiver) const {
  return global_.estimate(receiver);
}

sketch_sda_attack sketch_sda_attack::from_accumulator(
    const workload::streaming_accumulator& acc, std::uint32_t pair_index,
    std::uint32_t receiver_count) {
  ANONPATH_EXPECTS(acc.config().backend == workload::stream_backend::sketch);
  ANONPATH_EXPECTS(pair_index < acc.pair_senders().size());
  sketch_sda_attack out(receiver_count, acc.config().sketch);
  out.global_ = acc.global_sketch();
  out.target_ = acc.target_sketch(pair_index);
  out.candidates_ = acc.candidate_sample(pair_index);
  out.rounds_seen_ = acc.rounds();
  out.target_rounds_ = acc.target_rounds(pair_index);
  out.target_messages_ = acc.target_messages(pair_index);
  out.total_messages_ = acc.messages();
  return out;
}

}  // namespace anonpath::attack
