#include "src/attack/online.hpp"

#include "src/attack/sketch_sda.hpp"
#include "src/stats/contract.hpp"

namespace anonpath::attack {

std::unique_ptr<disclosure_attack> make_online_engine(
    std::uint32_t receiver_count, const online_config& cfg) {
  ANONPATH_EXPECTS(cfg.valid());
  if (cfg.backend == workload::stream_backend::sketch)
    return std::make_unique<sketch_sda_attack>(receiver_count, cfg.sketch);
  return make_attack(cfg.kind, receiver_count, cfg.bayes);
}

online_attack::online_attack(std::uint32_t receiver_count, online_config cfg)
    : owned_(make_online_engine(receiver_count, cfg)),
      engine_(owned_.get()),
      identified_threshold_(cfg.identified_threshold),
      stride_(cfg.stride) {}

online_attack::online_attack(disclosure_attack& engine,
                             double identified_threshold, std::uint32_t stride)
    : engine_(&engine),
      identified_threshold_(identified_threshold),
      stride_(stride) {
  ANONPATH_EXPECTS(stride >= 1);
  ANONPATH_EXPECTS(identified_threshold > 0.0 && identified_threshold < 1.0);
}

void online_attack::ingest(const round_observation& obs) {
  engine_->observe_round(obs);
  ++rounds_;
  if (rounds_ % stride_ == 0) {
    const trajectory_point pt = snapshot();
    if (pt.identified && !identified_round_) identified_round_ = pt.round;
    trajectory_.push_back(pt);
  }
}

trajectory_point online_attack::snapshot() const {
  return engine_->summarize(rounds_, identified_threshold_);
}

attack_result online_attack::result() const {
  attack_result res;
  res.rounds = rounds_;
  res.trajectory = trajectory_;
  res.identified_round = identified_round_;
  // The offline runners always close the trajectory at the last round; an
  // online session closes it at the *current* round (including round 0 for
  // an empty stream, where the posterior is the uniform prior).
  if (rounds_ % stride_ != 0 || rounds_ == 0) {
    const trajectory_point pt = snapshot();
    if (pt.identified && !res.identified_round)
      res.identified_round = pt.round;
    res.trajectory.push_back(pt);
  }
  const trajectory_point& last = res.trajectory.back();
  res.top_receiver = last.top_receiver;
  res.top_mass = last.top_mass;
  res.entropy_bits = last.entropy_bits;
  return res;
}

}  // namespace anonpath::attack
