#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/attack/disclosure.hpp"
#include "src/workload/streaming.hpp"

namespace anonpath::attack {

/// Configuration of an owning online_attack session.
struct online_config {
  attack_kind kind = attack_kind::sda;
  /// Engine state backend. `sketch` is available for the counting attack
  /// (sda) only — intersection and sequential_bayes keep per-candidate
  /// state a sketch cannot represent.
  workload::stream_backend backend = workload::stream_backend::exact;
  workload::sketch_params sketch{};          ///< sketch backend only
  sequential_bayes_config bayes{};           ///< sequential_bayes only
  double identified_threshold = 0.99;        ///< in (0, 1)
  std::uint32_t stride = 1;                  ///< trajectory sampling stride

  [[nodiscard]] bool valid() const noexcept {
    return kind != attack_kind::none && stride >= 1 &&
           identified_threshold > 0.0 && identified_threshold < 1.0 &&
           sketch.valid() &&
           (backend == workload::stream_backend::exact ||
            kind == attack_kind::sda);
  }
};

/// An online inference session: rounds are ingested as they arrive and the
/// posterior / trajectory can be queried at any stream position — no
/// finished run required. The offline post-processors
/// (run_workload_attack, the simulator's session scoring) are implemented
/// on this type, so "online equals offline" holds by construction: feeding
/// the same observation stream yields bit-identical posteriors and
/// trajectories.
class online_attack {
 public:
  /// Owning session: builds its own engine from `cfg`.
  /// Preconditions: receiver_count >= 2; cfg.valid().
  online_attack(std::uint32_t receiver_count, online_config cfg);

  /// Non-owning session over a caller-supplied engine (the offline
  /// runners' path). Preconditions: stride >= 1; threshold in (0, 1).
  online_attack(disclosure_attack& engine, double identified_threshold,
                std::uint32_t stride = 1);

  /// Consumes the next round of the stream. Samples a trajectory point
  /// every `stride` rounds.
  void ingest(const round_observation& obs);

  [[nodiscard]] std::uint32_t rounds_ingested() const noexcept {
    return rounds_;
  }

  /// Posterior snapshot at the current stream position.
  [[nodiscard]] std::vector<double> posterior() const {
    return engine_->posterior();
  }

  /// Trajectory-point snapshot at the current stream position (computed on
  /// demand; rounds_ingested() == 0 summarizes the uniform prior).
  [[nodiscard]] trajectory_point snapshot() const;

  /// Stride-sampled trajectory so far.
  [[nodiscard]] const std::vector<trajectory_point>& trajectory()
      const noexcept {
    return trajectory_;
  }

  /// First sampled round whose top mass crossed the threshold.
  [[nodiscard]] std::optional<std::uint32_t> identified_round()
      const noexcept {
    return identified_round_;
  }

  /// The completed-run view at the current position: the stride-sampled
  /// trajectory (always including a final point at the current round, even
  /// for an empty stream) and its summary fields — exactly what the offline
  /// post-process returns on the same stream. The posterior stays a
  /// separate query (posterior()), so a result costs no dense vector.
  [[nodiscard]] attack_result result() const;

  [[nodiscard]] const disclosure_attack& engine() const noexcept {
    return *engine_;
  }

  /// Resident engine state (the trajectory buffer excluded).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return engine_->memory_bytes();
  }

 private:
  std::unique_ptr<disclosure_attack> owned_;  ///< null in non-owning mode
  disclosure_attack* engine_;
  double identified_threshold_;
  std::uint32_t stride_;
  std::uint32_t rounds_ = 0;
  std::vector<trajectory_point> trajectory_;
  std::optional<std::uint32_t> identified_round_;
};

/// Engine factory over (kind, backend): the online analogue of
/// make_attack, returning sketch_sda_attack for (sda, sketch).
/// Preconditions: cfg.valid(); receiver_count >= 2.
[[nodiscard]] std::unique_ptr<disclosure_attack> make_online_engine(
    std::uint32_t receiver_count, const online_config& cfg);

}  // namespace anonpath::attack
