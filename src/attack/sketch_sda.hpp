#pragma once

#include <cstdint>
#include <vector>

#include "src/attack/disclosure.hpp"
#include "src/workload/sketch.hpp"
#include "src/workload/streaming.hpp"

namespace anonpath::attack {

/// The statistical disclosure attack on sketched counts: identical
/// background-subtraction math to sda_attack, but the per-receiver counts
/// live in two count-min sketches (all deliveries; target-round deliveries)
/// and the scoring is restricted to a weighted bottom-k candidate reservoir
/// of target-round receivers — so resident state is
/// O(depth*width + candidates), independent of the receiver population.
///
/// Conformance contract: on instances where the sketches are collision-free
/// and the reservoir is unsaturated, posterior() is bit-identical to
/// sda_attack on the same stream (both normalize by the exactly rounded
/// sum of the same clamped terms). In general, estimates never underestimate the true
/// counts and overestimate by more than error_bound() with probability at
/// most 2^-depth per key.
class sketch_sda_attack final : public disclosure_attack {
 public:
  /// Preconditions: receiver_count >= 2; params.valid().
  sketch_sda_attack(std::uint32_t receiver_count,
                    workload::sketch_params params = {});

  /// Crisp membership counting, mirroring sda_attack: zero deliveries is
  /// loss, not evidence (but still advances the stream position that the
  /// reservoir priorities hash, so online ingestion and the sharded
  /// accumulator draw identical priorities for identical deliveries).
  void observe_round(const round_observation& round) override;

  /// Normalized positive part of the candidate-restricted signal; uniform
  /// while no target round (or no positive signal) has been seen.
  [[nodiscard]] std::vector<double> posterior() const override;

  [[nodiscard]] attack_kind kind() const noexcept override {
    return attack_kind::sda;
  }

  /// Bit-identical to summarizing posterior(), at O(candidates): the dense
  /// posterior is +0 off the reservoir. The uniform fallback takes the
  /// dense default.
  [[nodiscard]] trajectory_point summarize(
      std::uint32_t round, double identified_threshold) const override;

  [[nodiscard]] std::size_t memory_bytes() const noexcept override;

  /// Candidate receivers currently retained, ascending.
  [[nodiscard]] std::vector<node_id> candidates() const;

  /// True once the reservoir dropped a distinct target-round receiver.
  [[nodiscard]] bool candidates_saturated() const noexcept {
    return candidates_.saturated();
  }

  /// Count-min point estimates (never below the true count).
  [[nodiscard]] std::uint64_t estimate_target(node_id receiver) const;
  [[nodiscard]] std::uint64_t estimate_global(node_id receiver) const;

  /// Per-key overestimate bound for estimate_global (the larger of the two
  /// sketches' bounds; estimate_target's own bound is tighter).
  [[nodiscard]] std::uint64_t error_bound() const noexcept {
    return global_.error_bound();
  }

  [[nodiscard]] std::uint64_t target_rounds() const noexcept {
    return target_rounds_;
  }
  /// Reservoir displacements so far — ingest-order-dependent telemetry
  /// (see workload::bottom_k_sample::evictions); feeds the obs layer only,
  /// never a correctness contract.
  [[nodiscard]] std::uint64_t reservoir_evictions() const noexcept {
    return candidates_.evictions();
  }

  /// Non-zero cells across both count-min sketches — the occupancy gauge
  /// (order- and shard-invariant, unlike the eviction count).
  [[nodiscard]] std::uint64_t occupied_cells() const noexcept {
    return global_.occupied_cells() + target_.occupied_cells();
  }

  [[nodiscard]] const workload::sketch_params& params() const noexcept {
    return params_;
  }

  /// Seeds an attack from a sketch-backend streaming accumulation: the
  /// sketches are copied cell-for-cell, so the result is bit-identical to
  /// streaming the same rounds through observe_round in round order — the
  /// sketch analogue of sda_attack::from_counts, enabling parallel sharded
  /// gathering at population scale. Preconditions: acc uses the sketch
  /// backend; pair_index < acc.pair_senders().size().
  [[nodiscard]] static sketch_sda_attack from_accumulator(
      const workload::streaming_accumulator& acc, std::uint32_t pair_index,
      std::uint32_t receiver_count);

 private:
  /// The background-subtracted signal at each of `keys` (candidate ids).
  /// Precondition: target_messages_ > 0.
  [[nodiscard]] std::vector<double> candidate_signal(
      const std::vector<node_id>& keys) const;

  workload::sketch_params params_;
  workload::count_min_sketch global_;  ///< every delivery, all rounds
  workload::count_min_sketch target_;  ///< deliveries in target rounds
  workload::bottom_k_sample candidates_;
  std::uint64_t rounds_seen_ = 0;  ///< stream position (incl. empty rounds)
  std::uint64_t target_rounds_ = 0;
  std::uint64_t target_messages_ = 0;
  std::uint64_t total_messages_ = 0;
};

}  // namespace anonpath::attack
