#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/attack/disclosure.hpp"
#include "src/stats/contract.hpp"
#include "src/workload/cooccurrence.hpp"

namespace anonpath::attack {

/// Receivers grouped by their (target_count, background_count) pair — the
/// only per-receiver input of the SDA weight, so a trajectory point needs
/// only each class's size and smallest member. Receivers with a target
/// count of 0 are in no class.
///
/// Each delivery moves one receiver to a neighbouring class: it leaves one
/// class and joins another. Counts cluster on small values, so classes with
/// both counts below k_side sit in a direct grid (8 KB, no hashing); the
/// rest sit in a flat open-addressing table (linear probing, backward-shift
/// deletion) that drops a class when its last member leaves. Both hold
/// exact member counts. The grid is there for speed only: hashing both
/// classes of every delivery made the ingest loop two to three times
/// slower. Its column target = 0 absorbs join and leave for target 0, so
/// the ingest loop needs no branch on whether a receiver has a class.
///
/// Each class keeps `first`, the smallest id that joined it since it last
/// came alive, or a rescan result written back by settle_first. It is at
/// most the smallest member, and equal to it while that receiver is still
/// a member — which the caller checks against the receiver's counts.
class count_class_table {
 public:
  static constexpr std::uint64_t k_side = 32;

  count_class_table();

  /// Receiver r joins class (target, background); a no-op for target 0,
  /// which is no class.
  void join(std::uint64_t target, std::uint64_t background, node_id r) {
    if (in_grid(target, background)) {
      cell& c = grid_[index(target, background)];
      ++c.members;
      if (r < c.first) c.first = r;
    } else if (target > 0) {
      table_join(target, background, r);
    }
  }
  /// One member leaves class (target, background); a no-op for target 0.
  /// Precondition: the class has a member.
  void leave(std::uint64_t target, std::uint64_t background) {
    if (in_grid(target, background)) {
      cell& c = grid_[index(target, background)];
      ANONPATH_EXPECTS(c.members != 0 || target == 0);
      if (--c.members == 0) c.first = k_none;
    } else if (target > 0) {
      table_leave(target, background);
    }
  }

  /// Records r, found by a rescan, as the smallest member of class
  /// (target, background): a cache write that changes no class, hence
  /// const. Precondition: the class is live and r is its smallest member.
  void settle_first(std::uint64_t target, std::uint64_t background,
                    node_id r) const;

  /// Calls f(target, background, members, first) for every live class
  /// (never target 0: the grid's absorbing column, whose counts wrap, is
  /// skipped).
  template <class F>
  void for_each(F&& f) const {
    for (std::uint64_t b = 0; b < k_side; ++b)
      for (std::uint64_t t = 1; t < k_side; ++t) {
        const cell& c = grid_[index(t, b)];
        if (c.members != 0) f(t, b, std::uint64_t{c.members}, c.first);
      }
    for (const entry& e : slots_)
      if (e.members != 0)
        f(e.target, e.background, std::uint64_t{e.members}, e.first);
  }

  /// Bytes held beyond sizeof(count_class_table), which has the grid.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return slots_.capacity() * sizeof(entry);
  }

 private:
  static constexpr node_id k_none = ~node_id{0};

  struct cell {
    std::uint32_t members = 0;
    mutable node_id first = k_none;
  };
  struct entry {
    std::uint64_t target = 0;
    std::uint64_t background = 0;
    std::uint32_t members = 0;  ///< 0 marks an empty slot
    mutable node_id first = 0;
  };

  [[nodiscard]] static bool in_grid(std::uint64_t target,
                                    std::uint64_t background) noexcept {
    return target < k_side && background < k_side;
  }
  [[nodiscard]] static std::size_t index(std::uint64_t target,
                                         std::uint64_t background) noexcept {
    return static_cast<std::size_t>(background * k_side + target);
  }
  void table_join(std::uint64_t target, std::uint64_t background, node_id r);
  void table_leave(std::uint64_t target, std::uint64_t background);
  /// The slot holding the key, or the empty slot ending its probe run.
  [[nodiscard]] std::size_t find(std::uint64_t target,
                                 std::uint64_t background) const noexcept;
  [[nodiscard]] std::size_t home(std::uint64_t target,
                                 std::uint64_t background) const noexcept;

  std::array<cell, k_side * k_side> grid_{};
  std::vector<entry> slots_;
  std::size_t live_ = 0;  ///< live table slots
  int shift_;             ///< 64 - log2(slots_.size())
};

/// The statistical disclosure attack (Danezis's refinement of the
/// Kesdogan–Agrawal disclosure attack): in a target round of m messages one
/// is the target's and m-1 are background, so the expected receiver
/// frequency is (1/m) * delta_partner + ((m-1)/m) * q with q the background
/// law. Estimating q from non-target rounds and subtracting recovers the
/// target's sending distribution — no combinatorial search, so it scales to
/// populations where the exact attack cannot run, at the price of being a
/// statistical estimate with a confidence, not a proof.
class sda_attack final : public disclosure_attack {
 public:
  explicit sda_attack(std::uint32_t receiver_count);

  /// Crisp membership counting (soft weights are the sequential_bayes
  /// refinement; the classic SDA is defined on membership data).
  void observe_round(const round_observation& round) override;

  /// Normalized positive part of signal(); uniform while no target round
  /// (or no positive signal) has been seen. The normalizer is the exactly
  /// rounded sum; with m̄ >= 1 it comes from the count classes.
  [[nodiscard]] std::vector<double> posterior() const override;

  [[nodiscard]] attack_kind kind() const noexcept override {
    return attack_kind::sda;
  }

  /// Bit-identical to summarizing posterior(), in O(#classes): with m̄ >= 1
  /// a receiver outside the target rounds has signal <= 0 and clamps to +0,
  /// and every other receiver's weight is its count class's, so
  /// summarize_classes over the classes adds exactly the terms the dense
  /// sums add, and exactly rounded sums do not care how they are grouped.
  /// A class whose recorded smallest member has left is rescanned (from
  /// that id up) only when it reaches the top mass, and the result is
  /// written back, so each departure costs at most one scan. The uniform
  /// fallback is one class (summarize_uniform); m̄ < 1 (reachable only
  /// through from_counts) takes the dense default.
  [[nodiscard]] trajectory_point summarize(
      std::uint32_t round, double identified_threshold) const override;

  /// Background-subtracted estimate of the target's sending pmf:
  /// m̄·p̂_target − (m̄−1)·q̂ per receiver (may be negative — noise).
  [[nodiscard]] std::vector<double> signal() const;

  /// Per-receiver z-score of the target-round count against the
  /// background-only null (normal approximation with Laplace-smoothed q̂) —
  /// the attack's confidence output. ~N(0,1) for non-partners; grows as
  /// sqrt(target rounds) for the true partner.
  [[nodiscard]] std::vector<double> confidence() const;

  [[nodiscard]] std::uint64_t target_rounds() const noexcept {
    return target_rounds_;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return sizeof(*this) +
           (target_counts_.capacity() + background_counts_.capacity()) *
               sizeof(std::uint64_t) +
           classes_.heap_bytes();
  }

  /// Seeds an attack from a sharded population accumulation — identical
  /// state to streaming the same rounds through observe_round (the
  /// accumulator's membership rule is the same), so population-scale counts
  /// can be gathered in parallel and scored here. `totals` is treated as
  /// untrusted (merged / replayed / deserialized counts): rows out of the
  /// declared receiver population, non-ascending rows, target counts
  /// exceeding their global complement, target rounds/messages exceeding
  /// the totals, and target messages with zero target rounds all throw
  /// parse_error (source "cooccurrence") instead of underflowing or
  /// dividing by zero downstream. Precondition (trusted caller input):
  /// pair_index < totals.per_pair.size().
  [[nodiscard]] static sda_attack from_counts(
      const workload::cooccurrence_result& totals, std::uint32_t pair_index,
      std::uint32_t receiver_count);

 private:
  /// m̄: mean messages per target round. Precondition: target_rounds_ > 0.
  [[nodiscard]] double mean_batch() const;
  /// signal() of a receiver with these counts. Precondition:
  /// target_messages_ > 0.
  [[nodiscard]] double signal_of(std::uint64_t target_count,
                                 std::uint64_t background_count,
                                 double mbar) const;
  /// The live count classes, parallel: each class's signal_of weight,
  /// members and `first`, and its (target, background) key; `stale` lists
  /// the classes whose `first` has left them.
  struct class_weights {
    std::vector<weight_class> classes;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
    std::vector<std::size_t> stale;
  };
  /// Precondition: target_messages_ > 0.
  [[nodiscard]] class_weights weight_classes(double mbar) const;
  /// Smallest receiver >= `from` with these counts: the rescan of a stale
  /// class, which has a member there.
  [[nodiscard]] node_id first_with(std::uint64_t target_count,
                                   std::uint64_t background_count,
                                   node_id from) const;

  std::vector<std::uint64_t> target_counts_;      // per receiver, target rounds
  std::vector<std::uint64_t> background_counts_;  // per receiver, other rounds
  std::uint64_t target_rounds_ = 0;
  std::uint64_t target_messages_ = 0;
  std::uint64_t background_rounds_ = 0;
  std::uint64_t background_messages_ = 0;
  /// The receivers with a target count > 0, by count class.
  count_class_table classes_;
};

}  // namespace anonpath::attack
