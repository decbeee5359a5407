#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/workload/cooccurrence.hpp"
#include "src/workload/population.hpp"
#include "src/workload/sketch.hpp"

namespace anonpath::workload {

/// Which state the streaming accumulator keeps per ingested round.
///   * exact  — flat 16-byte (receiver, count) rows per pair and
///              globally, growing with the distinct receivers seen;
///              totals() is bit-identical to accumulate_cooccurrence over
///              the same rounds.
///   * sketch — count-min counts plus a weighted bottom-k candidate
///              reservoir per pair; memory is O(depth*width + candidates),
///              independent of the receiver population, with per-key error
///              bounds conformance-pinned to the exact backend.
enum class stream_backend : std::uint8_t { exact, sketch };

/// Stable short label ("exact", "sketch").
[[nodiscard]] const char* stream_backend_label(stream_backend backend) noexcept;

/// Parses a label; nullopt on unknown input.
[[nodiscard]] std::optional<stream_backend> parse_stream_backend(
    const std::string& label);

struct streaming_config {
  stream_backend backend = stream_backend::exact;
  sketch_params sketch{};  ///< sketch backend only

  [[nodiscard]] bool valid() const noexcept { return sketch.valid(); }

  friend bool operator==(const streaming_config&,
                         const streaming_config&) = default;
};

/// Online co-occurrence accumulation: ingests mix rounds one at a time, in
/// any order, with empty and partial streams first-class (zero rounds is an
/// empty accumulation, not an error). Accumulators over disjoint round
/// ranges merge into exactly the state sequential ingestion of the union
/// would have produced — integer counts, commutative sketch cells, and
/// min-priority reservoirs make the merge order-free — so the sharded
/// driver below is bit-identical to a single-threaded pass for every
/// thread/shard split, the same contract as accumulate_cooccurrence.
class streaming_accumulator {
 public:
  /// `pair_senders[i]` is the persistent sender of tracked pair i (the
  /// population::pairs() order). Senders are distinct by construction.
  /// Precondition: cfg.valid().
  explicit streaming_accumulator(std::vector<node_id> pair_senders,
                                 streaming_config cfg = {});

  /// Ingests one round. Membership rule matches accumulate_cooccurrence:
  /// a round is a target round for pair p iff p's sender appears in the
  /// round's sender multiset.
  void ingest(const round_batch& batch);

  /// Folds another accumulator (over a disjoint round range) into this one.
  /// Precondition: identical pair_senders and config.
  void merge(const streaming_accumulator& other);

  [[nodiscard]] const streaming_config& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] const std::vector<node_id>& pair_senders() const noexcept {
    return pair_senders_;
  }
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t target_rounds(std::uint32_t pair) const;
  [[nodiscard]] std::uint64_t target_messages(std::uint32_t pair) const;

  /// Exact backend only: the accumulated counts, bit-identical to
  /// accumulate_cooccurrence over the same rounds (which is now implemented
  /// on top of this type). Precondition: exact backend.
  [[nodiscard]] cooccurrence_result totals() const;

  /// Sketch backend only: count-min point estimates (never underestimate;
  /// overestimate bounded by count_min_sketch::error_bound with probability
  /// >= 1 - 2^-depth), and whether the per-pair candidate-receiver
  /// reservoir (weighted by target-round frequency) truncated.
  [[nodiscard]] std::uint64_t estimate_global(node_id receiver) const;
  [[nodiscard]] std::uint64_t estimate_target(std::uint32_t pair,
                                              node_id receiver) const;
  [[nodiscard]] bool candidates_saturated(std::uint32_t pair) const;

  /// Sketch backend only: the raw structures, so sketch-backed attacks can
  /// seed themselves with bit-identical state (sketch_sda_attack::
  /// from_accumulator).
  [[nodiscard]] const count_min_sketch& global_sketch() const;
  [[nodiscard]] const count_min_sketch& target_sketch(
      std::uint32_t pair) const;
  [[nodiscard]] const bottom_k_sample& candidate_sample(
      std::uint32_t pair) const;

  /// Resident state, both backends: exact grows with distinct receivers
  /// seen; sketch is constant in the receiver population.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Exact counts as one flat vector: an ascending, duplicate-free run of
  /// (receiver, count) rows followed by an unsorted pending tail. The tail
  /// is folded into the run once it grows as large as the run, so ingest
  /// and merge cost amortised O(log n) per row and stay contiguous.
  class flat_counts {
   public:
    /// Appends one count per receiver occurrence.
    void add(const std::vector<node_id>& receivers);
    /// Appends every row of `other` (run and tail alike).
    void append(const flat_counts& other);
    /// The counts as ascending, duplicate-free rows.
    [[nodiscard]] receiver_counts compacted() const;
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
      return rows_.capacity() * sizeof(receiver_counts::value_type);
    }

   private:
    void fold_if_due();
    receiver_counts rows_;
    std::size_t sorted_ = 0;  ///< rows_[0, sorted_) is the ascending run
  };
  struct exact_pair {
    std::uint64_t target_rounds = 0;
    std::uint64_t target_messages = 0;
    flat_counts receivers;
  };
  struct sketch_pair {
    std::uint64_t target_rounds = 0;
    std::uint64_t target_messages = 0;
    count_min_sketch target;
    bottom_k_sample candidates;
  };

  streaming_config cfg_;
  std::vector<node_id> pair_senders_;
  /// (sender, pair index), ascending by sender — the membership scan table.
  std::vector<std::pair<node_id, std::uint32_t>> pair_of_sender_;
  std::uint64_t rounds_ = 0;
  std::uint64_t messages_ = 0;
  // Exact backend state.
  flat_counts global_;
  std::vector<exact_pair> exact_pairs_;
  // Sketch backend state.
  std::optional<count_min_sketch> global_sketch_;
  std::vector<sketch_pair> sketch_pairs_;
  std::vector<std::uint32_t> present_;  // scratch: pairs present this round
};

/// Sharded parallel driver: streams rounds [lo, hi) of `pop` through
/// per-shard accumulators (contiguous ranges, fanned out over a
/// stats::thread_pool) and merges them in ascending shard order.
/// Bit-identical for every thread and shard count, and to sequential
/// ingestion. Empty ranges (lo == hi, including zero-round populations)
/// return an empty accumulator. Preconditions: lo <= hi <= round_count;
/// scfg.valid().
[[nodiscard]] streaming_accumulator accumulate_streaming(
    const population& pop, std::uint32_t lo, std::uint32_t hi,
    const streaming_config& scfg = {}, const cooccurrence_config& ccfg = {});

}  // namespace anonpath::workload
