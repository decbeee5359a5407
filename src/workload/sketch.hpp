#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace anonpath::workload {

/// Sketch-backend shape shared by the streaming accumulator and the
/// sketch-backed attacks. Memory per sketch is depth*width counters, so the
/// footprint is independent of the receiver population — the sublinear
/// half of the streaming contract. All hashing is salted SplitMix64, so a
/// given (params, input multiset) pair produces bit-identical sketches on
/// every platform, thread count, and ingest order.
struct sketch_params {
  std::uint32_t depth = 4;         ///< count-min rows (error prob ~ 2^-depth)
  std::uint32_t width = 4096;      ///< counters per row, a power of two
                                   ///< (error ~ 2N/width)
  std::uint32_t candidates = 512;  ///< bottom-k distinct-receiver sample size
  std::uint64_t salt = 0x1d0dca11ab1e5eedULL;  ///< hash-family seed

  [[nodiscard]] bool valid() const noexcept {
    return depth >= 1 && depth <= 16 && width >= 2 &&
           std::has_single_bit(width) && candidates >= 1;
  }

  /// Compact label, e.g. "d4w4096k512" — stable for CSV/CLI surfaces.
  [[nodiscard]] std::string label() const;

  friend bool operator==(const sketch_params&, const sketch_params&) = default;
};

/// Count-min sketch (Cormode–Muthukrishnan) over 64-bit keys: `depth` rows
/// of `width` counters, each row hashing with an independent salted
/// function. Point estimates never underestimate the true count; the
/// overestimate for any fixed key exceeds 2*total()/width with probability
/// at most 2^-depth (Markov per row, rows independent). Merging commutes
/// and is cellwise, so sharded ingestion is bit-identical to sequential.
class count_min_sketch {
 public:
  /// Preconditions: depth in [1, 16]; width >= 2 and a power of two (a
  /// row index is the hash's low bits).
  count_min_sketch(std::uint32_t depth, std::uint32_t width,
                   std::uint64_t salt);

  /// Adds `delta` occurrences of `key`.
  void add(std::uint64_t key, std::uint64_t delta = 1);

  /// Adds one occurrence of `key` here and in `twin`, hashing the key once:
  /// same-shaped sketches index the same cells. Precondition: identical
  /// depth, width, and salt.
  void add_twin(std::uint64_t key, count_min_sketch& twin);

  /// Point estimate: min over rows. Always >= the true count of `key`.
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const;

  /// Total weight added (the N of the error bound).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Deterministic per-key overestimate bound: 2*total()/width, exceeded
  /// with probability <= 2^-depth. Callers conformance-pin estimates
  /// against exact counts with this.
  [[nodiscard]] std::uint64_t error_bound() const noexcept {
    return 2 * total_ / width_;
  }

  /// Cellwise sum. Precondition: identical depth, width, and salt.
  void merge(const count_min_sketch& other);

  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t salt() const noexcept { return salt_; }

  /// Non-zero counter cells (of depth()*width() total) — the occupancy
  /// gauge the obs layer reports. A pure function of the ingested key
  /// multiset, so it is order- and shard-invariant. O(depth*width).
  [[nodiscard]] std::uint64_t occupied_cells() const noexcept;
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cells_.capacity() * sizeof(std::uint64_t) + sizeof(*this);
  }

  friend bool operator==(const count_min_sketch&,
                         const count_min_sketch&) = default;

 private:
  std::uint32_t depth_;
  std::uint32_t width_;
  std::uint64_t salt_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> cells_;  // depth_ * width_, row-major
};

/// Bottom-k (KMV) sample of *distinct* keys: keeps the k keys with the
/// smallest salted hash priority. Because the priority is a pure function
/// of (salt, key), the retained set depends only on the set of distinct
/// keys offered — not on offer order, multiplicity, or how the stream was
/// sharded — so merges are deterministic and shard-invariant. Serves as
/// the candidate-receiver reservoir of the sketch backend: the count-min
/// sketch answers "how often", this answers "which keys to even ask about".
///
/// Layout: a flat max-heap of (priority, key) holding at most k entries and
/// an open-addressing key -> heap-slot index, both allocated from k at
/// construction. Once k entries are held, an offer ordered above the heap
/// top changes nothing retained and costs one index probe (the skip), so a
/// long stream is mostly skips.
class bottom_k_sample {
 public:
  /// Preconditions: k >= 1.
  bottom_k_sample(std::uint32_t k, std::uint64_t salt);

  /// Offers `key` with priority = sketch_hash(salt, key): a uniform sample
  /// of distinct keys.
  void offer(std::uint64_t key);

  /// Offers `key` with an explicit priority; a key's effective priority is
  /// the MINIMUM over all its offers. Feeding one per-occurrence priority
  /// (hashed from stream-intrinsic coordinates such as (round, slot)) makes
  /// this a weighted distinct sample: a key offered c times survives like
  /// the minimum of c uniforms, so heavy hitters are retained first — while
  /// staying a pure function of the offered (key, priority) multiset, hence
  /// order- and shard-invariant.
  void offer(std::uint64_t key, std::uint64_t priority);

  /// Union of retained sets, re-trimmed to k. Precondition: same k, salt.
  void merge(const bottom_k_sample& other);

  /// Retained keys, ascending by key (not by priority).
  [[nodiscard]] std::vector<std::uint64_t> keys() const;

  /// True once more than k distinct keys have been offered — the sample is
  /// then a proper (uniform, by hash order) subset of the distinct keys.
  [[nodiscard]] bool saturated() const noexcept { return saturated_; }

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// Heap and index as allocated at construction: O(k), whatever the stream.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return heap_.capacity() * sizeof(entry) +
           index_.capacity() * sizeof(slot) + sizeof(*this);
  }

  /// Entries displaced from the reservoir so far (merge sums both sides'
  /// counts plus any displacements the merge itself causes). Telemetry of
  /// work done: it depends on offer order — unlike the retained set, which
  /// stays order- and shard-invariant — so it feeds the obs layer, never a
  /// correctness contract.
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  using entry = std::pair<std::uint64_t, std::uint64_t>;  // (prio, key)
  static constexpr std::uint32_t k_free = ~std::uint32_t{0};
  /// An index cell: `key` sits at heap_[pos]; pos == k_free marks it empty.
  struct slot {
    std::uint64_t key = 0;
    std::uint32_t pos = k_free;
  };

  /// The cell a probe for `key` starts at (Fibonacci hashing).
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept;
  /// The cell holding `key`, or the empty cell ending its probe run.
  [[nodiscard]] std::size_t find(std::uint64_t key) const noexcept;
  /// Empties cell `i`, shifting its probe run back over the gap.
  void erase_cell(std::size_t i) noexcept;
  /// Writes `e` to heap_[pos] and points its key's index cell there.
  void place(std::size_t pos, const entry& e) noexcept;
  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;

  std::uint32_t k_;
  std::uint64_t salt_;
  bool saturated_ = false;
  std::uint64_t evictions_ = 0;
  std::vector<entry> heap_;  ///< max-heap by (prio, key); capacity k
  /// key -> heap position, linear probing over a power of two >= 4k cells:
  /// at most a quarter full, so the miss that decides a skipped offer ends
  /// after about one probe (half full took twice the reservoir time).
  std::vector<slot> index_;
  int shift_;  ///< 64 - log2(index_.size()): home() keeps the top bits
};

/// The salted hash both sketches are built on: SplitMix64 over a mix of
/// (salt, row, key). Exposed so tests can pin collision structure.
[[nodiscard]] std::uint64_t sketch_hash(std::uint64_t salt, std::uint64_t row,
                                        std::uint64_t key) noexcept;

/// The candidate-reservoir priority for message slot `slot` of round
/// `round`: a pure function of stream-intrinsic coordinates, so every
/// ingestion path (online observer, sharded accumulator) draws the same
/// priority for the same delivery and the weighted bottom-k sample stays
/// order- and shard-invariant.
[[nodiscard]] std::uint64_t occurrence_priority(std::uint64_t salt,
                                                std::uint64_t round,
                                                std::uint64_t slot) noexcept;

}  // namespace anonpath::workload
