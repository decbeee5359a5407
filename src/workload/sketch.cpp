#include "src/workload/sketch.hpp"

#include <algorithm>
#include <bit>

#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::workload {

std::uint64_t sketch_hash(std::uint64_t salt, std::uint64_t row,
                          std::uint64_t key) noexcept {
  // Distinct golden-ratio multiples decorrelate the three inputs before the
  // SplitMix64 finalizer; the +1 keeps row 0 from degenerating to salt^key.
  std::uint64_t state = salt ^ (0x9e3779b97f4a7c15ULL * (row + 1)) ^
                        (key * 0xbf58476d1ce4e5b9ULL);
  return stats::splitmix64(state);
}

std::uint64_t occurrence_priority(std::uint64_t salt, std::uint64_t round,
                                  std::uint64_t slot) noexcept {
  return sketch_hash(salt ^ 0x0cca51a11ca11edULL, round, slot);
}

std::string sketch_params::label() const {
  return "d" + std::to_string(depth) + "w" + std::to_string(width) + "k" +
         std::to_string(candidates);
}

count_min_sketch::count_min_sketch(std::uint32_t depth, std::uint32_t width,
                                   std::uint64_t salt)
    : depth_(depth), width_(width), salt_(salt) {
  ANONPATH_EXPECTS(depth >= 1 && depth <= 16);
  ANONPATH_EXPECTS(width >= 2 && std::has_single_bit(width));
  cells_.assign(static_cast<std::size_t>(depth_) * width_, 0);
}

void count_min_sketch::add(std::uint64_t key, std::uint64_t delta) {
  for (std::uint32_t row = 0; row < depth_; ++row) {
    const std::uint64_t h = sketch_hash(salt_, row, key) & (width_ - 1);
    cells_[static_cast<std::size_t>(row) * width_ + h] += delta;
  }
  total_ += delta;
}

void count_min_sketch::add_twin(std::uint64_t key, count_min_sketch& twin) {
  ANONPATH_EXPECTS(depth_ == twin.depth_ && width_ == twin.width_ &&
                   salt_ == twin.salt_);
  for (std::uint32_t row = 0; row < depth_; ++row) {
    const std::size_t cell = static_cast<std::size_t>(row) * width_ +
                             (sketch_hash(salt_, row, key) & (width_ - 1));
    ++cells_[cell];
    ++twin.cells_[cell];
  }
  ++total_;
  ++twin.total_;
}

std::uint64_t count_min_sketch::estimate(std::uint64_t key) const {
  std::uint64_t best = ~std::uint64_t{0};
  for (std::uint32_t row = 0; row < depth_; ++row) {
    const std::uint64_t h = sketch_hash(salt_, row, key) & (width_ - 1);
    best = std::min(best, cells_[static_cast<std::size_t>(row) * width_ + h]);
  }
  return best;
}

std::uint64_t count_min_sketch::occupied_cells() const noexcept {
  std::uint64_t occupied = 0;
  for (std::uint64_t cell : cells_)
    if (cell != 0) ++occupied;
  return occupied;
}

void count_min_sketch::merge(const count_min_sketch& other) {
  ANONPATH_EXPECTS(depth_ == other.depth_ && width_ == other.width_ &&
                   salt_ == other.salt_);
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  total_ += other.total_;
}

bottom_k_sample::bottom_k_sample(std::uint32_t k, std::uint64_t salt)
    : k_(k), salt_(salt) {
  ANONPATH_EXPECTS(k >= 1);
  heap_.reserve(k_);
  const std::uint64_t cells = std::bit_ceil(4 * std::uint64_t{k_});
  index_.resize(cells);
  shift_ = 64 - std::countr_zero(cells);
}

std::size_t bottom_k_sample::home(std::uint64_t key) const noexcept {
  return (key * 0x9e3779b97f4a7c15ULL) >> shift_;
}

std::size_t bottom_k_sample::find(std::uint64_t key) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(key);
  while (index_[i].pos != k_free && index_[i].key != key) i = (i + 1) & mask;
  return i;
}

void bottom_k_sample::erase_cell(std::size_t i) noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (i + 1) & mask; index_[j].pos != k_free;
       j = (j + 1) & mask) {
    // Cell j may fill the gap at i only if i lies on its probe run, i.e.
    // between its home cell and j (cyclically).
    if (((j - home(index_[j].key)) & mask) >= ((j - i) & mask)) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i].pos = k_free;
}

void bottom_k_sample::place(std::size_t pos, const entry& e) noexcept {
  heap_[pos] = e;
  index_[find(e.second)].pos = static_cast<std::uint32_t>(pos);
}

void bottom_k_sample::sift_up(std::size_t pos) noexcept {
  const entry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(heap_[parent] < e)) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void bottom_k_sample::sift_down(std::size_t pos) noexcept {
  const entry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && heap_[child] < heap_[child + 1]) ++child;
    if (!(e < heap_[child])) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void bottom_k_sample::offer(std::uint64_t key) {
  offer(key, sketch_hash(salt_, 0x5eed, key));
}

void bottom_k_sample::offer(std::uint64_t key, std::uint64_t priority) {
  const std::size_t cell = find(key);
  if (index_[cell].pos != k_free) {
    entry& held = heap_[index_[cell].pos];
    if (priority >= held.first) return;  // not an improvement
    held.first = priority;
    sift_down(index_[cell].pos);  // a smaller entry sinks in a max-heap
    return;
  }
  const entry e{priority, key};
  if (heap_.size() < k_) {
    index_[cell] = {key, static_cast<std::uint32_t>(heap_.size())};
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
    return;
  }
  // Full: whichever of the offer and the top is larger is displaced. An
  // offer above the top is the skip — nothing retained changes.
  saturated_ = true;
  ++evictions_;
  if (heap_.front() < e) return;
  erase_cell(find(heap_.front().second));
  index_[find(key)] = {key, 0};
  heap_.front() = e;
  sift_down(0);
}

void bottom_k_sample::merge(const bottom_k_sample& other) {
  ANONPATH_EXPECTS(k_ == other.k_ && salt_ == other.salt_);
  evictions_ += other.evictions_;  // then re-offering below may add more
  // Ascending (prio, key) order, so the displacements the merge itself
  // causes do not depend on the other side's heap layout.
  std::vector<entry> incoming = other.heap_;
  std::sort(incoming.begin(), incoming.end());
  for (const auto& [prio, key] : incoming) offer(key, prio);
  saturated_ = saturated_ || other.saturated_;
}

std::vector<std::uint64_t> bottom_k_sample::keys() const {
  std::vector<std::uint64_t> out;
  out.reserve(heap_.size());
  for (const auto& [prio, key] : heap_) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace anonpath::workload
