#include "src/stats/rng.hpp"

#include <algorithm>

#include "src/stats/contract.hpp"

namespace anonpath::stats {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

rng::rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro256++ requires a not-all-zero state; SplitMix64 cannot produce
  // four consecutive zeros, but keep the guarantee explicit.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[3] = 1;
}

std::uint64_t rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t rng::next_below(std::uint64_t bound) {
  ANONPATH_EXPECTS(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (-bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t rng::next_int(std::int64_t lo, std::int64_t hi) {
  ANONPATH_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

bool rng::next_bernoulli(double p) {
  ANONPATH_EXPECTS(p >= 0.0 && p <= 1.0);
  return next_double() < p;
}

std::vector<std::uint32_t> rng::sample_distinct(
    std::uint32_t n, std::uint32_t k, const std::vector<std::uint32_t>& exclude) {
  std::vector<std::uint32_t> pool;
  pool.reserve(n);
  std::vector<bool> banned(n, false);
  for (std::uint32_t e : exclude)
    if (e < n) banned[e] = true;
  for (std::uint32_t v = 0; v < n; ++v)
    if (!banned[v]) pool.push_back(v);
  ANONPATH_EXPECTS(k <= pool.size());
  // Partial Fisher-Yates: after i swaps the prefix is a uniform ordered
  // sample without replacement.
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::uint32_t>(next_below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

rng rng::split() noexcept { return rng(next_u64()); }

rng rng::stream(std::uint64_t seed, std::uint64_t stream_index) noexcept {
  // Two SplitMix64 rounds: the first decorrelates the user seed, the second
  // mixes in the stream index via an odd multiplier so that consecutive
  // indices land in unrelated regions of the seed space.
  std::uint64_t s = seed;
  const std::uint64_t base = splitmix64(s);
  std::uint64_t t =
      base ^ (stream_index * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return rng(splitmix64(t));
}

}  // namespace anonpath::stats
