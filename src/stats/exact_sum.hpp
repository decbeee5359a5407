#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/stats/contract.hpp"

namespace anonpath::stats {

/// Exactly rounded sum of doubles: a superaccumulator that holds the sum as
/// a fixed-point integer over the whole double range (units of 2^-1074) and
/// rounds once, to nearest-even, in value(). The result is the exact sum
/// rounded, so it does not depend on the order of the additions, and
/// add_product(n, x) gives the same value() as n calls of add(x) — which is
/// what lets a sum over classes of equal terms reproduce the sum over every
/// term bit for bit. Non-finite inputs make value() their IEEE sum.
class exact_sum {
 public:
  void add(double x) noexcept {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    std::uint64_t mant = bits & k_mant_mask;
    int exp = static_cast<int>((bits >> 52) & 0x7ff);
    if (exp == 0x7ff) {
      special_ += x;
      has_special_ = true;
      return;
    }
    if (exp == 0) {
      if (mant == 0) return;  // ±0 adds nothing
      exp = 1;                // subnormal: same scale as the least normal
    } else {
      mant |= k_mant_mask + 1;
    }
    // x = ±mant · 2^(exp-1075): its least bit sits at fixed-point bit
    // exp-1. Split the <= 53-bit mantissa into 32-bit limb pieces.
    const int low = exp - 1;
    const int limb = low >> 5;
    const int shift = low & 31;
    const std::uint64_t a = (mant & k_limb_mask) << shift;  // <= 63 bits
    const std::uint64_t b = (mant >> 32) << shift;          // <= 52 bits
    const auto p0 = static_cast<std::int64_t>(a & k_limb_mask);
    const auto p1 = static_cast<std::int64_t>((a >> 32) + (b & k_limb_mask));
    const auto p2 = static_cast<std::int64_t>(b >> 32);
    if (bits >> 63) {
      limbs_[limb] -= p0;
      limbs_[limb + 1] -= p1;
      limbs_[limb + 2] -= p2;
    } else {
      limbs_[limb] += p0;
      limbs_[limb + 1] += p1;
      limbs_[limb + 2] += p2;
    }
    // Each piece is below 2^33, so a limb absorbs 2^29 of them with room to
    // spare before its carries must be pushed up.
    if (++pending_ == k_carry_every) {
      carry(limbs_);
      pending_ = 0;
    }
  }

  /// Adds n·x exactly: an fma two-product splits it into p + e with both
  /// terms doubles. Exact for any finite x while n <= 2^53 and n·x does not
  /// overflow (the error term is then a representable multiple of x's ulp).
  void add_product(std::uint64_t n, double x) {
    ANONPATH_EXPECTS(n <= (std::uint64_t{1} << 53));
    const double nd = static_cast<double>(n);
    const double p = nd * x;
    add(p);
    add(std::fma(nd, x, -p));
  }

  /// The exact sum rounded to nearest, ties to even; +0 when it is zero.
  [[nodiscard]] double value() const noexcept {
    if (has_special_) return special_;
    limb_array v = limbs_;
    carry(v);
    const bool negative = v[k_limbs - 1] < 0;
    if (negative) {
      for (std::int64_t& l : v) l = -l;
      carry(v);
    }
    int top = k_limbs - 1;
    while (top >= 0 && v[top] == 0) --top;
    if (top < 0) return 0.0;
    const auto bit = [&v](int i) {
      return (static_cast<std::uint64_t>(v[i >> 5]) >> (i & 31)) & 1;
    };
    const int high = 32 * top + 63 - std::countl_zero(
                                         static_cast<std::uint64_t>(v[top]));
    if (high > k_top_bit)  // at or past 2^1024
      return negative ? -HUGE_VAL : HUGE_VAL;
    // Below 53 significant bits the sum is an exact multiple of 2^-1074
    // (subnormal or the least normals); otherwise keep 53 bits and round.
    const int lo = high <= 52 ? 0 : high - 52;
    std::uint64_t mant = 0;
    for (int i = high; i >= lo; --i) mant = (mant << 1) | bit(i);
    if (lo > 0 && bit(lo - 1) != 0) {
      bool sticky = (mant & 1) != 0;
      const int round_limb = (lo - 1) >> 5;
      const std::uint64_t below =
          (std::uint64_t{1} << ((lo - 1) & 31)) - 1;
      sticky = sticky ||
               (static_cast<std::uint64_t>(v[round_limb]) & below) != 0;
      for (int l = 0; l < round_limb && !sticky; ++l) sticky = v[l] != 0;
      if (sticky) ++mant;  // 2^53 on carry-out: still exact in a double
    }
    const double magnitude = std::ldexp(static_cast<double>(mant), lo - 1074);
    return negative ? -magnitude : magnitude;
  }

 private:
  // Fixed-point bits 0..2097 hold every finite double; the spare limbs take
  // the carries of up to 2^62 additions of the largest ones.
  static constexpr int k_limbs = 68;
  static constexpr int k_top_bit = 2097;
  static constexpr std::uint64_t k_mant_mask = (std::uint64_t{1} << 52) - 1;
  static constexpr std::uint64_t k_limb_mask = 0xffffffffu;
  static constexpr std::uint32_t k_carry_every = std::uint32_t{1} << 29;
  using limb_array = std::array<std::int64_t, k_limbs>;

  /// Propagates carries upward so every limb but the top one is in
  /// [0, 2^32); the top limb carries the sign.
  static void carry(limb_array& v) noexcept {
    for (int i = 0; i + 1 < k_limbs; ++i) {
      const std::int64_t c = v[i] >> 32;  // floor division by 2^32
      v[i] &= static_cast<std::int64_t>(k_limb_mask);
      v[i + 1] += c;
    }
  }

  limb_array limbs_{};
  std::uint32_t pending_ = 0;
  bool has_special_ = false;
  double special_ = 0.0;
};

}  // namespace anonpath::stats
