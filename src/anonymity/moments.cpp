#include "src/anonymity/moments.hpp"

#include <cmath>

#include "src/stats/contract.hpp"

namespace anonpath {

bool moment_signature::feasible(double max_len, double tol) const noexcept {
  if (p0 < -tol || p1 < -tol || p2 < -tol) return false;
  const double tail = m3();
  if (tail < -tol) return false;
  const double tail_weight = mean - p1 - 2.0 * p2;  // = sum_{l>=3} p_l * l
  if (tail <= tol) {
    // No >=3 mass: the mean must be fully explained by lengths 0..2.
    return std::fabs(tail_weight) <= tol;
  }
  // The tail's conditional mean must lie in [3, max_len]. Compared as
  // products, not by dividing by the tail: m3() is a difference of O(1)
  // terms, so its rounding would swamp a quotient when the tail is tiny.
  return tail_weight >= 3.0 * tail - tol && tail_weight <= max_len * tail + tol;
}

moment_signature signature_of(const path_length_distribution& d) {
  return moment_signature{d.pmf(0), d.pmf(1), d.pmf(2), d.mean()};
}

path_length_distribution realize_signature(const moment_signature& sig,
                                           path_length max_len) {
  ANONPATH_EXPECTS(sig.feasible(max_len));
  std::vector<double> pmf(static_cast<std::size_t>(max_len) + 1, 0.0);
  pmf[0] = std::max(0.0, sig.p0);
  if (max_len >= 1) pmf[1] = std::max(0.0, sig.p1);
  if (max_len >= 2) pmf[2] = std::max(0.0, sig.p2);
  const double tail = std::max(0.0, sig.m3());
  if (tail > 0.0) {
    const double tail_mean = (sig.mean - sig.p1 - 2.0 * sig.p2) / tail;
    auto lo = static_cast<path_length>(std::floor(tail_mean));
    lo = std::max<path_length>(3, std::min<path_length>(lo, max_len));
    path_length hi = std::min<path_length>(static_cast<path_length>(lo + 1), max_len);
    if (hi == lo) {
      pmf[lo] += tail;
    } else {
      // Split so the tail's conditional mean is preserved exactly.
      const double frac_hi = tail_mean - static_cast<double>(lo);
      pmf[hi] += tail * std::min(1.0, std::max(0.0, frac_hi));
      pmf[lo] += tail * std::min(1.0, std::max(0.0, 1.0 - frac_hi));
    }
  }
  return path_length_distribution::from_pmf(std::move(pmf));
}

}  // namespace anonpath
