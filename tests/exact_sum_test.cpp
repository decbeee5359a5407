#include "src/stats/exact_sum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::stats {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double sum_of(const std::vector<double>& xs) {
  exact_sum s;
  for (double x : xs) s.add(x);
  return s.value();
}

/// Every permutation of `xs` (sorted first, so next_permutation visits all)
/// sums to `expected`, bit for bit.
void expect_every_order(std::vector<double> xs, double expected) {
  std::sort(xs.begin(), xs.end());
  do {
    EXPECT_TRUE(same_bits(sum_of(xs), expected))
        << sum_of(xs) << " vs " << expected;
  } while (std::next_permutation(xs.begin(), xs.end()));
}

TEST(ExactSum, EmptyAndZerosAreEmptyPlusZero) {
  EXPECT_TRUE(same_bits(exact_sum{}.value(), 0.0));
  EXPECT_TRUE(same_bits(sum_of({-0.0, -0.0}), 0.0));
  EXPECT_TRUE(same_bits(sum_of({1.5, -1.5}), 0.0));
}

TEST(ExactSum, CancellationIsExactInEveryOrder) {
  // Naive and compensated sums both depend on the order here.
  expect_every_order({1e16, 1.0, -1e16}, 1.0);
  expect_every_order({1e308, 1e-308, -1e308, 3.0}, 3.0);
  expect_every_order({0x1p53, 1.0, -0x1p53, 0x1p-50}, 1.0 + 0x1p-50);
  // double(0.1) + double(0.2) - double(0.3) is exactly 2^-55.
  expect_every_order({0.1, 0.2, -0.3, 1e-20}, 0x1p-55 + 1e-20);
}

TEST(ExactSum, SubnormalsSumExactly) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  expect_every_order({tiny, 3 * tiny, -2 * tiny}, 2 * tiny);
  expect_every_order({0x1p-1022, -tiny, tiny * 5, 1.0, -1.0},
                     0x1p-1022 + 4 * tiny);
  // Subnormals against a large term: below its ulp, so they round away —
  // unless they tip a tie.
  expect_every_order({1.0, tiny, -tiny}, 1.0);
  expect_every_order({1.0, 0x1p-53, tiny}, std::nextafter(1.0, 2.0));
}

TEST(ExactSum, RoundsOnceToNearestEven) {
  // 2^53 + 1 is a tie between 2^53 and 2^53 + 2: even wins...
  expect_every_order({0x1p53, 1.0}, 0x1p53);
  // ...2^53 + 3 is a tie between 2^53 + 2 and 2^53 + 4: even is + 4...
  expect_every_order({0x1p53, 2.0, 1.0}, 0x1p53 + 4.0);
  // ...and any bit below the tie breaks it upward.
  expect_every_order({0x1p53, 1.0, 0x1p-900}, 0x1p53 + 2.0);
  expect_every_order({-0x1p53, -1.0, -0x1p-900}, -0x1p53 - 2.0);
}

TEST(ExactSum, MixedSignsAgreeWithAnIntegerReference) {
  // Doubles k * 2^-10 with |k| < 2^53: their exact sum is an int64 times
  // 2^-10, and int64 -> double conversion rounds to nearest even — an
  // exactly rounded reference.
  rng gen(5);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(gen.next_below(40));
    std::vector<double> xs;
    std::int64_t k_sum = 0;
    for (int i = 0; i < n; ++i) {
      const int bits = 1 + static_cast<int>(gen.next_below(53));
      auto k = static_cast<std::int64_t>(gen.next_below(std::uint64_t{1}
                                                         << bits));
      if (gen.next_below(2) == 0) k = -k;
      k_sum += k;
      xs.push_back(std::ldexp(static_cast<double>(k), -10));
    }
    const double reference =
        std::ldexp(static_cast<double>(k_sum), -10);
    EXPECT_TRUE(same_bits(sum_of(xs), reference))
        << "trial " << trial << ": " << sum_of(xs) << " vs " << reference;
    // The reverse order too.
    std::reverse(xs.begin(), xs.end());
    EXPECT_TRUE(same_bits(sum_of(xs), reference)) << "trial " << trial;
  }
}

TEST(ExactSum, ShuffledMixedMagnitudesGiveOneValue) {
  rng gen(9);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) {
    const double mag = std::ldexp(gen.next_double() + 0.5,
                                  static_cast<int>(gen.next_below(200)) - 100);
    xs.push_back(gen.next_below(2) == 0 ? mag : -mag);
  }
  xs.push_back(std::numeric_limits<double>::denorm_min());
  const double first = sum_of(xs);
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = xs.size() - 1; i > 0; --i)
      std::swap(xs[i], xs[gen.next_below(i + 1)]);
    EXPECT_TRUE(same_bits(sum_of(xs), first));
  }
}

TEST(ExactSum, AddProductEqualsRepeatedAdds) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const double x : {0.1, 1.0 / 3.0, -2.718281828459045, 1e300, 1e-300,
                         tiny, 7 * tiny, 0x1p-1022, -0.0, 0.0}) {
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{3}, std::uint64_t{7}, std::uint64_t{1000},
          std::uint64_t{12345}}) {
      exact_sum product, repeated;
      product.add(0.5);
      repeated.add(0.5);
      product.add_product(n, x);
      for (std::uint64_t i = 0; i < n; ++i) repeated.add(x);
      EXPECT_TRUE(same_bits(product.value(), repeated.value()))
          << n << " x " << x << ": " << product.value() << " vs "
          << repeated.value();
    }
  }
}

TEST(ExactSum, AddProductRejectsCountsPastTwoToThe53) {
  exact_sum s;
  EXPECT_THROW(s.add_product((std::uint64_t{1} << 53) + 1, 1.0),
               contract_violation);
}

TEST(ExactSum, OverflowAndNonFiniteFollowIeee) {
  const double big = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  // The intermediate 2·DBL_MAX is held exactly.
  expect_every_order({big, big, -big}, big);
  EXPECT_EQ(sum_of({big, big}), inf);
  EXPECT_EQ(sum_of({-big, -big}), -inf);
  EXPECT_EQ(sum_of({inf, 1.0}), inf);
  EXPECT_TRUE(std::isnan(sum_of({inf, -inf})));
  EXPECT_TRUE(std::isnan(sum_of({1.0, std::nan("")})));
}

}  // namespace
}  // namespace anonpath::stats
