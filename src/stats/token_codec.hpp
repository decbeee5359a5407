#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string_view>

namespace anonpath::stats {

/// The token codecs shared by the line-oriented text formats (traces,
/// checkpoints) and the command line. Doubles travel as IEEE-754 bit
/// patterns in 16 lowercase hex digits: exact round trips, deterministic
/// rendering, no locale or precision pitfalls.

/// Writes `bits` as exactly 16 lowercase hex digits.
inline void put_hex64(std::ostream& os, std::uint64_t bits) {
  char buf[16];
  for (int i = 15; i >= 0; --i, bits >>= 4)
    buf[i] = "0123456789abcdef"[bits & 0xf];
  os.write(buf, sizeof buf);
}

inline void put_hex_double(std::ostream& os, double x) {
  put_hex64(os, std::bit_cast<std::uint64_t>(x));
}

/// Parses exactly 16 lowercase hex digits; false on any deviation.
[[nodiscard]] inline bool parse_hex64(std::string_view tok,
                                      std::uint64_t& out) {
  if (tok.size() != 16) return false;
  std::uint64_t bits = 0;
  for (char c : tok) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    bits = (bits << 4) | static_cast<std::uint64_t>(digit);
  }
  out = bits;
  return true;
}

enum class u64_parse { ok, malformed, overflow };

/// Strict decimal u64: ASCII digits only — no sign, no space, no base
/// prefix, so a token that visually says one thing never parses as another
/// ("-1" does not wrap). A digit run past 2^64 - 1 is `overflow` even with
/// junk after it; anything else that is not all digits is `malformed`.
/// `out` is written only on `ok`.
[[nodiscard]] inline u64_parse parse_u64(std::string_view tok,
                                         std::uint64_t& out) {
  constexpr std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  std::size_t i = 0;
  std::uint64_t v = 0;
  bool overflow = false;
  for (; i < tok.size() && tok[i] >= '0' && tok[i] <= '9'; ++i) {
    const auto digit = static_cast<std::uint64_t>(tok[i] - '0');
    if (v > (max - digit) / 10) overflow = true;
    else v = v * 10 + digit;
  }
  if (i == 0) return u64_parse::malformed;
  if (overflow) return u64_parse::overflow;
  if (i != tok.size()) return u64_parse::malformed;
  out = v;
  return u64_parse::ok;
}

}  // namespace anonpath::stats
