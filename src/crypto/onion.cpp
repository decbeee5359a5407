#include "src/crypto/onion.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "src/crypto/prng_cipher.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::crypto {

namespace {

/// Sentinel "next hop" inside the receiver's own layer: end of route.
constexpr node_id terminal_marker = 0xFFFFFFFEu;

void put_u32(std::byte* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const std::vector<std::byte>& in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(in[i])) << (8 * i);
  return v;
}

}  // namespace

key_registry::key_registry(std::uint64_t master_seed, std::uint32_t node_count)
    : master_(master_seed), count_(node_count) {}

std::uint64_t key_registry::key_of(node_id node) const {
  ANONPATH_EXPECTS(node < count_ || node == receiver_node);
  std::uint64_t s = master_ ^ (static_cast<std::uint64_t>(node) + 1) * 0xd1b54a32d192ed03ULL;
  return stats::splitmix64(s);
}

onion_envelope wrap_onion(const route& r, std::vector<std::byte> payload,
                          const key_registry& keys, std::uint64_t nonce) {
  // Built back to front in one buffer of the final size: each layer is a
  // 4-byte header written just before the layer it wraps, and the cipher
  // then runs over the suffix from that header on — the same bytes as
  // prepending to a fresh vector per layer, without the copies.
  std::vector<std::byte> out(4 * (r.hops.size() + 1) + payload.size());
  std::size_t pos = 4 * r.hops.size();

  // Innermost layer: encrypted to the receiver, carrying the terminal marker.
  put_u32(out.data() + pos, terminal_marker);
  std::copy(payload.begin(), payload.end(), out.begin() + pos + 4);
  prng_cipher(keys.key_of(receiver_node))
      .apply(std::span(out).subspan(pos), nonce);

  // Wrap outward: the layer handed to hop i tells it hop i+1 (or R).
  for (std::size_t i = r.hops.size(); i-- > 0;) {
    const node_id self = r.hops[i];
    const node_id next = (i + 1 < r.hops.size()) ? r.hops[i + 1] : receiver_node;
    pos -= 4;
    put_u32(out.data() + pos, next);
    prng_cipher(keys.key_of(self)).apply(std::span(out).subspan(pos), nonce);
  }
  return onion_envelope{std::move(out)};
}

node_id peel_onion(node_id self, std::vector<std::byte>& data,
                   const key_registry& keys, std::uint64_t nonce) {
  if (data.size() < 4)
    throw std::invalid_argument("onion: envelope too short");
  prng_cipher(keys.key_of(self)).apply(data, nonce);
  const std::uint32_t next = get_u32(data);
  if (next == terminal_marker)
    throw std::invalid_argument("onion: receiver layer peeled at a relay");
  data.erase(data.begin(), data.begin() + 4);
  return next;
}

peel_result peel_onion(node_id self, const onion_envelope& env,
                       const key_registry& keys, std::uint64_t nonce) {
  peel_result out;
  out.inner = env;
  out.next = peel_onion(self, out.inner.data, keys, nonce);
  return out;
}

void open_at_receiver(std::vector<std::byte>& data, const key_registry& keys,
                      std::uint64_t nonce) {
  if (data.size() < 4)
    throw std::invalid_argument("onion: envelope too short");
  prng_cipher(keys.key_of(receiver_node)).apply(data, nonce);
  if (get_u32(data) != terminal_marker)
    throw std::invalid_argument("onion: not a receiver-terminal envelope");
  data.erase(data.begin(), data.begin() + 4);
}

std::vector<std::byte> open_at_receiver(const onion_envelope& env,
                                        const key_registry& keys,
                                        std::uint64_t nonce) {
  std::vector<std::byte> clear = env.data;
  open_at_receiver(clear, keys, nonce);
  return clear;
}

}  // namespace anonpath::crypto
