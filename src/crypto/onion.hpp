#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/anonymity/types.hpp"

namespace anonpath::crypto {

/// Per-node long-term keys for the toy onion construction. Keys are derived
/// deterministically from a master seed (a real deployment would provision
/// them; the simulation only needs them consistent between wrap and peel).
class key_registry {
 public:
  explicit key_registry(std::uint64_t master_seed, std::uint32_t node_count);

  /// Key of a node; `receiver_node` has a key too (the receiver unwraps the
  /// innermost layer).
  [[nodiscard]] std::uint64_t key_of(node_id node) const;

  [[nodiscard]] std::uint32_t node_count() const noexcept { return count_; }

 private:
  std::uint64_t master_;
  std::uint32_t count_;
};

/// A layered onion message as carried on the wire between two hops.
struct onion_envelope {
  std::vector<std::byte> data;

  friend bool operator==(const onion_envelope&, const onion_envelope&) = default;
};

/// Result of removing one layer at a node.
struct peel_result {
  node_id next = 0;        ///< where to forward (receiver_node at the exit)
  onion_envelope inner;    ///< the payload for the next hop
};

/// Wraps `payload` for source-routed delivery along `r`: the innermost layer
/// is keyed to the receiver, and one layer is added (inside-out) for each
/// intermediate node so that node i learns only its successor. `nonce`
/// must be unique per message (the message id).
[[nodiscard]] onion_envelope wrap_onion(const route& r,
                                        std::vector<std::byte> payload,
                                        const key_registry& keys,
                                        std::uint64_t nonce);

/// Removes the layer addressed to `self`, revealing the next hop and the
/// inner envelope. Throws std::invalid_argument on malformed envelopes.
/// A copying wrapper over the in-place overload below.
[[nodiscard]] peel_result peel_onion(node_id self, const onion_envelope& env,
                                     const key_registry& keys,
                                     std::uint64_t nonce);

/// In-place peel: decrypts `data` (an envelope's bytes) under `self`'s key,
/// strips the 4-byte routing header so `data` becomes the inner envelope,
/// and returns the next hop. Reuses the buffer — no allocation. Throws
/// std::invalid_argument like the copying form; `data` is then left
/// decrypted but otherwise unspecified.
[[nodiscard]] node_id peel_onion(node_id self, std::vector<std::byte>& data,
                                 const key_registry& keys,
                                 std::uint64_t nonce);

/// Unwraps the final (receiver) layer and returns the plaintext payload.
/// Throws std::invalid_argument if the envelope is not receiver-terminal.
/// A copying wrapper over the in-place overload below.
[[nodiscard]] std::vector<std::byte> open_at_receiver(const onion_envelope& env,
                                                      const key_registry& keys,
                                                      std::uint64_t nonce);

/// In-place open: `data` (a receiver-terminal envelope's bytes) becomes the
/// plaintext payload. Throws like the copying form.
void open_at_receiver(std::vector<std::byte>& data, const key_registry& keys,
                      std::uint64_t nonce);

}  // namespace anonpath::crypto
