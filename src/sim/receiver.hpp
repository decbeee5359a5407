#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/crypto/onion.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/network.hpp"

namespace anonpath::sim {

/// The destination endpoint R. Always compromised per the paper's threat
/// model: every delivery is reported to the adversary with the immediate
/// predecessor. Onion payloads are opened in place (integrity check of the
/// crypto substrate); Crowds payloads arrive in the clear. Deliveries are
/// indexed by message id; the first delivery of an id is the one kept.
class receiver_endpoint final : public message_sink {
 public:
  receiver_endpoint(network& net, const crypto::key_registry& keys,
                    adversary_model* monitor);

  void on_message(node_id from, message_slot slot) override;

  struct delivery {
    node_id predecessor = 0;
    sim_time at = 0.0;
    std::vector<std::byte> payload;
  };

  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return delivered_;
  }

  /// True once message `msg` has been delivered.
  [[nodiscard]] bool delivered(std::uint64_t msg) const noexcept {
    return msg < deliveries_.size() && deliveries_[msg].has_value();
  }

  /// The delivery of message `msg`. Throws std::out_of_range if it has
  /// not been delivered.
  [[nodiscard]] const delivery& delivery_of(std::uint64_t msg) const;

 private:
  network& net_;
  const crypto::key_registry& keys_;
  adversary_model* monitor_;
  std::vector<std::optional<delivery>> deliveries_;
  std::uint64_t delivered_ = 0;
};

}  // namespace anonpath::sim
