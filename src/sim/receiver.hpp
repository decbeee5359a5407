#pragma once

#include "src/crypto/onion.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/network.hpp"

namespace anonpath::sim {

/// The destination endpoint R. Always compromised per the paper's threat
/// model: every delivery is reported to the adversary with the immediate
/// predecessor. Onion payloads are opened in place (integrity check of the
/// crypto substrate); Crowds payloads arrive in the clear. The network's
/// message_trace records the delivery.
class receiver_endpoint final : public message_sink {
 public:
  receiver_endpoint(network& net, const crypto::key_registry& keys,
                    adversary_model* monitor);

  void on_message(node_id from, message_slot slot) override;

 private:
  network& net_;
  const crypto::key_registry& keys_;
  adversary_model* monitor_;
};

}  // namespace anonpath::sim
