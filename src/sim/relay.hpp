#pragma once

#include "src/crypto/onion.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/network.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {

/// A source-routed relay (Onion Routing / Freedom / PipeNet style): peels
/// its onion layer (in place, in the network's slab), learns only
/// predecessor and successor, forwards after a processing delay. If
/// compromised, its adversary agent files the paper's (t, pred, succ) tuple.
class onion_relay final : public message_sink {
 public:
  onion_relay(node_id self, network& net, const crypto::key_registry& keys,
              double processing_delay, bool compromised,
              adversary_model* monitor);

  void on_message(node_id from, message_slot slot) override;

 private:
  node_id self_;
  network& net_;
  const crypto::key_registry& keys_;
  double processing_delay_;
  bool compromised_;
  adversary_model* monitor_;
};

/// A hop-by-hop relay (Crowds / Onion Routing II / Hordes style): flips the
/// forwarding coin carried in the message; forwards to a uniform random
/// other node — or, on a restricted fabric, to a weighted random graph
/// neighbor — or delivers to the receiver. Payload travels unchanged — which
/// is precisely why Crowds messages are trivially correlatable.
class crowds_relay final : public message_sink {
 public:
  /// `topology`, when non-null, restricts forwarding to graph neighbors
  /// (weighted draw); it must outlive the relay. Null keeps the historical
  /// uniform-over-others draw, bit for bit.
  crowds_relay(node_id self, network& net, double processing_delay,
               bool compromised, adversary_model* monitor, stats::rng gen,
               const net::topology* topology = nullptr);

  void on_message(node_id from, message_slot slot) override;

 private:
  node_id self_;
  network& net_;
  double processing_delay_;
  bool compromised_;
  adversary_model* monitor_;
  stats::rng gen_;
  const net::topology* topology_;
};

}  // namespace anonpath::sim
