#include "src/sim/relay.hpp"

namespace anonpath::sim {

onion_relay::onion_relay(node_id self, network& net,
                         const crypto::key_registry& keys,
                         double processing_delay, bool compromised,
                         adversary_model* monitor)
    : self_(self),
      net_(net),
      keys_(keys),
      processing_delay_(processing_delay),
      compromised_(compromised),
      monitor_(monitor) {}

void onion_relay::on_message(node_id from, message_slot slot) {
  wire_message& msg = net_.message(slot);
  const node_id next =
      crypto::peel_onion(self_, msg.envelope.data, keys_, msg.id);
  if (compromised_ && monitor_ != nullptr) {
    monitor_->note_relay(msg.id, net_.queue().now(), self_, from, next);
  }
  net_.forward_in(processing_delay_, self_, next, slot);
}

crowds_relay::crowds_relay(node_id self, network& net, double processing_delay,
                           bool compromised, adversary_model* monitor,
                           stats::rng gen, const net::topology* topology)
    : self_(self),
      net_(net),
      processing_delay_(processing_delay),
      compromised_(compromised),
      monitor_(monitor),
      gen_(gen),
      topology_(topology) {}

void crowds_relay::on_message(node_id from, message_slot slot) {
  const wire_message& msg = net_.message(slot);
  // Flip the coin: forward to another node with probability forward_prob,
  // otherwise submit to the receiver.
  node_id next = receiver_node;
  if (gen_.next_bernoulli(msg.forward_prob)) {
    if (topology_ != nullptr) {
      next = topology_->sample_neighbor(self_, gen_);
    } else {
      auto draw = static_cast<node_id>(gen_.next_below(net_.node_count() - 1));
      if (draw >= self_) ++draw;
      next = draw;
    }
  }
  if (compromised_ && monitor_ != nullptr) {
    monitor_->note_relay(msg.id, net_.queue().now(), self_, from, next);
  }
  net_.forward_in(processing_delay_, self_, next, slot);
}

}  // namespace anonpath::sim
