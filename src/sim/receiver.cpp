#include "src/sim/receiver.hpp"

namespace anonpath::sim {

receiver_endpoint::receiver_endpoint(network& net,
                                     const crypto::key_registry& keys,
                                     adversary_model* monitor)
    : net_(net), keys_(keys), monitor_(monitor) {}

void receiver_endpoint::on_message(node_id from, message_slot slot) {
  wire_message& msg = net_.message(slot);
  if (msg.kind == transport_kind::onion)
    crypto::open_at_receiver(msg.envelope.data, keys_, msg.id);
  if (monitor_ != nullptr)
    monitor_->note_receipt(msg.id, net_.queue().now(), from);
  net_.release(slot);
}

}  // namespace anonpath::sim
