#include "src/sim/receiver.hpp"

#include <stdexcept>

namespace anonpath::sim {

receiver_endpoint::receiver_endpoint(network& net,
                                     const crypto::key_registry& keys,
                                     adversary_model* monitor)
    : net_(net), keys_(keys), monitor_(monitor) {}

void receiver_endpoint::on_message(node_id from, message_slot slot) {
  wire_message& msg = net_.message(slot);
  const sim_time at = net_.queue().now();
  std::vector<std::byte>* payload = &msg.payload;
  if (msg.kind == transport_kind::onion) {
    crypto::open_at_receiver(msg.envelope.data, keys_, msg.id);
    payload = &msg.envelope.data;
  }
  if (monitor_ != nullptr) monitor_->note_receipt(msg.id, at, from);
  if (msg.id >= deliveries_.size()) deliveries_.resize(msg.id + 1);
  if (!deliveries_[msg.id]) {
    deliveries_[msg.id] = delivery{from, at, std::move(*payload)};
    ++delivered_;
  }
  net_.release(slot);
}

const receiver_endpoint::delivery& receiver_endpoint::delivery_of(
    std::uint64_t msg) const {
  if (!delivered(msg))
    throw std::out_of_range("receiver: message not delivered");
  return *deliveries_[msg];
}

}  // namespace anonpath::sim
