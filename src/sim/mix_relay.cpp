#include "src/sim/mix_relay.hpp"

#include "src/stats/contract.hpp"

namespace anonpath::sim {

mix_relay::mix_relay(node_id self, network& net,
                     const crypto::key_registry& keys,
                     std::uint32_t batch_size, sim_time flush_interval,
                     bool compromised, adversary_monitor* monitor,
                     stats::rng gen)
    : self_(self),
      net_(net),
      keys_(keys),
      batch_size_(batch_size),
      flush_interval_(flush_interval),
      compromised_(compromised),
      monitor_(monitor),
      gen_(gen) {
  ANONPATH_EXPECTS(batch_size >= 1);
  ANONPATH_EXPECTS(flush_interval >= 0.0);
}

void mix_relay::on_message(node_id from, message_slot slot) {
  wire_message& msg = net_.message(slot);
  const node_id next =
      crypto::peel_onion(self_, msg.envelope.data, keys_, msg.id);
  if (compromised_ && monitor_ != nullptr) {
    // The agent reports at traversal time, as in the paper's tuple (2); the
    // mix delay only shifts when the *next* hop sees the message.
    monitor_->note_relay(msg.id, net_.queue().now(), self_, from, next);
  }
  pool_.push_back(pending{next, slot});

  if (pool_.size() >= batch_size_) {
    flush();
    return;
  }
  if (pool_.size() == 1 && flush_interval_ > 0.0) {
    // Arm the deadline for this batch; the epoch guards against firing
    // after an earlier size-triggered flush already emptied the pool.
    armed_epochs_.push_back(timer_epoch_);
    net_.arm_timer(flush_interval_, self_);
  }
}

void mix_relay::on_timer() {
  const std::uint64_t epoch = armed_epochs_.front();
  armed_epochs_.pop_front();
  if (epoch == timer_epoch_ && !pool_.empty()) flush();
}

void mix_relay::flush() {
  ++timer_epoch_;
  ++batches_;
  // Output order not predictable from input order: Fisher-Yates over the
  // held batch.
  for (std::size_t i = pool_.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(gen_.next_below(i));
    std::swap(pool_[i - 1], pool_[j]);
  }
  for (const pending& p : pool_) net_.transmit(self_, p.next, p.slot);
  pool_.clear();
}

}  // namespace anonpath::sim
