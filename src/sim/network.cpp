#include "src/sim/network.hpp"

#include "src/stats/contract.hpp"

namespace anonpath::sim {

network::network(std::uint32_t node_count, latency_params params,
                 std::uint64_t seed, const fault_plan& faults,
                 const net::topology* topology, double fault_horizon)
    : node_count_(node_count),
      latency_(params, stats::rng(seed)),
      drop_probability_(faults.drop_probability),
      drop_rng_(seed ^ 0x5bf03635f0a5b1c5ULL),
      topology_(topology),
      churn_(node_count, faults.churn, seed ^ 0x94d049bb133111ebULL),
      outages_(faults.materialize(node_count, seed, fault_horizon)),
      sinks_(node_count, nullptr) {
  ANONPATH_EXPECTS(node_count >= 2);
  ANONPATH_EXPECTS(faults.valid_for(node_count));
  ANONPATH_EXPECTS(topology == nullptr ||
                   topology->node_count() == node_count);
  queue_.bind(event_kind::deliver, *this);
  queue_.bind(event_kind::forward, *this);
}

void network::register_node(node_id id, message_sink& sink) {
  ANONPATH_EXPECTS(id < node_count_);
  ANONPATH_EXPECTS(sinks_[id] == nullptr);
  sinks_[id] = &sink;
}

void network::register_receiver(message_sink& sink) {
  ANONPATH_EXPECTS(receiver_sink_ == nullptr);
  receiver_sink_ = &sink;
}

message_trace& network::trace_of(std::uint64_t msg_id) {
  if (msg_id >= traces_.size()) traces_.resize(msg_id + 1);
  return traces_[msg_id];
}

message_slot network::acquire() {
  if (free_.empty()) {
    slab_.emplace_back();
    return static_cast<message_slot>(slab_.size() - 1);
  }
  const message_slot slot = free_.back();
  free_.pop_back();
  return slot;
}

void network::originate(node_id origin, sim_time at, std::uint64_t msg_id) {
  ANONPATH_EXPECTS(origin < node_count_);
  auto& trace = trace_of(msg_id);
  trace.origin = origin;
  trace.sent_at = at;
}

void network::send(node_id from, node_id to, wire_message msg) {
  const message_slot slot = acquire();
  slab_[slot].msg = std::move(msg);
  transmit(from, to, slot);
}

void network::transmit(node_id from, node_id to, message_slot slot) {
  ANONPATH_EXPECTS(from < node_count_);
  ANONPATH_EXPECTS(sinks_[from] != nullptr);  // sender must be registered too
  ANONPATH_EXPECTS(to < node_count_ || to == receiver_node);
  ANONPATH_EXPECTS((to == receiver_node ? receiver_sink_ : sinks_[to]) !=
                   nullptr);
  // A restricted fabric only carries edges of its graph; the receiver is an
  // external party reachable from everywhere.
  if (topology_ != nullptr && to != receiver_node)
    ANONPATH_EXPECTS(topology_->has_edge(from, to));

  // A crashed or churned-down destination strands the message at the dead
  // hop (the sender's transmission is gone; recovery is the *sender's* job
  // via the retry policy, never the fabric's). The receiver never fails.
  // Both availability checks precede the loss coin — the crash schedule is
  // draw-free and a disabled churn model draws nothing — so an inert fault
  // plan leaves the drop rng stream untouched.
  if (to != receiver_node && outages_.enabled() &&
      outages_.is_down(to, queue_.now())) {
    ++crashed_;  // journey ends; the trace stays undelivered
    release(slot);
    return;
  }
  if (to != receiver_node && churn_.enabled() &&
      !churn_.is_up(to, queue_.now())) {
    ++stranded_;  // journey ends; the trace stays undelivered
    release(slot);
    return;
  }

  if (drop_probability_ > 0.0 && drop_rng_.next_bernoulli(drop_probability_)) {
    ++dropped_;  // journey ends silently; the trace stays undelivered
    release(slot);
    return;
  }

  in_flight& hop = slab_[slot];
  hop.from = from;
  hop.to = to;
  queue_.schedule_in(latency_.link_delay(), event_kind::deliver, slot);
}

void network::forward_in(sim_time delay, node_id from, node_id to,
                         message_slot slot) {
  in_flight& hop = slab_[slot];
  hop.from = from;
  hop.to = to;
  queue_.schedule_in(delay, event_kind::forward, slot);
}

void network::on_event(event_kind kind, std::uint32_t slot) {
  switch (kind) {
    case event_kind::deliver: {
      const node_id from = slab_[slot].from;
      const node_id to = slab_[slot].to;
      auto& trace = trace_of(slab_[slot].msg.id);
      if (to == receiver_node) {
        trace.delivered = true;
        trace.delivered_at = queue_.now();
        receiver_sink_->on_message(from, slot);
      } else {
        ++trace.hops;
        sinks_[to]->on_message(from, slot);
      }
      return;
    }
    case event_kind::forward:
      transmit(slab_[slot].from, slab_[slot].to, slot);
      return;
    case event_kind::arrival:
    case event_kind::retry_timer:
      break;
  }
  ANONPATH_EXPECTS(false);  // not a fabric event
}

}  // namespace anonpath::sim
