#pragma once

#include <cstdint>
#include <vector>

#include "src/anonymity/types.hpp"
#include "src/net/churn.hpp"
#include "src/net/outage.hpp"
#include "src/net/topology.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/latency.hpp"
#include "src/sim/message.hpp"

namespace anonpath::sim {

/// Handle of a message held in the network's slab (see network).
using message_slot = std::uint32_t;

/// Interface of anything that can accept a message from the wire.
class message_sink {
 public:
  virtual ~message_sink() = default;
  /// `from` is the transport-level immediate sender (what a real node's
  /// network stack would see). Exactly the paper's observability model.
  /// The sink now owns `slot` (network::message() reads it): it passes it
  /// on with network::transmit()/forward_in() or hands it back with
  /// network::release().
  virtual void on_message(node_id from, message_slot slot) = 0;
};

/// Ground-truth record of one message's journey, kept by the network fabric
/// (the "physics" of the simulation — never visible to the adversary). It
/// is the run's one per-message record: the simulator folds its outcomes
/// from these. A default record (never originated, no hops) stands for a
/// message id the fabric has not seen.
struct message_trace {
  node_id origin = 0;
  std::uint32_t hops = 0;   ///< relays reached after the origin
  sim_time sent_at = 0.0;
  sim_time delivered_at = 0.0;
  bool delivered = false;
};

/// The transport fabric. By default the clique of paper Sec. 3.1: every
/// host can reach every other host directly; a hop costs a sampled link
/// latency. A non-null `topology` restricts the wire to that graph — the
/// fabric then *asserts* every transmission follows an edge, so a routing
/// layer that ignores the graph fails fast instead of silently teleporting.
/// Implements the full sim::fault_plan (failure injection): each
/// transmission is dropped independently with the plan's drop probability,
/// in which case the message journey simply ends — exactly how a
/// best-effort datagram network fails. The plan's churn model additionally
/// takes relays down and up mid-run (net::churn_model), and its crash
/// schedule (explicit outages plus seeded mix-failure episodes) takes
/// specific nodes down on a deterministic timetable; a transmission whose
/// destination is down at send time strands there, and the receiver R
/// never fails. Also the keeper of the run's per-message traces.
///
/// Event model. The fabric owns the run's event_queue and serves two of
/// its event kinds: `deliver` (a transmission reaches its destination) and
/// `forward` (a relay's processing delay ends and it transmits). Messages
/// in flight live in a slab of wire_message records recycled through a
/// free list; events and sinks refer to them by message_slot, so a hop
/// moves a 4-byte handle rather than the envelope, relays peel the
/// envelope in place, and a run needs only as many records as it ever has
/// messages in flight at once. Traces are indexed by message id — dense
/// ids (the simulator's originals 1..M, retries after) keep them compact;
/// memory is linear in the largest id seen.
class network final : public event_handler {
 public:
  /// Preconditions: node_count >= 2, params.valid(),
  /// faults.valid_for(node_count); `topology`, when non-null, must outlive
  /// the network and have node_count() == node_count; `fault_horizon` > 0
  /// when the plan draws auto-horizon mix failures. A default (inert)
  /// fault plan draws nothing from any generator, so fault-free runs stay
  /// bit-identical to the pre-fault fabric.
  network(std::uint32_t node_count, latency_params params, std::uint64_t seed,
          const fault_plan& faults = {},
          const net::topology* topology = nullptr,
          double fault_horizon = 0.0);

  /// The queue and the sinks hold pointers back into the fabric.
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  /// Registers the sink for a relay node (exactly once per id).
  void register_node(node_id id, message_sink& sink);

  /// Registers the receiver endpoint R.
  void register_receiver(message_sink& sink);

  /// Starts a message journey at `origin` (records the trace start).
  void originate(node_id origin, sim_time at, std::uint64_t msg_id);

  /// Transmits `msg` from `from` to `to` (`receiver_node` for R) after a
  /// sampled link delay. Preconditions (each asserted, a violation throws
  /// contract_violation): `from` is a registered node id, `to` is a
  /// registered node id or `receiver_node` with the receiver registered,
  /// and — when the fabric carries a topology — (from, to) is a graph
  /// edge. Unregistered endpoints are a programming error, never a silent
  /// no-op or a crash on a null sink. Stores `msg` in a fresh slab slot and
  /// transmits it.
  void send(node_id from, node_id to, wire_message msg);

  /// Transmits the message held in `slot` from `from` to `to`, as send().
  /// A transmission lost to a fault releases the slot.
  void transmit(node_id from, node_id to, message_slot slot);

  /// Schedules transmit(from, to, slot) `delay` seconds from now (a
  /// relay's processing time). Precondition: delay >= 0.
  void forward_in(sim_time delay, node_id from, node_id to, message_slot slot);

  /// The message held in `slot` (valid until the slot is released).
  [[nodiscard]] wire_message& message(message_slot slot) {
    return slab_[slot].msg;
  }

  /// Returns `slot` to the slab for reuse.
  void release(message_slot slot) { free_.push_back(slot); }

  void on_event(event_kind kind, std::uint32_t slot) override;

  [[nodiscard]] event_queue& queue() noexcept { return queue_; }
  [[nodiscard]] std::uint32_t node_count() const noexcept { return node_count_; }

  /// Ground truth for tests/metrics, indexed by message id (index 0 and
  /// ids never sent hold default records).
  [[nodiscard]] const std::vector<message_trace>& traces() const noexcept {
    return traces_;
  }

  /// Transmissions lost to failure injection so far.
  [[nodiscard]] std::uint64_t dropped_count() const noexcept { return dropped_; }

  /// Transmissions that stranded at a churned-down destination so far.
  [[nodiscard]] std::uint64_t stranded_count() const noexcept {
    return stranded_;
  }

  /// Transmissions that stranded at a crash-scheduled (outage/mix-failure)
  /// destination so far.
  [[nodiscard]] std::uint64_t crashed_count() const noexcept {
    return crashed_;
  }

  /// The availability model (for diagnostics; disabled by default).
  [[nodiscard]] const net::churn_model& churn() const noexcept { return churn_; }

 private:
  /// A slab record: the message and the hop it is currently crossing.
  struct in_flight {
    wire_message msg;
    node_id from = 0;
    node_id to = 0;
  };

  message_slot acquire();
  message_trace& trace_of(std::uint64_t msg_id);

  std::uint32_t node_count_;
  event_queue queue_;
  latency_model latency_;
  double drop_probability_;
  stats::rng drop_rng_;
  const net::topology* topology_;
  net::churn_model churn_;
  net::outage_schedule outages_;
  std::uint64_t dropped_ = 0;
  std::uint64_t stranded_ = 0;
  std::uint64_t crashed_ = 0;
  std::vector<message_sink*> sinks_;
  message_sink* receiver_sink_ = nullptr;
  std::vector<in_flight> slab_;
  std::vector<message_slot> free_;
  std::vector<message_trace> traces_;
};

}  // namespace anonpath::sim
