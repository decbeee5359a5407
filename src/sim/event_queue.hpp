#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace anonpath::sim {

/// Simulated time in seconds.
using sim_time = double;

/// What a scheduled event does. Every kind is served by one handler per
/// queue (event_queue::bind); the event itself carries only a 32-bit slot
/// whose meaning the kind fixes.
enum class event_kind : std::uint8_t {
  deliver,      ///< a transmission reaches its destination; slot = message
  forward,      ///< a relay's processing delay ends; slot = message
  arrival,      ///< a workload message is submitted; slot = arrival index
  retry_timer,  ///< a sender's retransmission timeout; slot = original id
};

inline constexpr std::size_t event_kind_count = 4;

/// Receives the events of the kinds it is bound to.
class event_handler {
 public:
  virtual ~event_handler() = default;
  virtual void on_event(event_kind kind, std::uint32_t slot) = 0;
};

/// Minimal discrete-event scheduler: events execute in timestamp order;
/// ties break by sequence number, i.e. insertion order (FIFO), which keeps
/// runs deterministic.
///
/// Events are plain 24-byte records {at, seq, slot, kind} in a flat binary
/// heap: scheduling and firing allocate nothing once the heap has grown to
/// the run's peak in-flight count, and firing is a table dispatch to the
/// kind's handler. Whatever state an event needs lives with its handler,
/// indexed by the slot (the network's message slab, a sender's retry
/// state).
///
/// Arrival cursor: a workload known up front need not sit in the heap.
/// reserve() hands out a block of sequence numbers at the current position
/// and schedule_reserved() inserts an event under one of them later, so a
/// source that inserts each arrival when its predecessor fires (one ahead)
/// executes in exactly the order it would have had all arrivals been
/// scheduled at reservation time.
class event_queue {
 public:
  /// Routes every event of `kind` to `handler`, which must outlive the
  /// queue's use. Rebinding replaces the previous handler.
  void bind(event_kind kind, event_handler& handler);

  /// Schedules an event at absolute time `at`. Preconditions: at >= now(),
  /// a handler is bound for `kind`.
  void schedule_at(sim_time at, event_kind kind, std::uint32_t slot);

  /// Schedules an event `delay` seconds from now. Precondition: delay >= 0.
  void schedule_in(sim_time delay, event_kind kind, std::uint32_t slot);

  /// Reserves `count` consecutive sequence numbers and returns the first.
  /// Events scheduled later take numbers after the block.
  [[nodiscard]] std::uint64_t reserve(std::uint64_t count);

  /// Schedules an event under a sequence number from an earlier reserve();
  /// each reserved number is used at most once. Preconditions: at >= now(),
  /// seq was handed out by reserve(), a handler is bound for `kind`.
  void schedule_reserved(sim_time at, std::uint64_t seq, event_kind kind,
                         std::uint32_t slot);

  /// Executes the earliest pending event, advancing the clock to it.
  /// Returns false when the queue is empty.
  bool run_next();

  /// Drains the queue; stops (and returns false) if `max_events` fire
  /// without exhausting it — a runaway-protocol guard.
  bool run_until_empty(std::uint64_t max_events = 100'000'000);

  [[nodiscard]] sim_time now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Events executed since construction (deterministic per run; feeds the
  /// `sim.events_executed` metric).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct record {
    sim_time at;
    std::uint64_t seq;
    std::uint32_t slot;
    event_kind kind;
  };
  static_assert(sizeof(record) == 24);
  /// Heap order: the root is the smallest (at, seq).
  struct later {
    bool operator()(const record& a, const record& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void check(sim_time at, event_kind kind) const;
  void push(const record& r);

  std::vector<record> heap_;
  std::array<event_handler*, event_kind_count> handlers_{};
  sim_time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace anonpath::sim
