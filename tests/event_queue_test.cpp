#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {
namespace {

/// Records the slot of every event it serves and runs an optional hook
/// (for events that schedule more events).
struct recorder final : event_handler {
  std::vector<std::uint32_t> order;
  std::function<void(std::uint32_t)> hook;

  void on_event(event_kind, std::uint32_t slot) override {
    order.push_back(slot);
    if (hook) hook(slot);
  }
};

constexpr event_kind kind = event_kind::arrival;

TEST(EventQueue, ExecutesInTimeOrder) {
  event_queue q;
  recorder r;
  q.bind(kind, r);
  q.schedule_at(3.0, kind, 3);
  q.schedule_at(1.0, kind, 1);
  q.schedule_at(2.0, kind, 2);
  EXPECT_TRUE(q.run_until_empty());
  EXPECT_EQ(r.order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakFifo) {
  event_queue q;
  recorder r;
  q.bind(kind, r);
  for (std::uint32_t i = 0; i < 5; ++i) q.schedule_at(1.0, kind, i);
  q.run_until_empty();
  EXPECT_EQ(r.order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RelativeSchedulingUsesCurrentTime) {
  event_queue q;
  recorder r;
  double fired_at = -1;
  r.hook = [&](std::uint32_t slot) {
    if (slot == 0) q.schedule_in(0.5, kind, 1);
    else fired_at = q.now();
  };
  q.bind(kind, r);
  q.schedule_at(2.0, kind, 0);
  q.run_until_empty();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  event_queue q;
  recorder r;
  int count = 0;
  r.hook = [&](std::uint32_t) {
    if (++count < 10) q.schedule_in(1.0, kind, 0);
  };
  q.bind(kind, r);
  q.schedule_at(0.0, kind, 0);
  EXPECT_TRUE(q.run_until_empty());
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  event_queue q;
  EXPECT_FALSE(q.run_next());
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueue, RejectsPastScheduling) {
  event_queue q;
  recorder r;
  q.bind(kind, r);
  q.schedule_at(5.0, kind, 0);
  q.run_next();
  EXPECT_THROW(q.schedule_at(4.0, kind, 0), contract_violation);
  EXPECT_THROW(q.schedule_in(-1.0, kind, 0), contract_violation);
  const std::uint64_t seq = q.reserve(1);
  EXPECT_THROW(q.schedule_reserved(4.0, seq, kind, 0), contract_violation);
}

TEST(EventQueue, RejectsUnboundKindsAndUnreservedSequenceNumbers) {
  event_queue q;
  recorder r;
  q.bind(kind, r);
  EXPECT_THROW(q.schedule_at(1.0, event_kind::deliver, 0), contract_violation);
  EXPECT_THROW(q.schedule_reserved(1.0, 0, kind, 0), contract_violation);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunawayGuardStops) {
  event_queue q;
  recorder r;
  r.hook = [&](std::uint32_t) { q.schedule_in(0.1, kind, 0); };
  q.bind(kind, r);
  q.schedule_at(0.0, kind, 0);
  EXPECT_FALSE(q.run_until_empty(100));
}

TEST(EventQueue, PendingCount) {
  event_queue q;
  recorder r;
  q.bind(kind, r);
  EXPECT_EQ(q.pending(), 0u);
  q.schedule_at(1.0, kind, 0);
  q.schedule_at(2.0, kind, 0);
  EXPECT_EQ(q.pending(), 2u);
  q.run_next();
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, DispatchesEachKindToItsHandler) {
  event_queue q;
  recorder a, b;
  q.bind(event_kind::deliver, a);
  q.bind(event_kind::retry_timer, b);
  q.schedule_at(1.0, event_kind::retry_timer, 7);
  q.schedule_at(2.0, event_kind::deliver, 8);
  q.schedule_at(3.0, event_kind::retry_timer, 9);
  EXPECT_TRUE(q.run_until_empty());
  EXPECT_EQ(a.order, (std::vector<std::uint32_t>{8}));
  EXPECT_EQ(b.order, (std::vector<std::uint32_t>{7, 9}));
  EXPECT_EQ(q.executed(), 3u);
}

/// One randomized schedule for the property test: `arrivals` reserved-seq
/// events at sorted, heavily tied times, inserted one ahead (each when its
/// predecessor fires, as the simulator's arrival cursor does), plus
/// dynamic events scheduled up front and by fired events at delays drawn
/// from {0, 0.25, 0.5}. Event ids: arrivals 0..A-1, dynamic events A, A+1,
/// ... in creation order — which is exactly sequence-number order, since
/// the arrivals' block is reserved before any dynamic event exists.
struct property_run {
  std::vector<double> at;             ///< by event id
  std::vector<std::uint32_t> fired;   ///< event ids in execution order
  bool drained = false;
};

property_run run_schedule(std::uint64_t seed, std::uint32_t arrivals,
                          std::uint32_t max_dynamic, std::uint64_t limit,
                          bool endless) {
  stats::rng gen(seed);
  property_run out;
  for (std::uint32_t i = 0; i < arrivals; ++i)
    out.at.push_back(0.25 * static_cast<double>(gen.next_below(8)));
  std::sort(out.at.begin(), out.at.end());

  event_queue q;
  recorder r;
  q.bind(event_kind::arrival, r);
  q.bind(event_kind::deliver, r);
  std::uint32_t dynamic = 0;
  const auto spawn = [&] {
    const double delay = 0.25 * static_cast<double>(gen.next_below(3));
    out.at.push_back(q.now() + delay);
    q.schedule_in(delay, event_kind::deliver,
                  static_cast<std::uint32_t>(out.at.size() - 1));
    ++dynamic;
  };
  const std::uint64_t first = q.reserve(arrivals);
  r.hook = [&](std::uint32_t id) {
    if (id + 1 < arrivals)
      q.schedule_reserved(out.at[id + 1], first + id + 1, event_kind::arrival,
                          id + 1);
    const std::uint64_t children = endless ? 1 : gen.next_below(3);
    for (std::uint64_t c = 0; c < children; ++c)
      if (endless || dynamic < max_dynamic) spawn();
  };
  for (int i = 0; i < 4; ++i) spawn();
  if (arrivals > 0)
    q.schedule_reserved(out.at[0], first, event_kind::arrival, 0);
  out.drained = q.run_until_empty(limit);
  out.fired = r.order;
  EXPECT_EQ(q.executed(), out.fired.size());
  return out;
}

TEST(EventQueueProperty, ExecutionOrderMatchesStableSortReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::uint32_t arrivals = static_cast<std::uint32_t>(seed * 7 % 60);
    const property_run run = run_schedule(seed, arrivals, 300, 100'000, false);
    ASSERT_TRUE(run.drained);
    // The reference: every event that ever existed, in sequence-number
    // order, stably sorted by time — ties keep sequence order.
    std::vector<std::uint32_t> want(run.at.size());
    for (std::uint32_t i = 0; i < want.size(); ++i) want[i] = i;
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return run.at[a] < run.at[b];
                     });
    EXPECT_EQ(run.fired, want) << "seed " << seed;
  }
}

TEST(EventQueueProperty, RunawayGuardStopsAtTheLimitInOrder) {
  // Every event spawns a successor: the guard must stop after exactly
  // `limit` events, with the executed prefix still in reference order.
  const std::uint64_t limit = 500;
  const property_run run = run_schedule(9, 30, 0, limit, true);
  EXPECT_FALSE(run.drained);
  ASSERT_EQ(run.fired.size(), limit);
  std::vector<std::uint32_t> want(run.at.size());
  for (std::uint32_t i = 0; i < want.size(); ++i) want[i] = i;
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return run.at[a] < run.at[b];
                   });
  want.resize(limit);
  EXPECT_EQ(run.fired, want);
}

}  // namespace
}  // namespace anonpath::sim
