// Fault-injection layer: outage schedules (explicit crash/repair plans),
// seeded mix-failure episodes, and the unified sim::fault_plan valve. The
// load-bearing properties are determinism (same plan + seed => same
// timetable, same run) and inertness (a default plan perturbs nothing).

#include <gtest/gtest.h>

#include "src/net/outage.hpp"
#include "src/sim/network.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/contract.hpp"

namespace anonpath {
namespace {

TEST(OutageSchedule, ClosedOpenIntervalsAndMonotoneQueries) {
  net::outage_schedule sched(
      4, {{2, 1.0, 2.0}, {1, 0.5, 1.0}, {1, 5.0, 0.5}});
  EXPECT_TRUE(sched.enabled());
  EXPECT_EQ(sched.interval_count(), 3u);

  EXPECT_FALSE(sched.is_down(1, 0.0));
  EXPECT_TRUE(sched.is_down(1, 0.5));    // closed start
  EXPECT_TRUE(sched.is_down(1, 1.4999));
  EXPECT_FALSE(sched.is_down(1, 1.5));   // open end
  EXPECT_TRUE(sched.is_down(1, 5.2));    // second interval, cursor advanced
  EXPECT_FALSE(sched.is_down(1, 6.0));

  EXPECT_TRUE(sched.is_down(2, 2.9));
  EXPECT_FALSE(sched.is_down(2, 3.0));
  EXPECT_FALSE(sched.is_down(0, 1.0));   // never scheduled
  EXPECT_FALSE(sched.is_down(3, 1.0));
}

TEST(OutageSchedule, OverlappingIntervalsMerge) {
  // [1,3) and [2,5) merge into [1,5); an abutting [5,6) extends it too
  // (closed-open abutment leaves no up-instant between them).
  net::outage_schedule sched(
      2, {{0, 1.0, 2.0}, {0, 2.0, 3.0}, {0, 5.0, 1.0}});
  EXPECT_EQ(sched.interval_count(), 1u);
  for (double t : {1.0, 2.5, 4.9, 5.0, 5.9}) EXPECT_TRUE(sched.is_down(0, t));
  EXPECT_FALSE(sched.is_down(0, 0.99));
  EXPECT_FALSE(sched.is_down(0, 6.0));
}

TEST(OutageSchedule, EmptyScheduleIsInert) {
  net::outage_schedule sched(8, {});
  EXPECT_FALSE(sched.enabled());
  EXPECT_FALSE(sched.is_down(3, 100.0));
}

TEST(OutageSchedule, RejectsInvalidOutages) {
  EXPECT_THROW(net::outage_schedule(4, {{4, 0.0, 1.0}}), contract_violation);
  EXPECT_THROW(net::outage_schedule(4, {{0, -1.0, 1.0}}), contract_violation);
  EXPECT_THROW(net::outage_schedule(4, {{0, 0.0, 0.0}}), contract_violation);
}

TEST(FaultPlan, ValidityAndLabels) {
  sim::fault_plan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.valid());
  EXPECT_EQ(plan.label(), "none");

  plan.drop_probability = 0.1;
  plan.churn = {1.0, 2.0};
  plan.outages = {{3, 0.0, 1.0}, {1, 2.0, 1.0}, {3, 5.0, 1.0}};
  plan.mix_failures = {4, 0.0, 1.5};
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.valid());
  EXPECT_TRUE(plan.valid_for(4));
  EXPECT_FALSE(plan.valid_for(3));  // outage node 3 out of range
  EXPECT_NE(plan.label().find("drop(0.1)"), std::string::npos);
  EXPECT_NE(plan.label().find("crash(3)"), std::string::npos);
  EXPECT_NE(plan.label().find("mixfail(4@auto/1.5)"), std::string::npos);

  sim::fault_plan bad_drop;
  bad_drop.drop_probability = 1.0;  // certain loss is outside the model
  EXPECT_FALSE(bad_drop.valid());

  sim::mix_failure_config bad_mf{3, -1.0, 1.0};
  EXPECT_FALSE(bad_mf.valid());
}

TEST(FaultPlan, MaterializeIsDeterministicInPlanAndSeed) {
  sim::fault_plan plan;
  plan.mix_failures = {6, 10.0, 2.0};
  plan.outages = {{0, 1.0, 1.0}};

  auto a = plan.materialize(8, 42, 0.0);
  auto b = plan.materialize(8, 42, 0.0);
  EXPECT_EQ(a.interval_count(), b.interval_count());
  for (node_id v = 0; v < 8; ++v)
    for (double t = 0.0; t < 12.0; t += 0.25)
      EXPECT_EQ(a.is_down(v, t), b.is_down(v, t)) << v << " @ " << t;

  // A different seed draws a different episode timetable.
  auto c = plan.materialize(8, 43, 0.0);
  bool differs = false;
  for (node_id v = 0; v < 8 && !differs; ++v)
    for (double t = 0.0; t < 12.0 && !differs; t += 0.25)
      differs = a.is_down(v, t) != c.is_down(v, t);
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RetryPolicyValidity) {
  sim::retry_policy off;
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.valid());
  EXPECT_EQ(off.label(), "none");

  sim::retry_policy p{3, 0.5, 2.0, 8.0};
  EXPECT_TRUE(p.enabled());
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.label(), "retry(3x0.5*2<=8)");

  EXPECT_FALSE((sim::retry_policy{1, 0.0, 2.0, 8.0}).valid());   // timeout
  EXPECT_FALSE((sim::retry_policy{1, 0.5, 0.9, 8.0}).valid());   // backoff
  EXPECT_FALSE((sim::retry_policy{1, 0.5, 2.0, 0.25}).valid());  // cap < t/o
}

sim::sim_config small_config(std::uint64_t seed) {
  sim::sim_config cfg;
  cfg.sys = {20, 2};
  cfg.compromised = spread_compromised(20, 2);
  cfg.lengths = path_length_distribution::uniform(1, 6);
  cfg.message_count = 400;
  cfg.arrival_rate = 100.0;
  cfg.seed = seed;
  return cfg;
}

TEST(FaultPlan, ExplicitOutageStrandsTraffic) {
  // Crash every node's favorite first relay? Simpler: take one node down
  // for the whole run and check (a) some messages strand, (b) the run is
  // deterministic, (c) a crash window past the traffic span is inert.
  sim::sim_config cfg = small_config(11);
  const auto baseline = sim::run_simulation(cfg);
  ASSERT_EQ(baseline.delivered, baseline.submitted);

  cfg.faults.outages = {{5, 0.0, 1e6}};
  const auto crashed = sim::run_simulation(cfg);
  EXPECT_LT(crashed.delivered, crashed.submitted);
  const auto again = sim::run_simulation(cfg);
  EXPECT_EQ(crashed.delivered, again.delivered);
  EXPECT_EQ(crashed.end_to_end_latency.mean(),
            again.end_to_end_latency.mean());
  EXPECT_EQ(crashed.empirical_entropy_bits, again.empirical_entropy_bits);

  // The traffic span is message_count / arrival_rate = 4 s; an outage
  // starting far beyond any queued event changes nothing.
  sim::sim_config late = small_config(11);
  late.faults.outages = {{5, 1e5, 1.0}};
  const auto idle = sim::run_simulation(late);
  EXPECT_EQ(idle.delivered, baseline.delivered);
  EXPECT_EQ(idle.empirical_entropy_bits, baseline.empirical_entropy_bits);
}

TEST(FaultPlan, MixFailureEpisodesAreSeededAndLossy) {
  sim::sim_config cfg = small_config(7);
  cfg.faults.mix_failures = {8, 0.0, 1.0};  // auto horizon = 4 s, heavy
  const auto a = sim::run_simulation(cfg);
  const auto b = sim::run_simulation(cfg);
  EXPECT_LT(a.delivered, a.submitted);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.end_to_end_latency.mean(), b.end_to_end_latency.mean());

  cfg.seed = 8;
  const auto c = sim::run_simulation(cfg);
  EXPECT_NE(a.delivered, c.delivered);  // episodes follow the seed
}

TEST(FaultPlan, NetworkCountsCrashStrandsSeparately) {
  struct sink : sim::message_sink {
    void on_message(node_id, sim::message_slot) override {}
  };
  sink s;
  sim::fault_plan plan;
  plan.outages = {{1, 0.0, 1e6}};
  sim::network net(4, {0.001, 0.0, 0.0}, 5, plan);
  for (node_id i = 0; i < 4; ++i) net.register_node(i, s);
  net.register_receiver(s);
  net.send(0, 1, sim::wire_message{});  // down: stranded, counted
  net.send(0, 2, sim::wire_message{});  // up: queued
  EXPECT_EQ(net.crashed_count(), 1u);
  EXPECT_EQ(net.dropped_count(), 0u);
}

}  // namespace
}  // namespace anonpath
