#include "src/sim/mix_relay.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/sim/receiver.hpp"
#include "src/stats/contract.hpp"

namespace anonpath::sim {
namespace {

struct mix_fixture {
  network net{4, latency_params{0.001, 0.0, 0.0}, 7};
  crypto::key_registry keys{5, 4};
  adversary_monitor monitor{std::vector<bool>{false, true, false, false}};
  receiver_endpoint recv{net, keys, &monitor};
  std::vector<std::unique_ptr<mix_relay>> relays;

  explicit mix_fixture(std::uint32_t batch, sim_time interval) {
    net.register_receiver(recv);
    for (node_id i = 0; i < 4; ++i) {
      relays.push_back(std::make_unique<mix_relay>(
          i, net, keys, batch, interval, i == 1, &monitor, stats::rng(i)));
      net.register_node(i, *relays[i]);
    }
  }

  void submit(std::uint64_t id, const route& r) {
    wire_message msg;
    msg.id = id;
    msg.envelope = crypto::wrap_onion(r, {}, keys, id);
    net.originate(r.sender, net.queue().now(), id);
    net.send(r.sender, r.hops.front(), std::move(msg));
  }
};

TEST(MixRelay, SingleMessageFlushesOnTimer) {
  mix_fixture f(/*batch=*/10, /*interval=*/0.5);
  f.submit(1, route{2, {0, 3}});
  EXPECT_TRUE(f.net.queue().run_until_empty());
  EXPECT_EQ(f.recv.delivered_count(), 1u);
  // Two mix dwell times of 0.5s dominate the latency.
  EXPECT_GT(f.recv.delivery_of(1).at, 1.0);
}

TEST(MixRelay, FullBatchFlushesImmediately) {
  mix_fixture f(/*batch=*/2, /*interval=*/100.0);
  f.submit(1, route{2, {0}});
  f.submit(2, route{3, {0}});
  EXPECT_TRUE(f.net.queue().run_until_empty());
  EXPECT_EQ(f.recv.delivered_count(), 2u);
  // Far earlier than the 100s deadline: size-triggered flush.
  EXPECT_LT(f.recv.delivery_of(1).at, 1.0);
  EXPECT_EQ(f.relays[0]->flushed_batches(), 1u);
  EXPECT_EQ(f.relays[0]->held(), 0u);
}

TEST(MixRelay, StaleTimerDoesNotDoubleFlush) {
  // Fill a batch (immediate flush), then a fresh message: the old timer
  // must not flush the new batch early.
  mix_fixture f(/*batch=*/2, /*interval=*/0.3);
  f.submit(1, route{2, {0}});
  f.submit(2, route{3, {0}});
  f.net.queue().run_until_empty();
  f.submit(3, route{2, {0}});
  EXPECT_TRUE(f.net.queue().run_until_empty());
  EXPECT_EQ(f.recv.delivered_count(), 3u);
  EXPECT_EQ(f.relays[0]->flushed_batches(), 2u);
}

TEST(MixRelay, CompromisedMixStillReportsTuples) {
  mix_fixture f(/*batch=*/1, /*interval=*/0.0);
  f.submit(9, route{2, {1, 3}});  // through compromised mix 1
  f.net.queue().run_until_empty();
  const auto obs = f.monitor.assemble(9);
  ASSERT_EQ(obs.reports.size(), 1u);
  EXPECT_EQ(obs.reports[0].reporter, 1u);
  EXPECT_EQ(obs.reports[0].predecessor, 2u);
  EXPECT_EQ(obs.reports[0].successor, 3u);
}

TEST(MixRelay, BatchOutputIsAPermutationOfInputs) {
  mix_fixture f(/*batch=*/3, /*interval=*/100.0);
  f.submit(1, route{2, {0}});
  f.submit(2, route{3, {0}});
  f.submit(3, route{2, {0}});
  EXPECT_TRUE(f.net.queue().run_until_empty());
  EXPECT_EQ(f.recv.delivered_count(), 3u);
  for (std::uint64_t id : {1u, 2u, 3u})
    EXPECT_TRUE(f.recv.delivered(id));
}

TEST(MixRelay, ValidatesParameters) {
  network net(4, {}, 1);
  const crypto::key_registry keys(1, 4);
  EXPECT_THROW(mix_relay(0, net, keys, 0, 1.0, false, nullptr, stats::rng(1)),
               contract_violation);
  EXPECT_THROW(mix_relay(0, net, keys, 1, -1.0, false, nullptr, stats::rng(1)),
               contract_violation);
}

}  // namespace
}  // namespace anonpath::sim
