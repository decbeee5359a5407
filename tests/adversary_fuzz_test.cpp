// Fuzz/property layer for the adversary models' assembly paths: seeded
// random report streams with out-of-order capture times, duplicate relay
// reports and incomplete messages must never crash, corrupt state, or
// produce unscreened unexplainable posteriors; and the partial-coverage
// model must obey its core structural invariant — observed hop reporters
// form exactly the order-preserving compromised subsequence of the
// ground-truth route.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/anonymity/observation.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/sim/adversary.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {
namespace {

std::vector<bool> random_flags(std::uint32_t n, double f, stats::rng& gen) {
  std::vector<bool> flags(n, false);
  for (std::uint32_t i = 0; i < n; ++i) flags[i] = gen.next_bernoulli(f);
  return flags;
}

/// Feeds the model every report the threat model grants for `r` under
/// `flags`, at the given per-position capture times (times.size() >=
/// r.length()); returns whether the receiver report was delivered too.
void feed_route(adversary_model& model, std::uint64_t msg, const route& r,
                const std::vector<bool>& flags,
                const std::vector<double>& times,
                const std::vector<std::size_t>& order, bool deliver) {
  if (flags[r.sender]) model.note_origin(msg, r.sender);
  const auto l = r.length();
  for (const std::size_t i : order) {
    if (i >= l) continue;
    const node_id here = r.hops[i];
    if (!flags[here]) continue;
    const node_id pred = i == 0 ? r.sender : r.hops[i - 1];
    const node_id succ = i + 1 == l ? receiver_node : r.hops[i + 1];
    model.note_relay(msg, times[i], here, pred, succ);
  }
  if (deliver)
    model.note_receipt(msg, times.empty() ? 1.0 : times.back() + 1.0,
                       l == 0 ? r.sender : r.hops[l - 1]);
}

TEST(AdversaryFuzz, OutOfOrderCaptureTimesStillAssembleInTimeOrder) {
  // Reports filed in shuffled order with monotone per-position times must
  // assemble to exactly observe(route, flags) — the historical contract.
  stats::rng gen(101);
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(gen.next_below(14));
    const auto flags = random_flags(n, 0.4, gen);
    const auto lengths = path_length_distribution::uniform(
        0, std::min<path_length>(8, n - 1));
    const route r = sample_route(n, lengths, gen);

    full_coalition_model model(flags);
    std::vector<double> times(r.length());
    for (std::size_t i = 0; i < times.size(); ++i)
      times[i] = 0.010 * static_cast<double>(i + 1);
    std::vector<std::size_t> order(r.length());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    // Deterministic shuffle via partial Fisher-Yates.
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[gen.next_below(i)]);

    feed_route(model, 1, r, flags, times, order, true);
    ASSERT_TRUE(model.complete(1));
    EXPECT_EQ(model.assemble(1), observe(r, flags)) << "iteration " << iter;
  }
}

TEST(AdversaryFuzz, DuplicateAndIncompleteStreamsNeverCrash) {
  // Arbitrary within-contract call sequences: duplicates of the same
  // report, messages that never complete, ties in capture time. assemble()
  // must throw for incomplete ids, return for complete ones, and the
  // fragment assembler must either produce fragments or reject with
  // invalid_argument — nothing else.
  stats::rng gen(202);
  for (int iter = 0; iter < 400; ++iter) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(gen.next_below(10));
    const auto flags = random_flags(n, 0.5, gen);
    std::vector<node_id> compromised;
    for (node_id i = 0; i < n; ++i)
      if (flags[i]) compromised.push_back(i);
    if (compromised.empty()) continue;

    full_coalition_model model(flags);
    const std::uint32_t calls = 1 + static_cast<std::uint32_t>(gen.next_below(12));
    for (std::uint32_t k = 0; k < calls; ++k) {
      const std::uint64_t msg = gen.next_below(3);
      const auto roll = gen.next_below(10);
      const node_id reporter =
          compromised[gen.next_below(compromised.size())];
      const auto any_node = [&] {
        // Sometimes out-of-range garbage or the receiver sentinel.
        const auto x = gen.next_below(n + 2);
        return x == n ? receiver_node : static_cast<node_id>(x);
      };
      if (roll < 6) {
        model.note_relay(msg, gen.next_double(), reporter, any_node(),
                         any_node());
        if (roll == 0)  // exact duplicate, same capture time
          model.note_relay(msg, gen.next_double(), reporter, any_node(),
                           any_node());
      } else if (roll < 8) {
        model.note_origin(msg, reporter);
      } else {
        model.note_receipt(msg, gen.next_double(), any_node());
      }
    }

    for (std::uint64_t msg = 0; msg < 3; ++msg) {
      if (!model.complete(msg)) {
        EXPECT_THROW((void)model.assemble(msg), std::out_of_range);
        continue;
      }
      const observation obs = model.assemble(msg);
      // Time-sorted, and every capture survives (duplicates included).
      try {
        const auto fragments = assemble_fragments(obs, flags);
        // Chained fragments keep every report's reporter.
        std::size_t reporters = 0;
        for (const auto& f : fragments) {
          for (node_id x : f.nodes)
            if (x != receiver_node && x < n && flags[x]) ++reporters;
        }
        if (!obs.reports.empty()) EXPECT_GE(reporters, 1u);
      } catch (const std::invalid_argument&) {
        // Inconsistent streams are rejected, not mis-assembled.
      }
    }
  }
}

TEST(AdversaryFuzz, PartialCoverageObservedHopsAreOrderPreservingSubsequence) {
  stats::rng gen(303);
  for (int iter = 0; iter < 400; ++iter) {
    const std::uint32_t n = 8 + static_cast<std::uint32_t>(gen.next_below(20));
    const double f = 0.1 + 0.8 * gen.next_double();
    const auto flags = random_flags(n, f, gen);
    const bool receiver = gen.next_bernoulli(0.5);
    const auto lengths = path_length_distribution::uniform(
        0, std::min<path_length>(9, n - 1));
    const route r = sample_route(n, lengths, gen);

    partial_coverage_model model(flags, receiver);
    std::vector<double> times(r.length());
    for (std::size_t i = 0; i < times.size(); ++i)
      times[i] = 0.010 * static_cast<double>(i + 1);
    std::vector<std::size_t> order(r.length());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    feed_route(model, 1, r, flags, times, order, true);

    // The invariant's reference: the compromised subsequence of the route.
    std::vector<node_id> expected;
    for (node_id hop : r.hops)
      if (flags[hop]) expected.push_back(hop);

    const bool observable =
        receiver || flags[r.sender] || !expected.empty();
    ASSERT_EQ(model.complete(1), observable);
    if (!observable) continue;

    const observation obs = model.assemble(1);
    std::vector<node_id> reported;
    for (const auto& rep : obs.reports) reported.push_back(rep.reporter);
    EXPECT_EQ(reported, expected)
        << "iteration " << iter
        << ": reports must be the route's compromised subsequence, in order";
    EXPECT_EQ(obs.receiver_observed, receiver);
    if (receiver) {
      EXPECT_EQ(obs.receiver_predecessor,
                r.length() == 0 ? r.sender : r.hops[r.length() - 1]);
    }

    // And the posterior engine accepts it: the true sender always keeps
    // positive likelihood under the drawn coalition.
    std::vector<node_id> ids;
    for (node_id i = 0; i < n; ++i)
      if (flags[i]) ids.push_back(i);
    const posterior_engine engine(
        {n, static_cast<std::uint32_t>(ids.size())}, ids, lengths);
    EXPECT_TRUE(engine.explainable(obs));
    EXPECT_TRUE(std::isfinite(engine.log_likelihood(obs, r.sender)))
        << "iteration " << iter;
    const auto post = engine.sender_posterior(obs);
    EXPECT_GT(post[r.sender], 0.0);
    // Fast path and reference agree on the new observation shapes too.
    const auto ref = engine.sender_posterior_reference(obs);
    for (std::size_t i = 0; i < post.size(); ++i)
      EXPECT_NEAR(post[i], ref[i], 1e-12);
  }
}

TEST(AdversaryFuzz, TimingCorrelatorToleratesArbitraryStreams) {
  // Random capture soups: linking must stay deterministic, never crash,
  // and every produced observation must be screenable by explainable().
  stats::rng gen(404);
  for (int iter = 0; iter < 150; ++iter) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(gen.next_below(10));
    const auto flags = random_flags(n, 0.6, gen);
    std::vector<node_id> compromised;
    for (node_id i = 0; i < n; ++i)
      if (flags[i]) compromised.push_back(i);
    if (compromised.empty()) continue;

    const latency_params lat{0.010, 0.004, 0.002};
    timing_correlator_model model(flags, lat);
    const std::uint32_t captures =
        static_cast<std::uint32_t>(gen.next_below(20));
    for (std::uint32_t k = 0; k < captures; ++k) {
      const node_id reporter =
          compromised[gen.next_below(compromised.size())];
      const auto succ_roll = gen.next_below(n + 1);
      model.note_relay(gen.next_below(5), gen.next_double() * 0.2, reporter,
                       static_cast<node_id>(gen.next_below(n)),
                       succ_roll == n ? receiver_node
                                      : static_cast<node_id>(succ_roll));
    }
    const std::uint32_t receipts =
        1 + static_cast<std::uint32_t>(gen.next_below(5));
    for (std::uint32_t k = 0; k < receipts; ++k)
      model.note_receipt(k, gen.next_double() * 0.25,
                         static_cast<node_id>(gen.next_below(n)));

    const auto observed = model.observed_messages();
    EXPECT_EQ(observed.size(), receipts);
    const posterior_engine engine(
        {n, static_cast<std::uint32_t>(compromised.size())}, compromised,
        path_length_distribution::uniform(0, std::min<path_length>(6, n - 1)));
    for (const std::uint64_t msg : observed) {
      const observation obs = model.assemble(msg);
      EXPECT_TRUE(obs.gapped);
      if (engine.explainable(obs)) {
        const auto post = engine.sender_posterior(obs);
        double total = 0.0;
        for (double p : post) total += p;
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace anonpath::sim
