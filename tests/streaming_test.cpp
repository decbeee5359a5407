// Streaming online disclosure inference: the incremental accumulator (exact
// and sketch backends) with its merge/shard invariance, the online_attack
// session's bit-identity with offline post-processing, the sketched SDA's
// conformance bounds and memory sublinearity, and the hardened
// sda_attack::from_counts / confidence() regressions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/attack/disclosure.hpp"
#include "src/attack/online.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/rng.hpp"
#include "src/workload/cooccurrence.hpp"
#include "src/workload/population.hpp"
#include "src/workload/sketch.hpp"
#include "src/workload/streaming.hpp"

namespace anonpath {
namespace {

workload::population_config stream_config() {
  workload::population_config cfg;
  cfg.seed = 21;
  cfg.user_count = 300;
  cfg.receiver_count = 200;
  cfg.round_count = 80;
  cfg.persistent_pairs = 2;
  cfg.persistent_rate = 0.7;
  cfg.round_size = 8;
  return cfg;
}

/// The adversary's view of round r for the tracked pair, exactly as
/// run_workload_attack derives it.
attack::round_observation observe(const workload::population& pop,
                                  std::uint32_t pair_index, std::uint32_t r) {
  const workload::round_batch batch = pop.round(r);
  const node_id target = pop.pairs()[pair_index].sender;
  attack::round_observation obs;
  obs.target_present =
      std::find(batch.senders.begin(), batch.senders.end(), target) !=
      batch.senders.end();
  obs.receivers = batch.receivers;
  return obs;
}

TEST(StreamBackend, LabelsRoundTrip) {
  for (const workload::stream_backend b :
       {workload::stream_backend::exact, workload::stream_backend::sketch}) {
    const auto parsed =
        workload::parse_stream_backend(workload::stream_backend_label(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(workload::parse_stream_backend("dense").has_value());
}

TEST(StreamingAccumulator, ZeroRoundPopulationIsAnEmptyAccumulationNotAnAbort) {
  // Regression: accumulate_cooccurrence used to hit a contract abort on
  // round_count == 0; empty streams are first-class now.
  workload::population_config cfg = stream_config();
  cfg.round_count = 0;
  EXPECT_TRUE(cfg.valid());
  const workload::population pop(cfg);
  const workload::cooccurrence_result acc =
      workload::accumulate_cooccurrence(pop, {});
  EXPECT_EQ(acc.rounds, 0u);
  EXPECT_EQ(acc.messages, 0u);
  EXPECT_TRUE(acc.global_receiver_counts.empty());
  ASSERT_EQ(acc.per_pair.size(), pop.pairs().size());
  for (const workload::pair_counts& pc : acc.per_pair) {
    EXPECT_EQ(pc.target_rounds, 0u);
    EXPECT_TRUE(pc.target_receiver_counts.empty());
  }
  // The posterior over empty counts is the uniform prior, not a crash.
  const attack::sda_attack atk =
      attack::sda_attack::from_counts(acc, 0, cfg.receiver_count);
  for (double p : atk.posterior())
    EXPECT_DOUBLE_EQ(p, 1.0 / cfg.receiver_count);
}

TEST(StreamingAccumulator, PartialRangesComposeToTheFullAccumulation) {
  const workload::population pop(stream_config());
  const workload::cooccurrence_result reference =
      workload::accumulate_cooccurrence(pop, {});

  // Empty range: a first-class empty accumulator.
  const workload::streaming_accumulator empty =
      workload::accumulate_streaming(pop, 37, 37);
  EXPECT_EQ(empty.rounds(), 0u);
  EXPECT_EQ(empty.messages(), 0u);

  // Uneven disjoint ranges merged in order reproduce the full accumulation.
  std::vector<node_id> senders;
  for (const workload::persistent_pair& p : pop.pairs())
    senders.push_back(p.sender);
  workload::streaming_accumulator merged(senders);
  for (const auto& [lo, hi] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 13}, {13, 13}, {13, 47}, {47, 80}})
    merged.merge(workload::accumulate_streaming(pop, lo, hi));
  EXPECT_EQ(merged.totals(), reference);

  // Sequential one-round ingestion is the same accumulation again.
  workload::streaming_accumulator sequential(senders);
  for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
    sequential.ingest(pop.round(r));
  EXPECT_EQ(sequential.totals(), reference);
}

TEST(StreamingAccumulator, ThreadAndShardInvarianceBothBackends) {
  const workload::population pop(stream_config());
  const workload::cooccurrence_result exact_reference =
      workload::accumulate_cooccurrence(pop, {});
  workload::streaming_config sketch_cfg;
  sketch_cfg.backend = workload::stream_backend::sketch;
  const workload::streaming_accumulator sketch_reference =
      workload::accumulate_streaming(pop, 0, pop.config().round_count,
                                     sketch_cfg);
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint32_t shards : {0u, 3u, 17u}) {
      workload::cooccurrence_config ccfg;
      ccfg.threads = threads;
      ccfg.shard_count = shards;
      EXPECT_EQ(workload::accumulate_streaming(pop, 0,
                                               pop.config().round_count, {},
                                               ccfg)
                    .totals(),
                exact_reference)
          << "exact threads=" << threads << " shards=" << shards;
      const workload::streaming_accumulator sk =
          workload::accumulate_streaming(pop, 0, pop.config().round_count,
                                         sketch_cfg, ccfg);
      EXPECT_EQ(sk.global_sketch(), sketch_reference.global_sketch())
          << "sketch threads=" << threads << " shards=" << shards;
      for (std::uint32_t p = 0; p < pop.pairs().size(); ++p) {
        EXPECT_EQ(sk.target_sketch(p), sketch_reference.target_sketch(p));
        EXPECT_EQ(sk.candidate_sample(p).keys(),
                  sketch_reference.candidate_sample(p).keys())
            << "pair " << p << " threads=" << threads
            << " shards=" << shards;
      }
    }
  }
}

/// Rounds with heavy receiver repetition: most deliveries hit five hot ids,
/// the rest spread over a wide id range; sizes 0..8 (empty rounds too).
/// Senders are drawn from 0..5, so pairs tracking senders 1 and 4 see
/// target rounds often.
std::vector<workload::round_batch> repetitive_rounds(std::uint32_t rounds,
                                                     std::uint64_t seed) {
  stats::rng gen(seed);
  std::vector<workload::round_batch> out(rounds);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    out[r].round = r;
    const std::uint64_t size = gen.next_below(9);
    for (std::uint64_t j = 0; j < size; ++j) {
      out[r].senders.push_back(static_cast<node_id>(gen.next_below(6)));
      out[r].receivers.push_back(static_cast<node_id>(
          gen.next_below(4) == 0 ? 1000 + gen.next_below(100000)
                                 : gen.next_below(5)));
    }
  }
  return out;
}

const std::vector<node_id> kFlatSenders = {4, 1};

/// The same accumulation kept in std::maps, under the accumulator's
/// membership rule.
workload::cooccurrence_result map_reference(
    const std::vector<workload::round_batch>& rounds, std::size_t lo,
    std::size_t hi) {
  std::map<node_id, std::uint64_t> global;
  std::vector<std::map<node_id, std::uint64_t>> target(kFlatSenders.size());
  workload::cooccurrence_result out;
  out.per_pair.resize(kFlatSenders.size());
  for (std::size_t r = lo; r < hi; ++r) {
    const workload::round_batch& b = rounds[r];
    ++out.rounds;
    out.messages += b.senders.size();
    for (node_id v : b.receivers) ++global[v];
    for (std::size_t p = 0; p < kFlatSenders.size(); ++p) {
      if (std::find(b.senders.begin(), b.senders.end(), kFlatSenders[p]) ==
          b.senders.end())
        continue;
      ++out.per_pair[p].target_rounds;
      out.per_pair[p].target_messages += b.senders.size();
      for (node_id v : b.receivers) ++target[p][v];
    }
  }
  out.global_receiver_counts.assign(global.begin(), global.end());
  for (std::size_t p = 0; p < kFlatSenders.size(); ++p)
    out.per_pair[p].target_receiver_counts.assign(target[p].begin(),
                                                  target[p].end());
  return out;
}

workload::streaming_accumulator ingest_range(
    const std::vector<workload::round_batch>& rounds, std::size_t lo,
    std::size_t hi) {
  workload::streaming_accumulator acc(kFlatSenders);
  for (std::size_t r = lo; r < hi; ++r) acc.ingest(rounds[r]);
  return acc;
}

TEST(FlatCounts, MatchAMapReferenceAfterEveryRound) {
  // Checking after every round sees the pending tail at every length, just
  // below and at/above the point where it is folded into the sorted run.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto rounds = repetitive_rounds(120, seed);
    workload::streaming_accumulator acc(kFlatSenders);
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      acc.ingest(rounds[r]);
      ASSERT_EQ(acc.totals(), map_reference(rounds, 0, r + 1))
          << "seed " << seed << " after round " << r;
    }
  }
}

TEST(FlatCounts, CompactionBoundaryIsInvisible) {
  // A run of 8 distinct receivers, then pending tails of 7 (below the fold
  // point), 8 (at it) and 9 (above it) rows, each alone and merged.
  std::vector<workload::round_batch> rounds(4);
  rounds[0].receivers = {9, 2, 7, 0, 5, 3, 8, 1};
  rounds[1].receivers = {2, 2, 9, 6, 6, 0, 3};
  rounds[2].receivers = {6};
  rounds[3].receivers = {1, 1, 1, 4, 4, 4, 0, 0, 0};
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    rounds[r].round = static_cast<std::uint32_t>(r);
    rounds[r].senders.assign(rounds[r].receivers.size(), r % 2 == 0 ? 4 : 1);
  }
  for (std::size_t hi = 0; hi <= rounds.size(); ++hi) {
    EXPECT_EQ(ingest_range(rounds, 0, hi).totals(),
              map_reference(rounds, 0, hi))
        << "prefix " << hi;
    for (std::size_t lo = 0; lo <= hi; ++lo) {
      workload::streaming_accumulator merged = ingest_range(rounds, 0, lo);
      merged.merge(ingest_range(rounds, lo, hi));
      EXPECT_EQ(merged.totals(), map_reference(rounds, 0, hi))
          << "merge [0," << lo << ") + [" << lo << "," << hi << ")";
    }
  }
}

TEST(FlatCounts, EveryMergeSplitAndOrderMatchesTheReference) {
  const auto rounds = repetitive_rounds(40, 9);
  const workload::cooccurrence_result reference =
      map_reference(rounds, 0, rounds.size());
  for (std::size_t k = 0; k <= rounds.size(); ++k) {
    workload::streaming_accumulator head = ingest_range(rounds, 0, k);
    workload::streaming_accumulator tail = ingest_range(rounds, k, rounds.size());
    workload::streaming_accumulator tail_first = tail;
    head.merge(tail);
    tail_first.merge(ingest_range(rounds, 0, k));
    EXPECT_EQ(head.totals(), reference) << "split " << k;
    EXPECT_EQ(tail_first.totals(), reference) << "split " << k << " reversed";
  }
  // Three-way splits, folded in all six orders.
  for (std::size_t i = 0; i <= rounds.size(); i += 5) {
    for (std::size_t j = i; j <= rounds.size(); j += 7) {
      const std::vector<workload::streaming_accumulator> parts = {
          ingest_range(rounds, 0, i), ingest_range(rounds, i, j),
          ingest_range(rounds, j, rounds.size())};
      std::vector<std::size_t> order = {0, 1, 2};
      do {
        workload::streaming_accumulator acc = parts[order[0]];
        acc.merge(parts[order[1]]);
        acc.merge(parts[order[2]]);
        EXPECT_EQ(acc.totals(), reference)
            << "splits " << i << "," << j << " order " << order[0]
            << order[1] << order[2];
      } while (std::next_permutation(order.begin(), order.end()));
    }
  }
}

TEST(FlatCounts, EmptyAccumulatorsMergeAsIdentity) {
  const auto rounds = repetitive_rounds(30, 5);
  const workload::cooccurrence_result reference =
      map_reference(rounds, 0, rounds.size());
  const workload::streaming_accumulator empty(kFlatSenders);
  EXPECT_EQ(empty.totals(), map_reference(rounds, 0, 0));
  workload::streaming_accumulator both_empty = empty;
  both_empty.merge(empty);
  EXPECT_EQ(both_empty.totals(), map_reference(rounds, 0, 0));
  workload::streaming_accumulator into_empty = empty;
  into_empty.merge(ingest_range(rounds, 0, rounds.size()));
  EXPECT_EQ(into_empty.totals(), reference);
  workload::streaming_accumulator from_empty =
      ingest_range(rounds, 0, rounds.size());
  from_empty.merge(empty);
  EXPECT_EQ(from_empty.totals(), reference);
}

TEST(OnlineAttack, SnapshotMatchesADirectEngineAtEveryRound) {
  // The online session must be a pure pass-through: at every stream
  // position its posterior is bit-identical to an engine fed the same
  // observations directly — including loss rounds (empty deliveries).
  const workload::population pop(stream_config());
  for (const attack::attack_kind kind :
       {attack::attack_kind::intersection, attack::attack_kind::sda,
        attack::attack_kind::sequential_bayes}) {
    attack::online_config ocfg;
    ocfg.kind = kind;
    attack::online_attack online(pop.config().receiver_count, ocfg);
    auto direct = attack::make_attack(kind, pop.config().receiver_count);
    for (std::uint32_t r = 0; r < pop.config().round_count; ++r) {
      attack::round_observation obs = observe(pop, 0, r);
      if (r % 11 == 3) obs.receivers.clear();  // retry/loss round
      online.ingest(obs);
      direct->observe_round(obs);
      EXPECT_EQ(online.posterior(), direct->posterior())
          << attack::attack_kind_label(kind) << " round " << r;
    }
  }
}

TEST(OnlineAttack, SdaOnlineEqualsOfflineCountPostprocessing) {
  // The genuine two-path identity: incremental observe_round ingestion vs
  // the sharded offline accumulation rebuilt through from_counts.
  const workload::population pop(stream_config());
  workload::cooccurrence_config ccfg;
  ccfg.threads = 8;
  const workload::cooccurrence_result totals =
      workload::accumulate_cooccurrence(pop, ccfg);
  for (std::uint32_t pair = 0; pair < pop.pairs().size(); ++pair) {
    attack::online_config ocfg;
    attack::online_attack online(pop.config().receiver_count, ocfg);
    for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
      online.ingest(observe(pop, pair, r));
    const attack::sda_attack offline = attack::sda_attack::from_counts(
        totals, pair, pop.config().receiver_count);
    EXPECT_EQ(online.posterior(), offline.posterior()) << "pair " << pair;
  }
}

TEST(OnlineAttack, TrajectoryStrideAndFinalPoint) {
  const workload::population pop(stream_config());
  attack::online_config ocfg;
  ocfg.stride = 7;
  attack::online_attack online(pop.config().receiver_count, ocfg);
  for (std::uint32_t r = 0; r < 24; ++r) online.ingest(observe(pop, 0, r));
  const std::vector<attack::trajectory_point>& traj = online.trajectory();
  ASSERT_EQ(traj.size(), 3u);  // rounds 7, 14, 21
  for (std::size_t i = 0; i < traj.size(); ++i)
    EXPECT_EQ(traj[i].round, 7u * (i + 1));
  // result() appends the current position when it is off-stride.
  const attack::attack_result res = online.result();
  ASSERT_EQ(res.trajectory.size(), 4u);
  EXPECT_EQ(res.trajectory.back().round, 24u);
  EXPECT_EQ(res.rounds, 24u);

  // An empty stream still summarizes: one uniform point at round 0.
  attack::online_attack idle(pop.config().receiver_count, ocfg);
  const attack::attack_result nothing = idle.result();
  ASSERT_EQ(nothing.trajectory.size(), 1u);
  EXPECT_EQ(nothing.trajectory.front().round, 0u);
  EXPECT_NEAR(nothing.entropy_bits,
              std::log2(pop.config().receiver_count), 1e-12);
}

TEST(OnlineAttack, RunWorkloadAttackEqualsManualSession) {
  const workload::population pop(stream_config());
  auto engine =
      attack::make_attack(attack::attack_kind::sda, pop.config().receiver_count);
  const attack::attack_result offline =
      attack::run_workload_attack(pop, 1, *engine, 0.99, 5);

  attack::online_config ocfg;
  ocfg.stride = 5;
  attack::online_attack online(pop.config().receiver_count, ocfg);
  for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
    online.ingest(observe(pop, 1, r));
  const attack::attack_result res = online.result();
  EXPECT_EQ(online.posterior(), engine->posterior());
  ASSERT_EQ(res.trajectory.size(), offline.trajectory.size());
  for (std::size_t i = 0; i < res.trajectory.size(); ++i) {
    EXPECT_EQ(res.trajectory[i].round, offline.trajectory[i].round);
    EXPECT_EQ(res.trajectory[i].entropy_bits,
              offline.trajectory[i].entropy_bits);
  }
  EXPECT_EQ(res.identified_round, offline.identified_round);
}

TEST(OnlineAttack, SharedPassEqualsOneRunPerEngine) {
  // Engines fed from one pass over the rounds see exactly the stream each
  // would see alone.
  const workload::population pop(stream_config());
  const std::uint32_t n = pop.config().receiver_count;
  attack::sda_attack exact(n);
  attack::sketch_sda_attack sketch(n);
  auto bayes = attack::make_attack(attack::attack_kind::sequential_bayes, n);
  attack::disclosure_attack* const engines[] = {&exact, &sketch, bayes.get()};
  const std::vector<attack::attack_result> shared =
      attack::run_workload_attack(pop, 1, engines, 0.9, 3);
  ASSERT_EQ(shared.size(), 3u);
  for (std::size_t e = 0; e < shared.size(); ++e) {
    const auto alone_engine =
        e == 0 ? attack::make_attack(attack::attack_kind::sda, n)
        : e == 1
            ? std::unique_ptr<attack::disclosure_attack>(
                  std::make_unique<attack::sketch_sda_attack>(n))
            : attack::make_attack(attack::attack_kind::sequential_bayes, n);
    const attack::attack_result alone =
        attack::run_workload_attack(pop, 1, *alone_engine, 0.9, 3);
    const attack::attack_result& both = shared[e];
    EXPECT_EQ(both.rounds, alone.rounds);
    EXPECT_EQ(both.identified_round, alone.identified_round);
    ASSERT_EQ(both.trajectory.size(), alone.trajectory.size()) << e;
    for (std::size_t i = 0; i < both.trajectory.size(); ++i) {
      const attack::trajectory_point& a = both.trajectory[i];
      const attack::trajectory_point& b = alone.trajectory[i];
      EXPECT_EQ(a.round, b.round);
      EXPECT_EQ(a.entropy_bits, b.entropy_bits) << e << " @" << a.round;
      EXPECT_EQ(a.top_mass, b.top_mass) << e << " @" << a.round;
      EXPECT_EQ(a.top_receiver, b.top_receiver) << e << " @" << a.round;
      EXPECT_EQ(a.identified, b.identified) << e << " @" << a.round;
    }
    EXPECT_EQ(engines[e]->posterior(), alone_engine->posterior()) << e;
  }
}

TEST(OnlineAttack, ConfigValidationRejectsIncoherentSessions) {
  attack::online_config bad;
  bad.kind = attack::attack_kind::sequential_bayes;
  bad.backend = workload::stream_backend::sketch;
  EXPECT_FALSE(bad.valid());
  EXPECT_THROW(attack::online_attack(10, bad), contract_violation);
  bad = {};
  bad.stride = 0;
  EXPECT_FALSE(bad.valid());
  bad = {};
  bad.kind = attack::attack_kind::none;
  EXPECT_FALSE(bad.valid());
  bad = {};
  bad.identified_threshold = 1.0;
  EXPECT_FALSE(bad.valid());
}

TEST(OnlineAttack, ContractMessageNamesTheSourceFromTheRepositoryRoot) {
  // The build maps the source root out of __FILE__, so a contract failure
  // (which a campaign journals and renders into its CSV error column) reads
  // the same from every checkout.
  attack::online_config cfg;
  cfg.stride = 0;
  try {
    attack::online_attack session(10, cfg);
    FAIL() << "stride 0 was accepted";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    const std::size_t at = what.rfind(" at ");
    ASSERT_NE(at, std::string::npos) << what;
    EXPECT_NE(what.find(" at src/attack/online.cpp:"), std::string::npos)
        << what;
    EXPECT_NE(what[at + 4], '/') << what;
  }
}

TEST(SketchSda, FromAccumulatorEqualsOnlineIngestion) {
  const workload::population pop(stream_config());
  workload::streaming_config scfg;
  scfg.backend = workload::stream_backend::sketch;
  workload::cooccurrence_config ccfg;
  ccfg.threads = 8;
  const workload::streaming_accumulator acc = workload::accumulate_streaming(
      pop, 0, pop.config().round_count, scfg, ccfg);
  for (std::uint32_t pair = 0; pair < pop.pairs().size(); ++pair) {
    attack::sketch_sda_attack online(pop.config().receiver_count);
    for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
      online.observe_round(observe(pop, pair, r));
    const attack::sketch_sda_attack sharded =
        attack::sketch_sda_attack::from_accumulator(
            acc, pair, pop.config().receiver_count);
    EXPECT_EQ(sharded.posterior(), online.posterior()) << "pair " << pair;
    EXPECT_EQ(sharded.candidates(), online.candidates()) << "pair " << pair;
    EXPECT_EQ(sharded.target_rounds(), online.target_rounds());
  }
}

TEST(SketchSda, EmptyRoundsAdvanceTheStreamPosition) {
  // Loss rounds carry no counts but must keep the reservoir priorities
  // aligned with the round index, or online ingestion and the sharded
  // accumulator (which indexes by batch.round) would diverge.
  const workload::population pop(stream_config());
  attack::sketch_sda_attack with_loss(pop.config().receiver_count);
  attack::sketch_sda_attack dense(pop.config().receiver_count);
  for (std::uint32_t r = 0; r < 40; ++r) {
    const attack::round_observation obs = observe(pop, 0, r);
    dense.observe_round(obs);
    attack::round_observation lossy;  // empty delivery round
    lossy.target_present = true;
    with_loss.observe_round(lossy);
    with_loss.observe_round(obs);
    with_loss.observe_round(lossy);
  }
  // Same deliveries at different stream positions: both engines retain a
  // valid reservoir, but the positions (hence priorities) differ — the
  // test pins that empty rounds DO advance position (no silent collapse
  // back to the dense numbering after the first loss).
  EXPECT_EQ(dense.target_rounds(), with_loss.target_rounds());
  EXPECT_EQ(with_loss.posterior().size(), dense.posterior().size());
}

TEST(SketchSda, BitIdenticalToExactSdaWhenCollisionFree) {
  // Small instance, default width: the sketches resolve every receiver
  // exactly and the reservoir never saturates, so the posterior must be
  // bit-identical to the dense engine on the same stream.
  workload::population_config cfg = stream_config();
  cfg.receiver_count = 120;
  const workload::population pop(cfg);
  attack::sketch_sda_attack sketched(cfg.receiver_count);
  attack::sda_attack dense(cfg.receiver_count);
  for (std::uint32_t r = 0; r < cfg.round_count; ++r) {
    const attack::round_observation obs = observe(pop, 0, r);
    sketched.observe_round(obs);
    dense.observe_round(obs);
  }
  ASSERT_FALSE(sketched.candidates_saturated());
  EXPECT_EQ(sketched.posterior(), dense.posterior());
}

TEST(SketchSda, EstimatesNeverUndercountAndRespectTheBound) {
  const workload::population pop(stream_config());
  const workload::cooccurrence_result totals =
      workload::accumulate_cooccurrence(pop, {});
  attack::sketch_sda_attack sketched(pop.config().receiver_count);
  for (std::uint32_t r = 0; r < pop.config().round_count; ++r)
    sketched.observe_round(observe(pop, 0, r));
  for (const auto& [receiver, count] : totals.global_receiver_counts) {
    const std::uint64_t est = sketched.estimate_global(receiver);
    EXPECT_GE(est, count) << "count-min must never undercount " << receiver;
    EXPECT_LE(est, count + sketched.error_bound()) << "receiver " << receiver;
  }
  for (const auto& [receiver, count] :
       totals.per_pair[0].target_receiver_counts) {
    EXPECT_GE(sketched.estimate_target(receiver), count);
  }
  // The candidate reservoir must retain the true partner — it co-occurs in
  // every emitting round, so its min-priority survives saturation.
  const std::vector<node_id> cand = sketched.candidates();
  EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(),
                                 pop.pairs()[0].receiver));
}

TEST(SketchSda, MemoryIsIndependentOfTheReceiverPopulation) {
  const attack::sketch_sda_attack small(1000);
  const attack::sketch_sda_attack large(10000000);
  EXPECT_EQ(small.memory_bytes(), large.memory_bytes());
  EXPECT_LT(large.memory_bytes(), std::size_t{1} << 20);
  // The dense engine scales with the population; that is the gap the
  // sketch backend exists to close.
  const attack::sda_attack dense_small(1000);
  const attack::sda_attack dense_large(1000000);
  EXPECT_GT(dense_large.memory_bytes(), dense_small.memory_bytes());
  EXPECT_GT(dense_large.memory_bytes(), large.memory_bytes());
}

TEST(BottomKSample, WeightedOffersAreOrderAndShardInvariant) {
  // The retained set is a pure function of the offered (key, priority)
  // multiset: any split and any order merge to the same sample.
  const std::uint64_t salt = 99;
  workload::bottom_k_sample forward(4, salt);
  workload::bottom_k_sample backward(4, salt);
  workload::bottom_k_sample sharded_a(4, salt);
  workload::bottom_k_sample sharded_b(4, salt);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> offers;
  for (std::uint64_t round = 0; round < 30; ++round)
    for (std::uint64_t slot = 0; slot < 3; ++slot)
      offers.emplace_back((round * 3 + slot) % 11,
                          workload::occurrence_priority(salt, round, slot));
  for (const auto& [k, p] : offers) forward.offer(k, p);
  for (auto it = offers.rbegin(); it != offers.rend(); ++it)
    backward.offer(it->first, it->second);
  for (std::size_t i = 0; i < offers.size(); ++i)
    (i % 2 ? sharded_a : sharded_b).offer(offers[i].first, offers[i].second);
  sharded_a.merge(sharded_b);
  EXPECT_EQ(forward.keys(), backward.keys());
  EXPECT_EQ(forward.keys(), sharded_a.keys());
  EXPECT_TRUE(forward.saturated());  // 11 distinct keys > k = 4
}

/// The reservoir as it was first written — a std::set of (prio, key) and a
/// std::map of key -> prio, every new key inserted and the largest entry
/// then evicted — kept as the oracle the flat heap must reproduce: the
/// retained keys, saturation, and the eviction count of every offer order.
class reference_bottom_k {
 public:
  reference_bottom_k(std::uint32_t k, std::uint64_t salt) : k_(k), salt_(salt) {}

  void offer(std::uint64_t key) {
    offer(key, workload::sketch_hash(salt_, 0x5eed, key));
  }

  void offer(std::uint64_t key, std::uint64_t priority) {
    const auto it = prio_of_.find(key);
    if (it != prio_of_.end()) {
      if (priority >= it->second) return;
      entries_.erase({it->second, key});
      it->second = priority;
      entries_.emplace(priority, key);
      return;
    }
    prio_of_.emplace(key, priority);
    entries_.emplace(priority, key);
    if (entries_.size() > k_) {
      const auto worst = std::prev(entries_.end());
      prio_of_.erase(worst->second);
      entries_.erase(worst);
      saturated_ = true;
      ++evictions_;
    }
  }

  void merge(const reference_bottom_k& other) {
    evictions_ += other.evictions_;
    for (const auto& [prio, key] : other.entries_) offer(key, prio);
    saturated_ = saturated_ || other.saturated_;
  }

  std::vector<std::uint64_t> keys() const {
    std::vector<std::uint64_t> out;
    for (const auto& entry : entries_) out.push_back(entry.second);
    std::sort(out.begin(), out.end());
    return out;
  }
  bool saturated() const { return saturated_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::uint32_t k_;
  std::uint64_t salt_;
  bool saturated_ = false;
  std::uint64_t evictions_ = 0;
  std::set<std::pair<std::uint64_t, std::uint64_t>> entries_;
  std::map<std::uint64_t, std::uint64_t> prio_of_;
};

/// One reservoir and its oracle, fed the same offers.
struct reservoir_pair {
  workload::bottom_k_sample flat;
  reference_bottom_k oracle;

  reservoir_pair(std::uint32_t k, std::uint64_t salt)
      : flat(k, salt), oracle(k, salt) {}

  /// A priority of kUnweighted takes the one-argument (hashed) offer.
  void offer(std::uint64_t key, std::uint64_t priority) {
    if (priority == kUnweighted) {
      flat.offer(key);
      oracle.offer(key);
    } else {
      flat.offer(key, priority);
      oracle.offer(key, priority);
    }
  }
  void merge(const reservoir_pair& other) {
    flat.merge(other.flat);
    oracle.merge(other.oracle);
  }
  void expect_agree(const std::string& what) const {
    EXPECT_EQ(flat.keys(), oracle.keys()) << what;
    EXPECT_EQ(flat.saturated(), oracle.saturated()) << what;
    EXPECT_EQ(flat.evictions(), oracle.evictions()) << what;
    EXPECT_EQ(flat.size(), oracle.keys().size()) << what;
  }

  static constexpr std::uint64_t kUnweighted = ~std::uint64_t{0};
};

/// A seeded offer stream over `keys` distinct keys with priorities from
/// `prios` values (so keys repeat and priorities tie), one offer in eight
/// unweighted; with `spread`, keys are scattered over 64 bits so the index
/// sees arbitrary hashes.
std::vector<std::pair<std::uint64_t, std::uint64_t>> offer_stream(
    std::size_t length, std::uint64_t keys, std::uint64_t prios, bool spread,
    std::uint64_t seed) {
  stats::rng gen(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out(length);
  for (auto& [key, prio] : out) {
    key = gen.next_below(keys);
    if (spread) key = workload::sketch_hash(seed, 7, key);
    prio = gen.next_below(8) == 0 ? reservoir_pair::kUnweighted
                                  : gen.next_below(prios);
  }
  return out;
}

TEST(BottomKSample, SequentialOffersMatchTheSetAndMapOracle) {
  for (const std::uint32_t k : {1u, 4u, 512u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::string what =
          "k " + std::to_string(k) + " seed " + std::to_string(seed);
      const std::uint64_t keys = seed % 2 ? 3 * k + 5 : k + 1;
      const auto stream =
          offer_stream(8 * k + 200, keys, seed % 3 ? 4 * k : 3, seed > 3,
                       seed * 131 + k);
      reservoir_pair r(k, seed);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        r.offer(stream[i].first, stream[i].second);
        if (i % 37 == 0) r.expect_agree(what + " offer " + std::to_string(i));
      }
      r.expect_agree(what);
    }
  }
}

TEST(BottomKSample, MergesMatchTheSetAndMapOracle) {
  for (const std::uint32_t k : {1u, 4u, 512u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string what =
          "k " + std::to_string(k) + " seed " + std::to_string(seed);
      const auto stream = offer_stream(6 * k + 120, 2 * k + 9, 2 * k,
                                       seed % 2 == 0, seed * 17 + k);
      for (const std::size_t ways : {2u, 4u}) {
        std::vector<reservoir_pair> shards(ways, reservoir_pair(k, seed));
        stats::rng pick(seed + ways);
        for (const auto& [key, prio] : stream)
          shards[pick.next_below(ways)].offer(key, prio);
        // Left fold, then (for four shards) a pairwise tree.
        reservoir_pair folded = shards[0];
        for (std::size_t s = 1; s < ways; ++s) folded.merge(shards[s]);
        folded.expect_agree(what + " " + std::to_string(ways) + "-way fold");
        if (ways == 4) {
          reservoir_pair left = shards[3], right = shards[1];
          left.merge(shards[2]);
          right.merge(shards[0]);
          left.merge(right);
          left.expect_agree(what + " 4-way tree");
          EXPECT_EQ(left.flat.keys(), folded.flat.keys()) << what;
        }
      }
    }
  }
}

TEST(BottomKSample, MemoryIsFixedAtConstruction) {
  workload::bottom_k_sample sample(512, 3);
  const std::size_t before = sample.memory_bytes();
  for (std::uint64_t key = 0; key < 5000; ++key) sample.offer(key, key * 7);
  EXPECT_EQ(sample.memory_bytes(), before);
  EXPECT_EQ(sample.size(), 512u);
}

TEST(CountMinSketch, WidthMustBeAPowerOfTwo) {
  EXPECT_FALSE((workload::sketch_params{.width = 3}.valid()));
  EXPECT_FALSE((workload::sketch_params{.width = 4095}.valid()));
  EXPECT_TRUE((workload::sketch_params{.width = 16}.valid()));
  EXPECT_TRUE(workload::sketch_params{}.valid());
  EXPECT_THROW(workload::count_min_sketch(4, 3, 5), contract_violation);
  EXPECT_THROW(workload::count_min_sketch(4, 4095, 5), contract_violation);
}

TEST(CountMinSketch, TwinAddEqualsTwoAdds) {
  workload::count_min_sketch a(4, 64, 9), b(4, 64, 9);
  workload::count_min_sketch a_ref(4, 64, 9), b_ref(4, 64, 9);
  stats::rng gen(5);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t key = gen.next_below(300);
    if (i % 3 == 0) {
      a.add(key);
      a_ref.add(key);
    } else {
      a.add_twin(key, b);
      a_ref.add(key);
      b_ref.add(key);
    }
  }
  EXPECT_EQ(a, a_ref);
  EXPECT_EQ(b, b_ref);
  workload::count_min_sketch other_salt(4, 64, 10);
  EXPECT_THROW(a.add_twin(1, other_salt), contract_violation);
}

/// Builds a small internally-consistent counts fixture from_counts accepts.
workload::cooccurrence_result valid_counts() {
  workload::cooccurrence_result totals;
  totals.rounds = 10;
  totals.messages = 30;
  totals.global_receiver_counts = {{0, 10}, {2, 12}, {4, 8}};
  totals.per_pair.resize(1);
  totals.per_pair[0].target_rounds = 4;
  totals.per_pair[0].target_messages = 12;
  totals.per_pair[0].target_receiver_counts = {{0, 6}, {2, 6}};
  return totals;
}

void expect_rejects(const workload::cooccurrence_result& totals,
                    parse_error_kind kind, const char* what) {
  try {
    (void)attack::sda_attack::from_counts(totals, 0, 5);
    ADD_FAILURE() << what << ": corrupt totals accepted";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.kind(), kind) << what << ": " << e.what();
    EXPECT_EQ(e.source(), "cooccurrence") << what;
  }
}

TEST(SdaFromCounts, AcceptsConsistentTotals) {
  const attack::sda_attack atk =
      attack::sda_attack::from_counts(valid_counts(), 0, 5);
  const std::vector<double> post = atk.posterior();
  double sum = 0.0;
  for (double p : post) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SdaFromCounts, RejectsCorruptTotalsWithTheParseTaxonomy) {
  // Regression: every corruption below used to flow straight into unsigned
  // subtraction (background = global - target wrapping to ~2^64) or a
  // division by zero target rounds; now each is classified and thrown.
  workload::cooccurrence_result t = valid_counts();
  t.global_receiver_counts[1].first = 7;  // id beyond the population
  expect_rejects(t, parse_error_kind::out_of_range, "global id out of range");

  t = valid_counts();
  t.per_pair[0].target_receiver_counts = {{2, 6}, {0, 6}};  // descending
  expect_rejects(t, parse_error_kind::malformed, "non-ascending target rows");

  t = valid_counts();
  t.global_receiver_counts = {{0, 10}, {0, 12}, {4, 8}};  // duplicate id
  expect_rejects(t, parse_error_kind::malformed, "duplicate global row");

  t = valid_counts();
  t.per_pair[0].target_rounds = t.rounds + 1;
  expect_rejects(t, parse_error_kind::mismatch, "target rounds > rounds");

  t = valid_counts();
  t.per_pair[0].target_messages = t.messages + 1;
  expect_rejects(t, parse_error_kind::mismatch, "target messages > messages");

  t = valid_counts();
  t.per_pair[0].target_rounds = 0;  // messages with no rounds: m-bar = x/0
  expect_rejects(t, parse_error_kind::mismatch, "messages with zero rounds");

  t = valid_counts();
  t.per_pair[0].target_receiver_counts[1].second = 13;  // 13 > global 12
  expect_rejects(t, parse_error_kind::mismatch, "target count > global");

  t = valid_counts();
  t.per_pair[0].target_receiver_counts = {{0, 6}, {3, 1}};  // 3 not global
  expect_rejects(t, parse_error_kind::mismatch, "target receiver not global");

  // The trusted-caller precondition stays a contract, not a parse error.
  EXPECT_THROW((void)attack::sda_attack::from_counts(valid_counts(), 1, 5),
               contract_violation);
}

TEST(SdaAttack, ConfidenceIsFiniteUnderDegenerateBackground) {
  // Background so concentrated that the Laplace-smoothed rate rounds to
  // exactly 1.0 in double precision: the null then has zero variance, and
  // the z-score used to divide by zero (NaN/inf). Degenerate evidence must
  // read as zero surprise, not as a non-finite confidence.
  workload::cooccurrence_result totals;
  const std::uint64_t big = 100000000000000000ull;  // 1e17 >> 2^53
  totals.rounds = 2;
  totals.messages = big + 5;
  totals.global_receiver_counts = {{0, big}, {1, 5}};
  totals.per_pair.resize(1);
  totals.per_pair[0].target_rounds = 1;
  totals.per_pair[0].target_messages = 5;
  totals.per_pair[0].target_receiver_counts = {{1, 5}};
  const attack::sda_attack atk = attack::sda_attack::from_counts(totals, 0, 2);
  const std::vector<double> z = atk.confidence();
  for (double v : z)
    EXPECT_TRUE(std::isfinite(v)) << "confidence must never be NaN/inf";
  EXPECT_EQ(z[0], 0.0) << "certain-null receiver carries no surprise";
  EXPECT_GT(z[1], 0.0) << "the actual target receiver stays positive";
}

// ---- the streaming identities at population scale --------------------------
// The small-instance tests above pin each identity on a few hundred
// receivers. These re-assert them at the sizes of the streaming smokes,
// where eight threads split the stream into shards and the count-min
// sketches collide.

struct scale_case {
  const char* name;
  std::uint32_t users;  ///< senders and receivers alike
  std::uint32_t rounds;
  std::uint32_t round_size;
};

void PrintTo(const scale_case& c, std::ostream* os) { *os << c.name; }

class StreamingScale : public ::testing::TestWithParam<scale_case> {};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST_P(StreamingScale, CrossChecksHold) {
  const scale_case& c = GetParam();
  workload::population_config cfg;
  cfg.seed = 42;
  cfg.user_count = c.users;
  cfg.receiver_count = c.users;
  cfg.round_count = c.rounds;
  cfg.round_size = c.round_size;
  const workload::population pop(cfg);
  const std::uint32_t n = cfg.receiver_count;
  workload::cooccurrence_config ccfg;
  ccfg.threads = 8;

  // 1. The sharded exact accumulation, rebuilt through from_counts, equals
  //    the online session bit for bit.
  attack::sda_attack exact(n);
  attack::sketch_sda_attack sketch(n);
  attack::disclosure_attack* const engines[] = {&exact, &sketch};
  (void)attack::run_workload_attack(pop, 0, engines, 0.99, c.rounds);
  const std::vector<double> exact_online = exact.posterior();
  const workload::streaming_accumulator exact_acc =
      workload::accumulate_streaming(pop, 0, c.rounds, {}, ccfg);
  const workload::cooccurrence_result totals = exact_acc.totals();
  EXPECT_EQ(totals.rounds, c.rounds);
  EXPECT_TRUE(same_bits(
      attack::sda_attack::from_counts(totals, 0, n).posterior(), exact_online))
      << "sharded exact accumulator diverged from the online session";

  // 2. The same for the sketch backend, through from_accumulator.
  const std::vector<double> sketch_online = sketch.posterior();
  workload::streaming_config scfg;
  scfg.backend = workload::stream_backend::sketch;
  EXPECT_TRUE(same_bits(
      attack::sketch_sda_attack::from_accumulator(
          workload::accumulate_streaming(pop, 0, c.rounds, scfg, ccfg), 0, n)
          .posterior(),
      sketch_online))
      << "sharded sketch accumulator diverged from the online session";

  // 3. Count-min never undercounts; 4. each key overcounts past the bound
  //    with probability at most 2^-depth, so across all keys allow twice
  //    the expected number of violations.
  std::uint64_t undercounts = 0, over_bound = 0;
  for (const auto& [receiver, count] : totals.global_receiver_counts) {
    const std::uint64_t est = sketch.estimate_global(receiver);
    if (est < count) ++undercounts;
    else if (est - count > sketch.error_bound()) ++over_bound;
  }
  const std::size_t keys = totals.global_receiver_counts.size();
  ASSERT_GT(keys, 0u);
  EXPECT_EQ(undercounts, 0u);
  const double allowance =
      2.0 * std::ldexp(static_cast<double>(keys),
                       -static_cast<int>(sketch.params().depth)) +
      1.0;
  EXPECT_LE(static_cast<double>(over_bound), allowance)
      << over_bound << "/" << keys << " keys over the per-key bound "
      << sketch.error_bound();

  // 5. The sketch engine is smaller than the exact accumulator.
  EXPECT_LT(sketch.memory_bytes(), exact_acc.memory_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    SmokeSizes, StreamingScale,
    ::testing::Values(scale_case{"users1e5_rounds1e4", 100000, 10000, 12},
                      scale_case{"users1e6_rounds3000", 1000000, 3000, 8}),
    [](const ::testing::TestParamInfo<scale_case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace anonpath
