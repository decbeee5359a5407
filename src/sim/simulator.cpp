#include "src/sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/multi_message.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/attack/noise.hpp"
#include "src/attack/online.hpp"
#include "src/crypto/onion.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/sim/network.hpp"
#include "src/sim/receiver.hpp"
#include "src/sim/relay.hpp"
#include "src/sim/workload.hpp"
#include "src/stats/contract.hpp"

namespace anonpath::sim {

namespace {

std::vector<std::byte> demo_payload(std::uint64_t msg_id) {
  const std::string text = "message-" + std::to_string(msg_id);
  std::vector<std::byte> out;
  out.reserve(text.size());
  for (char c : text) out.push_back(static_cast<std::byte>(c));
  return out;
}

/// Decorator that appends every adversary-visible event to a log, in
/// arrival order, while forwarding to the wrapped model — the tap
/// sim::trace captures through. Replaying the log into a fresh model of
/// the same kind reproduces the wrapped model's post-run state exactly.
class recording_model final : public adversary_model {
 public:
  recording_model(std::unique_ptr<adversary_model> inner,
                  std::vector<adversary_event>& log)
      : adversary_model(inner->compromised()),
        inner_(std::move(inner)),
        log_(log) {}

  void note_origin(std::uint64_t msg, node_id sender) override {
    log_.push_back(adversary_event{adversary_event::kind::origin, msg, 0.0,
                                   sender, 0, 0});
    inner_->note_origin(msg, sender);
  }
  void note_relay(std::uint64_t msg, sim_time at, node_id reporter,
                  node_id predecessor, node_id successor) override {
    log_.push_back(adversary_event{adversary_event::kind::relay, msg, at,
                                   reporter, predecessor, successor});
    inner_->note_relay(msg, at, reporter, predecessor, successor);
  }
  void note_receipt(std::uint64_t msg, sim_time at,
                    node_id predecessor) override {
    log_.push_back(adversary_event{adversary_event::kind::receipt, msg, at, 0,
                                   predecessor, 0});
    inner_->note_receipt(msg, at, predecessor);
  }
  [[nodiscard]] bool complete(std::uint64_t msg) const override {
    return inner_->complete(msg);
  }
  [[nodiscard]] observation assemble(std::uint64_t msg) const override {
    return inner_->assemble(msg);
  }
  [[nodiscard]] std::vector<std::uint64_t> observed_messages() const override {
    return inner_->observed_messages();
  }
  [[nodiscard]] adversary_kind kind() const noexcept override {
    return inner_->kind();
  }

 private:
  std::unique_ptr<adversary_model> inner_;
  std::vector<adversary_event>& log_;
};

/// The workload half of run_core's event loop. Serves `arrival` events off
/// the sorted Poisson schedule — each inserted when its predecessor fires,
/// under the sequence numbers reserved for the whole schedule up front, so
/// the heap holds only in-flight events yet ties break exactly as if every
/// arrival had been queued at the start — and `retry_timer` events, one
/// outstanding per original message, whose state is indexed by the
/// original's id.
class traffic_source final : public event_handler {
 public:
  /// Splits the traffic, routing and retry-routing streams off `master`
  /// (in that order) and draws the arrival schedule.
  traffic_source(const sim_config& config, network& net,
                 const crypto::key_registry& keys, adversary_model& monitor,
                 const std::vector<bool>& compromised,
                 const net::topology* graph, net::route_planner* planner,
                 stats::rng& master)
      : config_(config),
        net_(net),
        keys_(keys),
        monitor_(monitor),
        compromised_(compromised),
        graph_(graph),
        planner_(planner),
        traffic_(master.split()),
        routing_(master.split()),
        // Retransmissions sample their fresh routes from a dedicated stream
        // split off *after* every historical stream, so enabling retries
        // never perturbs the routes originals take (the frontier sweep
        // compares like with like) and a disabled policy leaves every
        // historical stream byte-identical.
        retry_routing_(master.split()),
        // Planned-route draws (exit choice + k-path pick) come from
        // order-free streams keyed off the seed rather than further
        // master.split() calls, so walk-mode runs never see these streams
        // exist and stay byte-identical; retransmissions again get their own
        // stream so enabling retries leaves original planned routes
        // untouched.
        plan_rng_(stats::rng::stream(config.seed, kpaths_stream_tag)),
        retry_plan_rng_(stats::rng::stream(config.seed, kpaths_stream_tag + 1)),
        arrivals_(poisson_workload(config.sys.node_count, config.arrival_rate,
                                   config.message_count, traffic_)),
        simple_routes_(config.sys.node_count),
        next_attempt_id_(std::uint64_t{config.message_count} + 1) {
    if (config.retry.enabled()) retries_.resize(arrivals_.size() + 1);
  }

  /// Binds the workload's event kinds and queues the first arrival. Must
  /// run before any other event is scheduled: the arrivals take sequence
  /// numbers 0..M-1.
  void start() {
    event_queue& q = net_.queue();
    q.bind(event_kind::arrival, *this);
    q.bind(event_kind::retry_timer, *this);
    first_seq_ = q.reserve(arrivals_.size());
    q.schedule_reserved(arrivals_.front().at, first_seq_, event_kind::arrival,
                        0);
  }

  void on_event(event_kind kind, std::uint32_t slot) override {
    if (kind == event_kind::arrival) on_arrival(slot);
    else on_retry_timer(slot);
  }

  /// Entry k: the original message of retransmission message_count + 1 + k.
  [[nodiscard]] const std::vector<std::uint64_t>& attempt_parents() const {
    return attempt_parent_;
  }

 private:
  static constexpr std::uint64_t kpaths_stream_tag = 0x6b706174u;  // "kpat"

  /// Sender-side recovery state of one original: the pending timer's
  /// delay, the retransmissions spent, and every id that hit the wire for
  /// it (the original itself first).
  struct retry_state {
    node_id sender = 0;
    std::uint32_t retries_done = 0;
    double timeout = 0.0;
    std::vector<std::uint64_t> attempts;
  };

  void on_arrival(std::uint32_t index) {
    const arrival& a = arrivals_[index];
    if (index + 1 < arrivals_.size())
      net_.queue().schedule_reserved(arrivals_[index + 1].at,
                                     first_seq_ + index + 1,
                                     event_kind::arrival, index + 1);
    net_.originate(a.sender, a.at, a.msg_id);
    if (compromised_[a.sender]) monitor_.note_origin(a.msg_id, a.sender);
    launch(a.sender, a.msg_id, routing_, plan_rng_);
    if (config_.retry.enabled()) {
      retry_state& st = retries_[a.msg_id];
      st.sender = a.sender;
      st.timeout = config_.retry.timeout;
      st.attempts.push_back(a.msg_id);
      net_.queue().schedule_in(st.timeout, event_kind::retry_timer,
                               static_cast<std::uint32_t>(a.msg_id));
    }
  }

  /// Timeout timer for one original: when it fires and no attempt has been
  /// delivered, inject a retransmission over a fresh route and re-arm with
  /// the backed-off timeout. The retransmission is a full first-class
  /// message on the wire — the adversary observes it like any other, which
  /// is exactly the anonymity cost this layer exists to measure.
  void on_retry_timer(std::uint32_t original) {
    retry_state& st = retries_[original];
    for (const std::uint64_t id : st.attempts)
      if (net_.traces()[id].delivered) return;  // recovered — stand down
    if (st.retries_done >= config_.retry.max_retries) return;  // budget spent
    const std::uint64_t id = next_attempt_id_++;
    attempt_parent_.push_back(original);
    st.attempts.push_back(id);
    net_.originate(st.sender, net_.queue().now(), id);
    if (compromised_[st.sender]) monitor_.note_origin(id, st.sender);
    launch(st.sender, id, retry_routing_, retry_plan_rng_);
    ++st.retries_done;
    st.timeout = std::min(st.timeout * config_.retry.backoff,
                          config_.retry.max_timeout);
    net_.queue().schedule_in(st.timeout, event_kind::retry_timer, original);
  }

  /// One transmission attempt: sample a route for `id` and put it on the
  /// wire. Shared by originals (drawing from the historical routing stream)
  /// and retransmissions (drawing from retry_routing).
  void launch(node_id sender, std::uint64_t id, stats::rng& gen,
              stats::rng& plan_gen) {
    const std::uint32_t n = config_.sys.node_count;
    wire_message msg;
    msg.id = id;
    if (config_.mode == routing_mode::source_routed) {
      if (planner_ != nullptr) {
        route_ = planner_->sample_route(sender, plan_gen);
      } else {
        const path_length l = config_.lengths.sample(gen);
        if (graph_ != nullptr)
          sample_topology_route_into(*graph_, sender, l, gen, route_);
        else
          simple_routes_.sample(sender, l, gen, route_);
      }
      msg.kind = transport_kind::onion;
      msg.envelope = crypto::wrap_onion(route_, demo_payload(id), keys_, id);
      const node_id first =
          route_.hops.empty() ? receiver_node : route_.hops.front();
      net_.send(sender, first, std::move(msg));
    } else {
      msg.kind = transport_kind::crowds;
      msg.payload = demo_payload(id);
      msg.forward_prob = config_.forward_prob;
      if (graph_ != nullptr) {
        // Hop-by-hop on a graph: first jondo is a weighted neighbor.
        net_.send(sender, graph_->sample_neighbor(sender, gen), std::move(msg));
      } else {
        // Hop-by-hop: always at least one jondo, chosen uniformly.
        auto draw = static_cast<node_id>(gen.next_below(n - 1));
        if (draw >= sender) ++draw;
        net_.send(sender, draw, std::move(msg));
      }
    }
  }

  const sim_config& config_;
  network& net_;
  const crypto::key_registry& keys_;
  adversary_model& monitor_;
  const std::vector<bool>& compromised_;
  const net::topology* graph_;
  net::route_planner* planner_;
  stats::rng traffic_;
  stats::rng routing_;
  stats::rng retry_routing_;
  stats::rng plan_rng_;
  stats::rng retry_plan_rng_;
  std::vector<arrival> arrivals_;
  std::uint64_t first_seq_ = 0;
  simple_route_sampler simple_routes_;
  route route_;  ///< reused route buffer
  /// Indexed by original id (1..message_count); empty without retries.
  std::vector<retry_state> retries_;
  /// Attempt ids continue past message_count, so original ids stay dense.
  std::vector<std::uint64_t> attempt_parent_;
  std::uint64_t next_attempt_id_;
};

}  // namespace

const char* config_problem(const sim_config& config) noexcept {
  const std::uint32_t n = config.sys.node_count;
  if (n < 2) return "N >= 2 nodes";
  if (config.sys.compromised_count >= n)
    return "C < N (an honest sender must exist)";
  if (config.compromised.size() != config.sys.compromised_count)
    return "the compromised list names C nodes";
  if (config.message_count == 0) return "at least one message";
  if (config.lengths.max_length() > n - 1)
    return "path lengths <= N-1 (a simple path has at most N-1 "
           "intermediates)";
  if (!config.adversary.valid()) return "adversary coverage in [0, 1]";
  if (!config.faults.valid_for(n))
    return "a valid fault plan (drop in [0, 1), outage nodes < N)";
  if (!config.retry.valid()) return "retry policy in range";
  if (!(config.arrival_rate > 0.0)) return "arrival rate > 0";
  if (!config.session.valid_for(n, config.message_count))
    return "a coherent session (population >= 2 with rounds in "
           "[1, messages], or both 0; an attack needs rounds; sketch needs "
           "sda)";
  // Session destinations are metadata on source-routed traffic; hop-by-hop
  // runs have no per-message inference to fuse with.
  if (config.session.enabled() && config.mode != routing_mode::source_routed)
    return "sessions need source (onion) routing";
  // Planned (kpaths) routing picks whole source-routed paths up front; it
  // has no hop-by-hop analogue, and its observations have no gapped
  // (timing-correlator) likelihood.
  if (!config.routing.valid()) return "kpaths k in [1, 64]";
  if (config.routing.planned()) {
    if (config.mode != routing_mode::source_routed)
      return "kpaths routing needs source (onion) routing";
    if (config.adversary.kind == adversary_kind::timing_correlator)
      return "kpaths routing excludes the timing adversary";
  }
  if (!config.topology.valid_for(n)) return "topology parameters fit N";
  // Gapped (timing-correlator) observations have no restricted-path
  // likelihood.
  if (config.topology.kind != net::topology_kind::complete &&
      config.adversary.kind == adversary_kind::timing_correlator)
    return "a restricted topology excludes the timing adversary";
  return nullptr;
}

namespace detail {

core_result run_core(const sim_config& config,
                     std::vector<adversary_event>* event_log) {
  if (const char* problem = config_problem(config))
    ::anonpath::detail::contract_fail("precondition", problem, __FILE__,
                                      __LINE__);
  const auto n = config.sys.node_count;
  // A restricted topology switches routing to the walk model; `complete`
  // must stay byte-for-byte the historical clique path, so it never even
  // builds a graph object — unless routing is planned, in which case the
  // planner needs a materialized graph even for the clique (the fabric then
  // also asserts every planned hop follows an edge).
  const bool restricted = config.topology.kind != net::topology_kind::complete;
  const bool planned = config.routing.planned();
  std::optional<net::topology> topo;
  if (restricted || planned) topo.emplace(net::topology::make(n, config.topology));
  const net::topology* graph = topo ? &*topo : nullptr;
  std::optional<net::route_planner> planner;
  if (planned) planner.emplace(*graph, config.routing);

  const std::vector<bool> compromised = effective_compromised(
      config.adversary, n, config.compromised, config.seed);

  std::unique_ptr<adversary_model> model =
      make_adversary_model(config.adversary, compromised, config.latency);
  if (event_log != nullptr)
    model = std::make_unique<recording_model>(std::move(model), *event_log);
  adversary_model& monitor = *model;

  stats::rng master(config.seed);
  // Auto-horizon for seeded mix-failure episodes: the run's expected
  // traffic span, so incidents land where traffic actually flows.
  const double fault_horizon =
      static_cast<double>(config.message_count) / config.arrival_rate;
  network net(n, config.latency, master.next_u64(), config.faults, graph,
              fault_horizon);
  const crypto::key_registry keys(master.next_u64(), n);

  // Build the relay fleet.
  std::vector<std::unique_ptr<message_sink>> relays;
  relays.reserve(n);
  for (node_id i = 0; i < n; ++i) {
    if (config.mode == routing_mode::source_routed) {
      relays.push_back(std::make_unique<onion_relay>(
          i, net, keys, config.latency.processing, compromised[i], &monitor));
    } else {
      relays.push_back(std::make_unique<crowds_relay>(
          i, net, config.latency.processing, compromised[i], &monitor,
          master.split(), graph));
    }
    net.register_node(i, *relays.back());
  }
  receiver_endpoint receiver(net, keys, &monitor);
  net.register_receiver(receiver);

  // The workload streams split off `master` after the relays' own.
  traffic_source traffic(config, net, keys, monitor, compromised, graph,
                         planner ? &*planner : nullptr, master);
  traffic.start();

  const bool drained = net.queue().run_until_empty();
  ANONPATH_ENSURES(drained);

  core_result result;
  result.events_executed = net.queue().executed();
  result.wire_dropped = net.dropped_count();
  result.wire_stranded = net.stranded_count();
  result.wire_crashed = net.crashed_count();
  result.model = std::move(model);
  // Safe to move out from under `net`'s pointer: the queue has drained, so
  // the fabric sends nothing further.
  result.topology = std::move(topo);
  // Fold attempts into per-original outcomes: delivered if any attempt was,
  // timed from the original submission to the *earliest* delivering attempt
  // (end-to-end latency includes the waits the retry policy imposed), hops
  // from that attempt. Traces are indexed by id — originals 1..M first,
  // then the retransmissions — so the fold always finds its base outcome.
  const std::vector<message_trace>& traces = net.traces();
  const std::vector<std::uint64_t>& parents = traffic.attempt_parents();
  const std::uint64_t originals = config.message_count;
  for (std::uint64_t id = 1; id < traces.size(); ++id) {
    const message_trace& trace = traces[id];
    if (id <= originals) {
      result.outcomes.emplace_hint(
          result.outcomes.end(), id,
          message_outcome{trace.origin, trace.sent_at, trace.delivered_at,
                          trace.delivered, trace.hops});
    } else if (trace.delivered) {
      message_outcome& out = result.outcomes.at(parents[id - originals - 1]);
      if (!out.delivered || trace.delivered_at < out.delivered_at) {
        out.delivered = true;
        out.delivered_at = trace.delivered_at;
        out.hops = trace.hops;
      }
    }
  }
  for (std::size_t k = 0; k < parents.size(); ++k)
    result.attempt_parent.emplace_hint(result.attempt_parent.end(),
                                       originals + 1 + k, parents[k]);
  return result;
}

sim_report score_run(const sim_config& config, const adversary_model& model,
                     const std::map<std::uint64_t, message_outcome>& outcomes,
                     const posterior_fn* engine, const net::topology* graph,
                     const std::map<std::uint64_t, std::uint64_t>* attempt_parent) {
  obs::span score_span(config.tracer, "sim.score");
  sim_report report;
  report.submitted = config.message_count;
  const bool fused = attempt_parent != nullptr && !attempt_parent->empty();
  report.retransmissions = fused ? attempt_parent->size() : 0;
  // Per-message Pr(sender == target) for the sequential-Bayes fusion: the
  // rerouting layer's evidence about who originated each delivery, fed to
  // the longitudinal attack as soft round membership. Indexed by id - 1
  // (ids are dense 1..message_count); 0 = unscored, which downstream reads
  // as "the adversary saw nothing about this delivery".
  const bool want_target_mass =
      config.session.enabled() &&
      config.session.attack == attack::attack_kind::sequential_bayes;
  std::vector<double> target_mass(want_target_mass ? config.message_count : 0,
                                  0.0);
  for (const auto& [id, outcome] : outcomes) {
    if (!outcome.delivered) continue;
    ++report.delivered;
    report.end_to_end_latency.add(outcome.delivered_at - outcome.sent_at);
    report.realized_hops.add(static_cast<double>(outcome.hops));
    if (outcome.hops >= report.hop_histogram.size())
      report.hop_histogram.resize(outcome.hops + 1, 0);
    ++report.hop_histogram[outcome.hops];
  }

  if (config.mode == routing_mode::source_routed) {
    // The exact engine for the run's *effective* compromised set: the
    // configured list for the full coalition (and the timing correlator,
    // which taps the same nodes), the drawn set for partial coverage.
    const std::vector<node_id> effective_ids =
        config.adversary.kind == adversary_kind::partial_coverage
            ? model.compromised_ids()
            : config.compromised;
    const system_params effective_sys{
        config.sys.node_count,
        static_cast<std::uint32_t>(effective_ids.size())};
    // Restricted graphs and planned (kpaths) runs are scored with the
    // walk-model engine; the clique keeps the historical simple-path engine
    // bit for bit. Planned routes are loopless graph paths, scored under a
    // diffuse uniform(1, N-1) length prior, the support of every realizable
    // planned route.
    const bool planned = config.routing.planned();
    std::optional<posterior_engine> exact;
    std::optional<net::topology_posterior_engine> walk;
    if (planned || config.topology.kind != net::topology_kind::complete) {
      // Only built when it will actually score (a caller-supplied engine
      // supersedes it, and rebuilding the graph is not free on the replay
      // path). These observations are never gapped (the timing correlator
      // is refused up front), so no screening engine is needed either.
      if (engine == nullptr)
        walk.emplace(
            effective_sys, effective_ids,
            planned ? path_length_distribution::uniform(
                          1, config.sys.node_count - 1)
                    : config.lengths,
            graph != nullptr ? *graph
                             : net::topology::make(config.sys.node_count,
                                                   config.topology));
    } else {
      // Needed even under a caller-supplied engine: gapped observations
      // are screened for explainability before any scoring.
      exact.emplace(effective_sys, effective_ids, config.lengths);
    }

    stats::running_summary entropy_acc;
    std::uint64_t identified = 0;
    std::uint64_t top1_hits = 0;
    std::uint64_t scored = 0;
    std::vector<double> walk_post;
    // One observation's sender posterior, with the explainability screen: a
    // mis-linked timing chain can describe no path at all; it carries no
    // usable evidence and is skipped rather than scored as zero. walk_post
    // is consumed by reference — no per-message copy of the N-double
    // posterior in the scoring loop.
    const auto obs_posterior = [&](std::uint64_t id,
                                   std::vector<double>& out) -> bool {
      const auto obs = model.assemble(id);
      if (exact && obs.gapped && !exact->explainable(obs)) return false;
      if (walk && !walk->try_sender_posterior(obs, out)) return false;
      if (engine != nullptr) out = (*engine)(obs);
      else if (exact) out = exact->sender_posterior(obs);
      return true;
    };
    const auto score_post = [&](std::uint64_t original,
                                const std::vector<double>& post) {
      entropy_acc.add(entropy_bits(post));
      if (want_target_mass && original >= 1 &&
          original <= config.message_count)
        target_mass[original - 1] = post[config.session.target_sender];
      if (config.collect_posteriors) report.posteriors.push_back(post);
      const auto top =
          std::max_element(post.begin(), post.end()) - post.begin();
      if (post[static_cast<std::size_t>(top)] > config.identified_threshold)
        ++identified;
      const auto oit = outcomes.find(original);
      if (oit != outcomes.end() &&
          static_cast<node_id>(top) == oit->second.origin)
        ++top1_hits;
      ++scored;
    };

    if (!fused) {
      for (const std::uint64_t id : model.observed_messages())
        if (obs_posterior(id, walk_post)) score_post(id, walk_post);
    } else {
      // Retransmissions in play: group observed attempts by their original
      // and score each original once, on the normalized product of its
      // per-attempt posteriors. More attempts observed => sharper product —
      // the measured anonymity cost of the retry policy.
      std::map<std::uint64_t, std::vector<std::vector<double>>> groups;
      for (const std::uint64_t id : model.observed_messages()) {
        if (!obs_posterior(id, walk_post)) continue;
        const auto pit = attempt_parent->find(id);
        groups[pit == attempt_parent->end() ? id : pit->second].push_back(
            walk_post);
      }
      for (const auto& [original, factors] : groups)
        score_post(original, factors.size() == 1
                                 ? factors.front()
                                 : combine_posteriors(factors));
    }
    if (scored == 0) {
      // Nothing observed => reporting 0.0 here would read as "all senders
      // identified" and poison campaign aggregates, so the inference
      // metrics are absent, not zero.
      report.empirical_entropy_bits = std::numeric_limits<double>::quiet_NaN();
      report.empirical_entropy_stderr =
          std::numeric_limits<double>::quiet_NaN();
      report.identified_fraction = std::numeric_limits<double>::quiet_NaN();
      report.top1_accuracy = std::numeric_limits<double>::quiet_NaN();
    } else {
      report.empirical_entropy_bits = entropy_acc.mean();
      report.empirical_entropy_stderr = entropy_acc.std_error();
      report.identified_fraction =
          static_cast<double>(identified) / static_cast<double>(scored);
      report.top1_accuracy =
          static_cast<double>(top1_hits) / static_cast<double>(scored);
    }
    if (exact) {
      report.memo_hits = exact->memo_hits();
      report.memo_misses = exact->memo_misses();
    }
  } else {
    report.empirical_entropy_bits = std::numeric_limits<double>::quiet_NaN();
    report.empirical_entropy_stderr = std::numeric_limits<double>::quiet_NaN();
  }

  if (config.session.enabled() &&
      config.session.attack != attack::attack_kind::none) {
    // Reconstruct the destination plan (a pure function of config, seed and
    // origins — identical on the inline and replay paths) and batch the
    // delivered destinations into per-round observations.
    ANONPATH_EXPECTS(outcomes.size() == config.message_count);
    std::vector<node_id> origins(config.message_count);
    for (const auto& [id, outcome] : outcomes) {
      ANONPATH_EXPECTS(id >= 1 && id <= config.message_count);
      origins[id - 1] = outcome.origin;
    }
    const std::vector<session_assignment> plan =
        assign_session_destinations(config.session, config.seed, origins);

    struct round_data {
      bool target_present = false;
      std::vector<node_id> receivers;
      std::vector<double> weights;
    };
    std::vector<round_data> rounds(config.session.rounds);
    std::uint64_t target_messages = 0;
    for (std::uint64_t id = 1; id <= config.message_count; ++id) {
      const session_assignment& a = plan[id - 1];
      round_data& rd = rounds[a.round];
      // Submission membership is public in a batching mix, delivered or not.
      if (origins[id - 1] == config.session.target_sender) {
        rd.target_present = true;
        ++target_messages;
      }
      if (!outcomes.at(id).delivered) continue;
      rd.receivers.push_back(a.destination);
      // Deliveries the adversary never observed (or could not explain)
      // carry weight 0: the residual mass in the Bayes update covers them.
      if (want_target_mass) rd.weights.push_back(target_mass[id - 1]);
    }

    // Two ways a target-present round can lack partner evidence: the
    // target's messages were lost before delivery (every retry attempt
    // dropped), or they were delivered but the collector missed/mislinked
    // them — possible exactly when the adversary is not the full coalition
    // (partial coverage loses reports, the timing correlator mislinks).
    // Either way the Bayes engine needs a noise floor so one such round
    // cannot irreversibly annihilate the true partner — see
    // attack::membership_noise_floor for the loss model.
    const bool lossy_observation =
        config.adversary.kind != adversary_kind::full_coalition;
    attack::online_config ocfg;
    ocfg.kind = config.session.attack;
    ocfg.backend = config.session.stream;
    ocfg.bayes.membership_noise = attack::membership_noise_floor(
        config.faults.drop_probability, config.retry.max_retries,
        lossy_observation);
    ocfg.identified_threshold = config.identified_threshold;
    // The session score is the online session run to the end of the round
    // stream (stride 1) — the same implementation the offline runners use,
    // so inline scoring, replay, and any-round snapshots cannot drift.
    attack::online_attack online(config.session.receiver_count, ocfg);
    session_report sr;
    sr.rounds = config.session.rounds;
    sr.target_messages = target_messages;
    {
      obs::span ingest_span(config.tracer, "attack.ingest");
      attack::round_observation obs;
      for (std::uint32_t r = 0; r < rounds.size(); ++r) {
        obs.target_present = rounds[r].target_present;
        obs.receivers = std::move(rounds[r].receivers);
        obs.target_weight = std::move(rounds[r].weights);
        online.ingest(obs);
      }
    }
    sr.trajectory = online.trajectory();
    sr.identified_round = online.identified_round().value_or(0);
    const attack::trajectory_point& last = sr.trajectory.back();
    sr.entropy_bits = last.entropy_bits;
    sr.top_mass = last.top_mass;
    sr.top_receiver = last.top_receiver;
    sr.identified = last.identified;
    sr.correct = last.top_receiver == config.session.partner;
    report.session = std::move(sr);
  }
  return report;
}

}  // namespace detail

sim_report run_simulation(const sim_config& config) {
  obs::span run_span(config.tracer, "sim.run");
  const detail::core_result core = [&] {
    obs::span core_span(config.tracer, "sim.run_core");
    return detail::run_core(config, nullptr);
  }();
  sim_report report =
      detail::score_run(config, *core.model, core.outcomes, nullptr,
                        core.topology ? &*core.topology : nullptr,
                        &core.attempt_parent);
  report.events_executed = core.events_executed;
  report.wire_dropped = core.wire_dropped;
  report.wire_stranded = core.wire_stranded;
  report.wire_crashed = core.wire_crashed;
  return report;
}

void record_report(obs::metrics_registry& registry, unsigned worker,
                   const sim_report& report) {
  registry.add_counter(worker, "sim.events_executed", report.events_executed);
  registry.add_counter(worker, "sim.messages_submitted", report.submitted);
  registry.add_counter(worker, "sim.messages_delivered", report.delivered);
  registry.add_counter(worker, "sim.messages_dropped", report.wire_dropped);
  registry.add_counter(worker, "sim.messages_stranded",
                       report.wire_stranded + report.wire_crashed);
  registry.add_counter(worker, "sim.retransmissions", report.retransmissions);
  registry.add_counter(worker, "attack.memo_hits", report.memo_hits);
  registry.add_counter(worker, "attack.memo_misses", report.memo_misses);
}

}  // namespace anonpath::sim
