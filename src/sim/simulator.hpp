#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/strategy.hpp"
#include "src/anonymity/types.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/fault_plan.hpp"
#include "src/sim/latency.hpp"
#include "src/sim/session.hpp"
#include "src/stats/summary.hpp"

namespace anonpath::sim {

/// Everything needed to run one end-to-end experiment on the simulated
/// rerouting network.
struct sim_config {
  system_params sys{100, 1};
  std::vector<node_id> compromised{0};
  path_length_distribution lengths = path_length_distribution::fixed(3);
  routing_mode mode = routing_mode::source_routed;
  double forward_prob = 0.75;     ///< hop-by-hop coin (crowds mode only)
  std::uint32_t message_count = 1000;
  double arrival_rate = 50.0;     ///< messages per second (Poisson)
  latency_params latency{};
  std::uint64_t seed = 1;
  /// The threat model this run faces. The default (full coalition over the
  /// `compromised` list, receiver compromised) is the paper's Sec. 4
  /// adversary and reproduces pre-refactor behavior bit for bit. For
  /// partial_coverage the `compromised` list is superseded by a seeded
  /// Bernoulli(coverage_fraction) draw — see effective_compromised().
  adversary_config adversary{};
  /// A message counts as "identified" when its posterior puts strictly more
  /// than this mass on one node (paper-style 0.99 by default).
  double identified_threshold = 0.99;
  /// Keep every delivered message's exact sender posterior in the report
  /// (source-routed runs only). Off by default — the vectors are N doubles
  /// per message; the property tests and post-hoc analyses turn it on.
  bool collect_posteriors = false;
  /// The rerouting graph the run lives on. The default (`complete`) is the
  /// paper's clique and reproduces pre-topology behavior bit for bit: the
  /// historical simple-path sampler, engines, and rng draw sequences are
  /// used unchanged. Any other kind routes messages as weighted walks on
  /// the graph and scores observations with the restricted-path
  /// topology_posterior_engine. Restricted graphs do not support the
  /// timing_correlator adversary (its gapped observations have no exact
  /// graph likelihood yet); config_problem refuses that combination.
  net::topology_config topology{};
  /// The run's unified fault model (sim::fault_plan): per-link loss,
  /// stochastic churn, explicit crash/repair intervals, and seeded
  /// mix-failure episodes. The inert default draws from no generator and
  /// reproduces the fault-free network bit for bit; enabled, transmissions
  /// are dropped on the wire or strand at dead hops (undelivered).
  fault_plan faults{};
  /// Sender-side recovery (sim::retry_policy): timed-out messages are
  /// re-injected over fresh routes with capped exponential backoff. Every
  /// retransmission is a *new* adversary observation of the same sender;
  /// scoring fuses the per-attempt posteriors, so enabling retries trades
  /// anonymity for delivery. Disabled by default (no timers, no extra
  /// draws): retry-free runs stay byte-identical.
  retry_policy retry{};
  /// Round-batched session mode (src/sim/session.hpp): pseudonymous
  /// destinations over mix rounds plus an optional longitudinal disclosure
  /// attack scored per round. Disabled (the default) is byte-identical to
  /// pre-session behavior; enabled needs source_routed mode
  /// (config_problem).
  session_config session{};
  /// Route selection model (net::routing_config). The default (`walk`) is
  /// byte-identical to pre-routing behavior: source-routed messages sample
  /// simple paths (clique) or weighted walks (restricted graphs) exactly as
  /// before, drawing from the historical rng streams. `kpaths` switches to
  /// planned routing — each message picks a uniform exit and one of its k
  /// best Dijkstra/Yen paths (cost-weighted), drawn from dedicated
  /// order-free rng streams so walk-mode draw sequences are untouched.
  /// Planned runs are scored with the walk-model engine
  /// (net::topology_posterior_engine) under a diffuse uniform(1, N-1)
  /// length prior. Needs source_routed mode and a non-timing adversary
  /// (config_problem).
  net::routing_config routing{};
  /// Optional span collector (non-owning; default off). When set,
  /// run_simulation records a "sim.run" span with "sim.run_core" /
  /// "sim.score" / "attack.ingest" children on the calling thread. Never
  /// touches results, rng streams, or outputs — a null tracer is
  /// byte-identical to pre-obs behavior — and single-threaded like the
  /// tracer itself, so campaign workers leave it null.
  obs::tracer* tracer = nullptr;
};

/// The one rule for which configs can run: nullptr when run_simulation
/// (and capture_trace) accept `config`, otherwise a short statement of the
/// first requirement it breaks, e.g. "C < N (an honest sender must exist)".
/// run_core enforces it; the campaign expander, the CLI and the trace
/// reader ask it instead of restating the rules.
[[nodiscard]] const char* config_problem(const sim_config& config) noexcept;

/// Results of a simulation run.
struct sim_report {
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  /// Extra attempts injected by the retry policy (0 when disabled).
  std::uint64_t retransmissions = 0;
  stats::running_summary end_to_end_latency;  ///< seconds
  stats::running_summary realized_hops;       ///< intermediate nodes traversed
  /// Delivered-message count per realized hop count (index = hops); sized
  /// to the largest observed value. The goodness-of-fit test layer checks
  /// this histogram against the configured path_length_distribution.
  std::vector<std::uint64_t> hop_histogram;

  /// Mean posterior entropy of the adversary across scored messages — the
  /// empirical counterpart of H*(S). Only computed for source-routed
  /// (simple-path) runs, where the exact inference engine applies; NaN for
  /// hop-by-hop runs and for runs where the adversary observed nothing
  /// (the metric is absent, not zero — likewise the identified/top1
  /// fractions below).
  double empirical_entropy_bits = 0.0;
  /// Standard error of that mean.
  double empirical_entropy_stderr = 0.0;
  /// Fraction of messages whose posterior puts > identified_threshold mass
  /// on one node.
  double identified_fraction = 0.0;
  /// Fraction where the top-posterior node is the true sender (among
  /// identified messages this should be ~1; overall it measures leakage).
  double top1_accuracy = 0.0;
  /// One exact posterior (size N) per scored message, in scoring order.
  /// Only filled when sim_config::collect_posteriors is set on a
  /// source-routed run; empty otherwise.
  std::vector<std::vector<double>> posteriors;
  /// Longitudinal attack results; engaged only when the config enables a
  /// session with an attack kind other than none.
  std::optional<session_report> session;

  /// Always-on run telemetry for the obs metrics layer (src/obs): plain
  /// counters the run maintains anyway, deterministic under the seed.
  /// events_executed counts every discrete event the run's queue fired;
  /// the wire_* fields split undelivered transmissions by cause (failure
  /// injection, churned-down destination, crash-scheduled destination);
  /// memo_hits/memo_misses mirror the exact posterior engine's layout
  /// memo when this run was scored by it (0 under the topology engine,
  /// which has no layout memo).
  std::uint64_t events_executed = 0;
  std::uint64_t wire_dropped = 0;
  std::uint64_t wire_stranded = 0;
  std::uint64_t wire_crashed = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
};

/// Builds the network, relays, receiver, adversary and workload from the
/// config, runs to completion, and post-processes the adversary's log with
/// the exact posterior engine. Deterministic under the seed.
[[nodiscard]] sim_report run_simulation(const sim_config& config);

/// Adds one run's deterministic report telemetry to `worker`'s slab of
/// `registry` under the catalogued metric names (README "Observability"),
/// sim.events_executed … attack.memo_misses. `simulate` and every
/// campaign replica record through it, so a one-cell campaign and a
/// simulate of that cell agree. Precondition: worker <
/// registry.shard_count().
void record_report(obs::metrics_registry& registry, unsigned worker,
                   const sim_report& report);

/// An offline inference engine for replay scoring: maps an assembled
/// observation to a sender posterior over all N nodes. The default used by
/// run_simulation and replay_trace is posterior_engine::sender_posterior.
using posterior_fn = std::function<std::vector<double>(const observation&)>;

/// Ground-truth summary of one message's journey, as scoring consumes it
/// (and as sim::trace persists it — identity of intermediate hops is
/// deliberately absent; it is neither scored nor adversary-visible).
struct message_outcome {
  node_id origin = 0;
  sim_time sent_at = 0.0;
  sim_time delivered_at = 0.0;
  bool delivered = false;
  std::uint32_t hops = 0;  ///< intermediate nodes traversed

  friend bool operator==(const message_outcome&,
                         const message_outcome&) = default;
};

namespace detail {

/// The event-driven half of run_simulation: builds the network, runs the
/// workload to completion, and returns the adversary model (post-run state)
/// plus per-message ground truth. When `event_log` is non-null every
/// adversary-visible event is also appended to it in arrival order — the
/// tap sim::trace captures through. Shared plumbing for run_simulation and
/// capture_trace; not a stable public surface.
struct core_result {
  std::unique_ptr<adversary_model> model;
  std::map<std::uint64_t, message_outcome> outcomes;
  /// The graph the run routed on; engaged for restricted topologies and
  /// for planned (kpaths) runs — which materialize even the clique — so
  /// scoring can reuse it instead of rebuilding (random_regular
  /// construction runs a whole swap-chain randomization).
  std::optional<net::topology> topology;
  /// Retry attempt id -> original message id, one entry per retransmission
  /// (empty when the retry policy is disabled). Attempt ids continue past
  /// message_count, so original ids keep their dense 1..message_count range
  /// and every pre-retry consumer is unaffected.
  std::map<std::uint64_t, std::uint64_t> attempt_parent;
  /// Event/fabric telemetry harvested from the run (see sim_report);
  /// run_simulation copies these onto the report it returns.
  std::uint64_t events_executed = 0;
  std::uint64_t wire_dropped = 0;
  std::uint64_t wire_stranded = 0;
  std::uint64_t wire_crashed = 0;
};
[[nodiscard]] core_result run_core(const sim_config& config,
                                   std::vector<adversary_event>* event_log);

/// The inference half: walks the model's observed messages, scores each
/// with `engine` (the exact posterior engine for the run's effective
/// compromised set when null; the restricted-path engine for restricted
/// topologies), and aggregates the sim_report. `graph`, when non-null,
/// supplies the already-built topology of a restricted run (it is copied,
/// not retained); when null a restricted config rebuilds it from scratch
/// (the trace-replay path). Unexplainable observations (possible only
/// under the timing correlator or fuzzed logs) are skipped, not scored as
/// zero. `attempt_parent`, when non-null, maps retry attempt ids to their
/// original message: observations of the same original are scored as one
/// message whose posterior is the normalized product of the per-attempt
/// posteriors (independent evidence about the same sender) — the anonymity
/// cost of retransmission.
[[nodiscard]] sim_report score_run(
    const sim_config& config, const adversary_model& model,
    const std::map<std::uint64_t, message_outcome>& outcomes,
    const posterior_fn* engine, const net::topology* graph = nullptr,
    const std::map<std::uint64_t, std::uint64_t>* attempt_parent = nullptr);

}  // namespace detail

}  // namespace anonpath::sim
