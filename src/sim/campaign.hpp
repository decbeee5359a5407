#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/anonymity/length_distribution.hpp"
#include "src/anonymity/strategy.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/progress.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/summary.hpp"

namespace anonpath::sim {

/// A declarative scenario grid for the discrete-event simulator: the
/// cartesian product of every axis below, each cell run `replicas` times
/// with independent seeds. This is the fan-out layer the parameter-space
/// sweeps (latency frontiers, degradation studies, future churn/dynamic
/// compromise scenarios) plug into instead of hand-rolled loops over
/// `run_simulation`.
///
/// Axes with several values multiply; axes left at their one-element
/// defaults stay fixed. Cells that config_problem refuses (see
/// cell_problem) are skipped during expansion, deterministically — the
/// same grid always yields the same cell list in the same order.
struct campaign_grid {
  std::vector<std::uint32_t> node_counts{100};        ///< N axis
  std::vector<std::uint32_t> compromised_counts{1};   ///< C axis (spread_compromised placement)
  std::vector<path_length_distribution> lengths{
      path_length_distribution::fixed(3)};            ///< strategy axis
  std::vector<routing_mode> modes{routing_mode::source_routed};
  std::vector<double> drop_probabilities{0.0};        ///< per-link loss axis
  std::vector<double> arrival_rates{50.0};            ///< Poisson msgs/s axis
  std::vector<adversary_config> adversaries{
      adversary_config{}};                            ///< threat-model axis
  std::vector<net::topology_config> topologies{
      net::topology_config{}};                        ///< graph axis
  /// Route-selection axis (net::routing_config): the default (walk) keeps
  /// every historical cell byte-identical; kpaths cells route over planned
  /// Dijkstra/Yen paths.
  std::vector<net::routing_config> routings{net::routing_config{}};
  std::vector<net::churn_config> churns{
      net::churn_config{}};                           ///< availability axis
  /// Fault axes (src/sim/fault_plan.hpp). `mix_failures` sweeps seeded
  /// crash/repair episode schedules; `retries` sweeps the sender-side
  /// retransmission policy — the reliability-vs-anonymity knob. Defaults
  /// (disabled) keep both off and the cell order/CSV bytes unchanged.
  std::vector<mix_failure_config> mix_failures{mix_failure_config{}};
  std::vector<retry_policy> retries{retry_policy{}};
  /// Longitudinal session axes (src/sim/session.hpp). `populations` is the
  /// pseudonymous receiver population, `session_rounds` the mix-round
  /// count, `attacks` the disclosure engine. The defaults (0 / 0 / none)
  /// keep sessions off.
  std::vector<std::uint32_t> populations{0};
  std::vector<std::uint32_t> session_rounds{0};
  std::vector<attack::attack_kind> attacks{attack::attack_kind::none};
  /// Engine state backend for session attacks (src/workload/streaming.hpp):
  /// exact counts or sublinear-memory sketches. The default keeps every
  /// historical cell and CSV byte identical.
  std::vector<workload::stream_backend> streams{
      workload::stream_backend::exact};

  // Shared (non-swept) per-run settings.
  std::uint32_t message_count = 1000;
  double forward_prob = 0.75;                         ///< crowds-mode coin
  latency_params latency{};
  double identified_threshold = 0.99;                 ///< sim_report scoring
  /// Background destination law for session cells (target pair excluded).
  workload::popularity_law session_receiver_law{};
  /// Explicit crash/repair intervals applied to EVERY cell (not swept), so
  /// they pick no cells (see cell_problem): a plan naming a node outside
  /// some cell's [0, N) fails that cell at run time and is reported
  /// through its error column, leaving the rest of the campaign intact.
  std::vector<net::outage> fault_outages{};

  /// Cells in the full cartesian product, before feasibility filtering.
  [[nodiscard]] std::uint64_t cell_count() const noexcept {
    return static_cast<std::uint64_t>(node_counts.size()) *
           compromised_counts.size() * lengths.size() * modes.size() *
           drop_probabilities.size() * arrival_rates.size() *
           adversaries.size() * topologies.size() * routings.size() *
           churns.size() *
           mix_failures.size() * retries.size() * populations.size() *
           session_rounds.size() * attacks.size() * streams.size();
  }
};

/// Execution knobs for a campaign.
///
/// Determinism contract (mirrors mc_config): for a fixed (grid, replicas,
/// master_seed) the aggregated result — every cell summary, bit for bit,
/// and the CSV rendering byte for byte — is identical for EVERY value of
/// `threads`. Each (cell, replica) run derives its simulator seed from
/// `stats::rng::stream(master_seed, run_index)` where run_index depends
/// only on the grid order, runs into its own report slot, and slots are
/// reduced in run order on the calling thread.
struct campaign_config {
  std::uint32_t replicas = 8;     ///< independent runs per cell (>= 1)
  std::uint64_t master_seed = 1;
  unsigned threads = 1;           ///< worker threads; 0 = hardware concurrency
  /// Run every (cell, replica) through the trace pipeline —
  /// replay_trace(capture_trace(cfg)) — instead of inline run_simulation.
  /// Identical results by the trace subsystem's contract; exercised by the
  /// conformance tests and useful when the captured traces are also wanted.
  bool via_trace = false;
  /// When non-empty, run_campaign journals every completed cell to this
  /// file (src/sim/checkpoint.hpp format) as the campaign progresses:
  /// header first, then one record per cell, flushed in cell order, so a
  /// killed process loses at most the cells still in flight.
  std::string checkpoint_path{};
  /// With `checkpoint_path` set: load the checkpoint's completed-cell
  /// prefix (scope-verified against this exact grid/config) and run only
  /// the remaining cells. The final result — and its CSV — is bit-identical
  /// to an uninterrupted run at any thread count, because per-run seeds
  /// derive from absolute run indices. A missing or empty checkpoint file
  /// degrades to a fresh start; a corrupt one throws anonpath::parse_error.
  bool resume = false;
  /// Distributed split: run only the cells whose absolute grid index is
  /// congruent to shard_index mod shard_count (the CLI's `--shard i/n`).
  /// Every shard derives its seeds from ABSOLUTE run indices and journals
  /// absolute cell indices under a `shard i n` header line, so the shards'
  /// checkpoints — produced on any mix of machines and thread counts —
  /// merge_campaign() back into output bit-identical to an unsharded run.
  /// Shard identity is deliberately NOT part of campaign_scope: all shards
  /// of one campaign share a scope, which is how the merge validates they
  /// belong together. Defaults (0 of 1) are the unsharded run, journal
  /// bytes unchanged. Sharded runs require a checkpoint_path (the journal
  /// IS the shard's output hand-off).
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Optional observability hooks (src/obs): non-owning, default off, and
  /// deliberately NOT part of campaign_scope — telemetry never changes
  /// what a campaign computes, its rng streams, or which checkpoints
  /// match. With `metrics` set, every completed run records its
  /// deterministic sim_report counters into the registry (thread-sharded
  /// by worker id; run_campaign sizes the shards before fanning out) plus
  /// wall-clock run/cell duration histograms (campaign.run_us,
  /// campaign.cell_us) and a campaign.cells_completed counter. With
  /// `progress` set, cell flushes drive its stderr heartbeat (one line at
  /// start, rate-limited updates, a guaranteed final line) counted over
  /// this shard's local cells — a resumed campaign's restored prefix shows
  /// as already complete, while metrics cover only the cells actually
  /// executed.
  obs::metrics_registry* metrics = nullptr;
  obs::progress_meter* progress = nullptr;
};

/// The coordinates of one grid cell. Default-constructed scenarios
/// are placeholders (checkpoint records restore metric state first and are
/// rebound to their grid cell afterwards), not runnable configurations.
struct scenario {
  std::uint32_t node_count = 0;
  std::uint32_t compromised_count = 0;
  path_length_distribution lengths = path_length_distribution::fixed(0);
  routing_mode mode = routing_mode::source_routed;
  double drop_probability = 0.0;
  double arrival_rate = 0.0;
  adversary_config adversary{};
  net::topology_config topology{};
  net::routing_config routing{};
  net::churn_config churn{};
  mix_failure_config mix_failure{};
  retry_policy retry{};
  std::uint32_t population = 0;     ///< session receiver population (0 = off)
  std::uint32_t rounds = 0;         ///< session mix rounds (0 = off)
  attack::attack_kind attack = attack::attack_kind::none;
  workload::stream_backend stream = workload::stream_backend::exact;
};

/// Cross-replica aggregates of one cell. Each replica contributes one
/// scalar per metric (its run-level mean), so `mean()` is the
/// across-replica mean and `std_error()`/`ci_half_width()` quantify
/// replica-to-replica spread. The three inference metrics stay empty
/// (count() == 0) for hop-by-hop cells, where the exact posterior engine
/// does not apply.
struct campaign_cell {
  scenario scene;
  std::uint32_t replicas = 0;
  std::uint64_t submitted = 0;                  ///< total over replicas
  std::uint64_t delivered = 0;                  ///< total over replicas
  stats::running_summary delivered_fraction;    ///< per-replica delivered/submitted
  stats::running_summary latency_seconds;       ///< per-replica mean end-to-end latency
  stats::running_summary hops;                  ///< per-replica mean realized hops
  stats::running_summary entropy_bits;          ///< per-replica empirical H*
  stats::running_summary identified_fraction;
  stats::running_summary top1_accuracy;
  /// Longitudinal metrics; empty (count() == 0) for session-less cells.
  stats::running_summary attack_entropy_bits;   ///< final posterior entropy
  stats::running_summary attack_identified;     ///< 0/1 per replica
  /// First identifying round, over the replicas that identified at all.
  stats::running_summary rounds_to_identify;
  /// Retransmissions per submitted message; empty for retry-less cells.
  stats::running_summary retransmit_rate;
  /// Empty for healthy cells. A replica that throws (e.g. a fault plan
  /// naming a node outside this cell's N) contributes nothing to the
  /// summaries; the first failing replica's message lands here and the
  /// campaign carries on — one bad cell never kills the process.
  std::string error;
};

/// A completed campaign: one aggregated cell per feasible grid point, in
/// deterministic grid order (node_counts outermost, then compromised
/// counts, lengths, modes, drop probabilities, arrival rates, adversaries,
/// topologies, routings, churns, mix failures, retries, populations,
/// session rounds, attacks, stream backends innermost).
struct campaign_result {
  std::vector<campaign_cell> cells;
  std::uint64_t requested_cells = 0;   ///< full cartesian product size
  std::uint64_t skipped_cells = 0;     ///< infeasible combinations dropped
  std::uint64_t runs = 0;              ///< feasible cells * replicas
};

/// Expands the grid into its feasible scenarios (cell_problem is null), in
/// the deterministic order documented on campaign_result. Exposed
/// separately so tests and callers can enumerate cells without running
/// anything.
[[nodiscard]] std::vector<scenario> expand_grid(const campaign_grid& grid);

/// The first cell of the grid's cartesian product, feasible or not: every
/// axis at its first value. Precondition: no axis is empty.
[[nodiscard]] scenario first_cell(const campaign_grid& grid);

/// Why a product cell cannot run: config_problem of its
/// scenario_base_config with the grid-wide fault_outages left out, or
/// nullptr when it is feasible.
[[nodiscard]] const char* cell_problem(const scenario& s,
                                       const campaign_grid& grid);

/// The seed-free part of a scenario's sim_config: shared settings from the
/// grid and the compromised set via spread_compromised, with `seed` and the
/// session target (drawn under the seed) left at their defaults. The
/// session coordinates are copied even when rounds is 0, so an incoherent
/// cell stays incoherent for config_problem. Draws nothing;
/// campaign_scope fingerprints it.
[[nodiscard]] sim_config scenario_base_config(const scenario& s,
                                              const campaign_grid& grid);

/// The sim_config a scenario runs under: scenario_base_config plus the
/// given seed and the session target it selects.
[[nodiscard]] sim_config scenario_config(const scenario& s,
                                         const campaign_grid& grid,
                                         std::uint64_t seed);

/// Runs the whole campaign — or, with shard_count > 1, this config's
/// shard of it: expands the grid, fans every (cell, replica) run out over
/// a stats::thread_pool, and reduces the reports into per-cell summaries
/// in run order. See campaign_config for the thread-count invariance
/// guarantee and the checkpoint/resume/shard behaviour; per-replica
/// failures are isolated into campaign_cell::error. A sharded result
/// holds only the shard's cells (in absolute grid order); its
/// requested/skipped counts stay grid-global while `runs` counts what the
/// shard executed. Every journal write is verified: a failed write or
/// flush (disk full, I/O error) throws anonpath::parse_error{io} instead
/// of silently dropping cells. Preconditions: replicas >= 1, at least one
/// feasible cell, shard_index < shard_count, resume only with a
/// checkpoint path, and shard_count > 1 only with a checkpoint path.
[[nodiscard]] campaign_result run_campaign(const campaign_grid& grid,
                                           const campaign_config& config);

/// Renders a campaign as one CSV table (header + one row per cell).
/// Inference columns are "nan" for hop-by-hop cells; the strategy label is
/// double-quoted because it may contain commas. The rendering is
/// deterministic: byte-identical output for byte-identical results, which
/// is how the determinism tests and the CI smoke check compare runs. The
/// session columns (population, rounds, attack and their metrics) appear
/// only when some cell enables a session, so session-less campaigns render
/// byte-identically to their pre-session output. Likewise the fault columns
/// (mix_failures, retry, retransmit_rate) appear only when some cell sweeps
/// them, the `routing` column only when some cell plans routes, and the
/// trailing quoted `error` column only when some cell failed.
void write_csv(const campaign_result& result, std::ostream& os);

}  // namespace anonpath::sim
