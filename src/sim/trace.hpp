#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "src/sim/adversary.hpp"
#include "src/sim/simulator.hpp"

namespace anonpath::sim {

/// A captured run: everything needed to re-score the adversary's view of a
/// simulation offline, without re-running the discrete-event engine —
/// decoupling simulation cost from inference cost, and letting one
/// captured run be scored by any number of inference engines.
///
/// Contents:
///   * `config`      — the full sim_config that produced the run (seed
///                     included), so a trace is also a reproduction recipe;
///   * `compromised` — the *effective* corrupted set (for partial_coverage
///                     this is the realized Bernoulli draw, not the list in
///                     `config.compromised`), so replay rebuilds the exact
///                     model without re-drawing;
///   * `events`      — every adversary-visible event in arrival order (the
///                     recording tap of detail::run_core);
///   * `truths`      — per-message ground-truth outcomes, which replay uses
///                     for the delivery/latency metrics and top-1 scoring
///                     (they are the evaluator's key, never shown to the
///                     inference engine).
struct message_truth {
  std::uint64_t msg = 0;
  message_outcome outcome;

  friend bool operator==(const message_truth&, const message_truth&) = default;
};

struct sim_trace {
  /// Bump on any change to the serialized layout that alters bytes a v1
  /// writer could have produced; read_trace refuses mismatched versions
  /// (no silent misparse), and the golden-file regression test pins the
  /// committed fixture to the current value. Purely *additive* optional
  /// lines (topology/churn/fault-plan/retry sections, written only for
  /// non-default configs) extend the v1 grammar without a bump: every v1
  /// trace still parses to the same run, every pre-extension config still
  /// serializes byte-identically, and an older reader rejects extended
  /// traces loudly at the unknown keyword rather than misparsing them.
  static constexpr std::uint32_t format_version = 1;

  sim_config config;
  std::vector<node_id> compromised;  ///< effective corrupted set, ascending
  std::vector<adversary_event> events;
  std::vector<message_truth> truths;
  /// Retry attempt id -> original message id (detail::core_result's map),
  /// serialized only when the config enables the retry policy; replay
  /// hands it to scoring so retransmitted observations fuse exactly as
  /// they did inline.
  std::map<std::uint64_t, std::uint64_t> attempts;
};

/// Runs the discrete-event half of `run_simulation(config)` and captures
/// the adversary's event stream plus ground truth. No inference happens
/// here — that is replay's job.
[[nodiscard]] sim_trace capture_trace(const sim_config& config);

/// Re-scores a captured run with the exact posterior engine: rebuilds the
/// adversary model from the trace, feeds it the recorded events, and runs
/// the same aggregation as run_simulation. For any config,
/// replay_trace(capture_trace(cfg)) == run_simulation(cfg) bit for bit.
[[nodiscard]] sim_report replay_trace(const sim_trace& trace);

/// Same, but scores each assembled observation with a caller-supplied
/// inference engine instead of the exact posterior engine.
[[nodiscard]] sim_report replay_trace(const sim_trace& trace,
                                      const posterior_fn& engine);

/// Serializes a trace as versioned, line-oriented text. Deterministic and
/// exact: floating-point fields are written as IEEE-754 bit patterns (hex),
/// so write/read round-trips reproduce every double bit for bit and equal
/// traces render byte-identically. See README for the line grammar.
void write_trace(const sim_trace& trace, std::ostream& os);

/// Writes the config block of a trace: the lines from `sys` through the
/// optional extension sections, every field that shapes a run of `config`
/// (seed included). It is the one serialization of a sim_config: the trace
/// writer embeds it, and campaign_scope hashes it, so a field that reaches
/// a run (and therefore must survive trace replay) reaches the scope too.
void write_trace_config(const sim_config& config, std::ostream& os);

/// Parses a serialized trace. The stream is *untrusted input*: any
/// truncation, mangled token, out-of-range value, oversized count, or
/// version mismatch throws anonpath::parse_error (an std::invalid_argument
/// whose kind() classifies the failure and whose message names the
/// offending field) — never a contract violation, crash, or unbounded
/// allocation. Each token must be the writer's rendering of its field
/// (decimal without leading zeros, flags 0 or 1, 16 hex digits per double,
/// the writer's enum labels, optional sections in writer order and never
/// at their defaults), and only whitespace may follow `end`; so
/// write_trace of the result reproduces the input's tokens, except that a
/// `dist` pmf is renormalized when the distribution is built. A returned
/// trace satisfies every precondition of replay_trace and of
/// run_simulation(trace.config): config_problem(trace.config) is null, and
/// every node, message and attempt id is in range.
[[nodiscard]] sim_trace read_trace(std::istream& is);

}  // namespace anonpath::sim
