#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/anonymity/observation.hpp"
#include "src/anonymity/types.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/latency.hpp"

namespace anonpath::sim {

/// The threat-model families the simulator can instantiate. The paper's
/// Sec. 4 worst-case observability model is one point in this space:
///   * full_coalition — every configured compromised node reports, the
///     receiver is compromised, and the adversary holds the correlation
///     handle (paper Sec. 4).
///   * partial_coverage — each relay is independently corrupted with
///     probability `coverage_fraction` and the receiver may be honest
///     (Ando–Lysyanskaya–Upfal's fractional-corruption setting); reports
///     still correlate by message, but the terminal of the path may be
///     unobserved.
///   * timing_correlator — agents at the configured compromised nodes (and
///     the receiver) observe only link send/receive timestamps and
///     endpoints; captures are linked into per-message chains by latency
///     correlation (crypto::timing_correlation, Zheng's low-latency model),
///     never by a correlation handle. Its observations are `gapped`.
enum class adversary_kind : std::uint8_t {
  full_coalition,
  partial_coverage,
  timing_correlator,
};

/// Stable short label ("full_coalition", ...) for CSV and CLI surfaces.
[[nodiscard]] const char* adversary_kind_label(adversary_kind kind) noexcept;

/// Declarative description of the adversary a run faces.
struct adversary_config {
  adversary_kind kind = adversary_kind::full_coalition;
  /// partial_coverage only: per-relay independent corruption probability.
  double coverage_fraction = 1.0;
  /// partial_coverage only: false models an honest receiver (no terminal
  /// report). full_coalition and timing_correlator always compromise R.
  bool receiver_compromised = true;

  [[nodiscard]] bool valid() const noexcept {
    return coverage_fraction >= 0.0 && coverage_fraction <= 1.0;
  }

  /// Compact human/CSV label, e.g. "full_coalition",
  /// "partial(f=0.25)", "partial(f=0.25;honest_r)", "timing_correlator".
  [[nodiscard]] std::string label() const;

  friend bool operator==(const adversary_config&,
                         const adversary_config&) = default;
};

/// One adversary-visible event, in the order the collection apparatus saw
/// it. This is the unit of the sim::trace capture format: feeding a model
/// the recorded stream reproduces its post-run state exactly.
struct adversary_event {
  enum class kind : std::uint8_t { origin, relay, receipt };
  kind type = kind::relay;
  std::uint64_t msg = 0;
  sim_time at = 0.0;       ///< capture time (0 for origin events)
  node_id reporter = 0;    ///< origin: sender; relay: reporter; receipt: unused
  node_id predecessor = 0; ///< relay/receipt: immediate predecessor
  node_id successor = 0;   ///< relay: immediate successor (may be receiver_node)

  friend bool operator==(const adversary_event&,
                         const adversary_event&) = default;
};

/// The adversary's collection apparatus behind a small virtual interface:
/// agents at compromised nodes report (time, predecessor, successor) for
/// every message they relay, a compromised receiver reports its
/// predecessor, and a compromised *sender* is observed originating. How
/// those reports fuse into `observation` objects — and which of them exist
/// at all — is the threat model, i.e. the concrete subclass.
class adversary_model {
 public:
  virtual ~adversary_model() = default;

  /// Called by a compromised node when it *originates* a message.
  virtual void note_origin(std::uint64_t msg, node_id sender) = 0;

  /// Called by a compromised relay when it forwards a message.
  virtual void note_relay(std::uint64_t msg, sim_time at, node_id reporter,
                          node_id predecessor, node_id successor) = 0;

  /// Called by the receiver on delivery (a model with an honest receiver
  /// ignores it — the hook models what the party *could* leak).
  virtual void note_receipt(std::uint64_t msg, sim_time at,
                            node_id predecessor) = 0;

  /// True once the model holds a scorable observation for the message.
  [[nodiscard]] virtual bool complete(std::uint64_t msg) const = 0;

  /// Reconstructs the observation for a completed message. Throws
  /// std::out_of_range for unknown/incomplete messages.
  [[nodiscard]] virtual observation assemble(std::uint64_t msg) const = 0;

  /// All message ids with a completed observation, ascending.
  [[nodiscard]] virtual std::vector<std::uint64_t> observed_messages()
      const = 0;

  [[nodiscard]] virtual adversary_kind kind() const noexcept = 0;

  /// The flag vector (indexed by node id) of corrupted relays.
  [[nodiscard]] const std::vector<bool>& compromised() const noexcept {
    return compromised_;
  }

  /// The corrupted relays as a sorted id list (posterior-engine form).
  [[nodiscard]] std::vector<node_id> compromised_ids() const;

 protected:
  /// `compromised` is the flag vector indexed by node id; must be non-empty.
  explicit adversary_model(std::vector<bool> compromised);

  std::vector<bool> compromised_;
};

/// The paper's Sec. 4 worst-case adversary: the monitor fuses reports per
/// message id (the correlation assumption) and reconstructs the exact
/// `observation` objects the inference engines consume, sorting reports by
/// capture time — the simulator never leaks ground-truth order. The
/// per-message log is indexed by message id: dense ids (the simulator's
/// originals 1..M, retries after) keep it compact; memory is linear in the
/// largest id reported.
class full_coalition_model : public adversary_model {
 public:
  explicit full_coalition_model(std::vector<bool> compromised);

  void note_origin(std::uint64_t msg, node_id sender) override;
  void note_relay(std::uint64_t msg, sim_time at, node_id reporter,
                  node_id predecessor, node_id successor) override;
  void note_receipt(std::uint64_t msg, sim_time at,
                    node_id predecessor) override;
  [[nodiscard]] bool complete(std::uint64_t msg) const override;
  [[nodiscard]] observation assemble(std::uint64_t msg) const override;
  [[nodiscard]] std::vector<std::uint64_t> observed_messages() const override;
  [[nodiscard]] adversary_kind kind() const noexcept override {
    return adversary_kind::full_coalition;
  }

 protected:
  struct capture {
    sim_time at = 0.0;
    hop_report report;
  };
  struct per_message {
    std::optional<node_id> origin;
    std::vector<capture> captures;
    std::optional<node_id> receiver_predecessor;
  };
  /// The record of `msg`, created (with every id below it) on first use.
  per_message& entry(std::uint64_t msg);
  /// The record of `msg`, or null for an id never reported.
  [[nodiscard]] const per_message* find(std::uint64_t msg) const noexcept {
    return msg < log_.size() ? &log_[msg] : nullptr;
  }
  std::vector<per_message> log_;  ///< indexed by message id
};

/// Fractional corruption (Ando–Lysyanskaya–Upfal): the compromised set is
/// whatever effective_compromised() drew; corrupted relays report exactly
/// like the full coalition, but when the receiver is honest a message
/// completes as soon as *anything* about it was captured, and the
/// assembled observation carries receiver_observed == false — the posterior
/// engine then marginalizes over the unknown tail of the path.
class partial_coverage_model : public full_coalition_model {
 public:
  partial_coverage_model(std::vector<bool> compromised,
                         bool receiver_compromised);

  void note_receipt(std::uint64_t msg, sim_time at,
                    node_id predecessor) override;
  [[nodiscard]] bool complete(std::uint64_t msg) const override;
  [[nodiscard]] observation assemble(std::uint64_t msg) const override;
  [[nodiscard]] std::vector<std::uint64_t> observed_messages() const override;
  [[nodiscard]] adversary_kind kind() const noexcept override {
    return adversary_kind::partial_coverage;
  }

  [[nodiscard]] bool receiver_compromised() const noexcept {
    return receiver_compromised_;
  }

 private:
  bool receiver_compromised_;
};

/// Zheng-style low-latency traffic analysis: agents at compromised nodes
/// capture (time, predecessor, successor) but have *no* correlation handle,
/// and origination events cannot be tied to deliveries at all. At scoring
/// time captures are greedily linked backwards from each delivery: capture
/// c' precedes capture c when the wire endpoints chain (c'.successor ==
/// c.reporter, c.predecessor == c'.reporter) and
/// crypto::timing_correlation(c'.at, c.at, lo, hi) is positive for the
/// network's per-step delay window [processing + base, processing + base +
/// jitter]; among candidates the highest score (earliest capture on ties)
/// wins and each capture links at most once. The resulting per-delivery
/// chains are emitted as `gapped` observations — reports the correlator
/// failed to link are simply absent, which the posterior engine must (and
/// does) marginalize over.
class timing_correlator_model : public adversary_model {
 public:
  /// `link` describes the network the adversary taps; the linking window is
  /// derived from it (timing analysis presumes known network characteristics).
  timing_correlator_model(std::vector<bool> compromised, latency_params link);

  void note_origin(std::uint64_t msg, node_id sender) override;
  void note_relay(std::uint64_t msg, sim_time at, node_id reporter,
                  node_id predecessor, node_id successor) override;
  void note_receipt(std::uint64_t msg, sim_time at,
                    node_id predecessor) override;
  [[nodiscard]] bool complete(std::uint64_t msg) const override;
  [[nodiscard]] observation assemble(std::uint64_t msg) const override;
  [[nodiscard]] std::vector<std::uint64_t> observed_messages() const override;
  [[nodiscard]] adversary_kind kind() const noexcept override {
    return adversary_kind::timing_correlator;
  }

 private:
  struct capture {
    sim_time at = 0.0;
    node_id reporter = 0;
    node_id predecessor = 0;
    node_id successor = 0;
  };
  struct receipt {
    sim_time at = 0.0;
    node_id predecessor = 0;
    std::uint64_t msg = 0;
  };

  /// Runs the linking pass once, lazily, over the full capture log.
  void link() const;

  latency_params link_;
  std::vector<capture> captures_;   ///< capture order (== time order)
  std::vector<receipt> receipts_;   ///< delivery order
  mutable bool linked_ = false;
  mutable std::map<std::uint64_t, observation> assembled_;
};

/// The compromised flag set an adversary config induces for an N-node run:
/// the explicitly configured set for full_coalition and timing_correlator;
/// an iid Bernoulli(coverage_fraction) draw on a dedicated deterministic
/// rng stream of `seed` for partial_coverage (independent of every other
/// stream the simulator consumes, so enabling the model never perturbs
/// traffic or routing). Preconditions: config.valid(), node_count >= 1,
/// configured ids < node_count.
[[nodiscard]] std::vector<bool> effective_compromised(
    const adversary_config& config, std::uint32_t node_count,
    const std::vector<node_id>& configured, std::uint64_t seed);

/// Instantiates the model for a final flag set (drawn or explicit — the
/// factory never draws, so trace replay can rebuild the exact model that
/// captured a run). `link` is only consulted by the timing correlator.
[[nodiscard]] std::unique_ptr<adversary_model> make_adversary_model(
    const adversary_config& config, std::vector<bool> compromised,
    const latency_params& link);

}  // namespace anonpath::sim
