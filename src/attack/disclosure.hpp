#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/anonymity/types.hpp"
#include "src/workload/population.hpp"

namespace anonpath::attack {

/// Longitudinal disclosure attacks: a persistent sender ("the target") keeps
/// re-communicating with the same receiver across mix rounds; each round the
/// adversary learns only *membership* — who submitted into the batch and
/// which receivers got messages, never the bijection. That is provably
/// enough: the target's partner is in every round she participates in, so
/// set intersection (exact), receiver-frequency subtraction (statistical
/// disclosure), and sequential Bayesian fusion all converge on the partner
/// as rounds accumulate. Mirrors the sim::adversary_model pattern: one
/// virtual family, concrete subclasses per inference style.

enum class attack_kind : std::uint8_t {
  none,              ///< placeholder for "no longitudinal attack" axes
  intersection,      ///< exact candidate-set intersection (hitting set k=1)
  sda,               ///< statistical disclosure (background subtraction)
  sequential_bayes,  ///< per-round Bayesian evidence fusion
};

/// Stable short label ("none", "intersection", "sda", "sequential_bayes").
[[nodiscard]] const char* attack_kind_label(attack_kind kind) noexcept;

/// Parses a label (or the CLI alias "bayes"); nullopt on unknown input.
[[nodiscard]] std::optional<attack_kind> parse_attack_kind(
    const std::string& label);

/// One mix round as the adversary sees it.
struct round_observation {
  /// True iff the target appears in the round's sender multiset (mix input
  /// membership is public in a batching mix).
  bool target_present = false;
  /// Receiver of every message delivered this round (multiset; order
  /// carries no information).
  std::vector<node_id> receivers;
  /// Optional soft sender evidence, parallel to `receivers`:
  /// target_weight[j] = Pr(message j originates from the target), as scored
  /// by a per-message inference engine (posterior_engine /
  /// topology_posterior_engine) on the rerouting layer under the mix. Empty
  /// means crisp membership: each of the m messages is the target's with
  /// probability 1/m when target_present. This is the fusion seam between
  /// the repo's per-message posteriors and the longitudinal evidence.
  std::vector<double> target_weight;
};

/// One point of an attack's per-round trajectory.
struct trajectory_point {
  std::uint32_t round = 0;      ///< rounds consumed when sampled (1-based)
  double entropy_bits = 0.0;    ///< H(posterior)
  double top_mass = 0.0;        ///< max posterior entry
  node_id top_receiver = 0;     ///< argmax (smallest id on ties)
  bool identified = false;      ///< top_mass > identified_threshold
};

/// The family interface. Implementations consume rounds one at a time
/// (streaming — population-scale runs never hold more than one round) and
/// expose a posterior over the receiver population for "is r the target's
/// persistent partner".
class disclosure_attack {
 public:
  explicit disclosure_attack(std::uint32_t receiver_count);
  virtual ~disclosure_attack() = default;

  /// Consumes one round. Rounds without the target still carry information
  /// (they calibrate the background) and must be fed too, in round order.
  /// Precondition: receiver ids < receiver_count(); target_weight empty or
  /// sized like receivers with entries in [0, 1].
  virtual void observe_round(const round_observation& round) = 0;

  /// Current posterior over the receiver population; normalized, uniform
  /// before any evidence arrives.
  [[nodiscard]] virtual std::vector<double> posterior() const = 0;

  [[nodiscard]] virtual attack_kind kind() const noexcept = 0;

  /// Trajectory point of the current posterior, sampled at `round`. The
  /// default is summarize_posterior(posterior(), ...); engines whose
  /// posterior is zero outside a small support, or takes few distinct
  /// values, override it with summarize_sparse / summarize_classes, which
  /// return the same point bit for bit without materializing the dense
  /// vector.
  [[nodiscard]] virtual trajectory_point summarize(
      std::uint32_t round, double identified_threshold) const;

  /// Approximate resident engine state, for the memory accounting of
  /// streaming runs: exact engines grow with the receiver population,
  /// sketch-backed engines stay sublinear.
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept {
    return sizeof(*this);
  }

  [[nodiscard]] std::uint32_t receiver_count() const noexcept {
    return receiver_count_;
  }

 protected:
  std::uint32_t receiver_count_;
};

/// A completed longitudinal run: the entropy/identified trajectory plus the
/// final state. `identified_round` is the first sampled round whose top
/// mass exceeded the threshold (nullopt if never).
struct attack_result {
  std::vector<trajectory_point> trajectory;
  std::vector<double> final_posterior;
  std::uint32_t rounds = 0;
  std::optional<std::uint32_t> identified_round;
  node_id top_receiver = 0;
  double top_mass = 0.0;
  double entropy_bits = 0.0;
};

/// Configuration for sequential_bayes (ignored by the other kinds).
struct sequential_bayes_config {
  /// Known background receiver pmf (size = receiver population). Empty =
  /// learn it online from non-target rounds with Laplace smoothing.
  std::vector<double> background_pmf;
  /// Probability that a target-present round carries no partner delivery:
  /// membership was coincidental (a background send from the same user) or
  /// the target's message was lost before delivery. 0 (the default) makes
  /// absence hard evidence — maximal sharpness, and the exact
  /// support-equals-intersection conformance contract — but one
  /// mis-attributed round then annihilates the true partner irreversibly.
  /// Any positive value turns that -inf into a log(noise) penalty the
  /// partner recovers from as clean rounds accumulate. Must be in [0, 1).
  double membership_noise = 0.0;
};

/// Factory over the family. Precondition: kind != none; receiver_count >= 2.
[[nodiscard]] std::unique_ptr<disclosure_attack> make_attack(
    attack_kind kind, std::uint32_t receiver_count,
    const sequential_bayes_config& bayes = {});

/// Summarizes a posterior into a trajectory point (shared by the runners
/// and the simulator integration). The total and the entropy are exactly
/// rounded sums (stats::exact_sum), so they do not depend on the order of
/// the entries — the property that lets summarize_classes and
/// summarize_sparse reproduce this point bit for bit from fewer terms.
/// Precondition: entries >= 0.
[[nodiscard]] trajectory_point summarize_posterior(
    const std::vector<double>& posterior, std::uint32_t round,
    double identified_threshold);

/// Receivers that share one unnormalized posterior weight: `members` of
/// them, the smallest id `first`.
struct weight_class {
  double weight = 0.0;
  std::uint64_t members = 0;
  node_id first = 0;
};

/// Exactly rounded Σ members·max(weight, 0): the normalizer of a posterior
/// that is +0 off `classes`.
[[nodiscard]] double class_normalizer(std::span<const weight_class> classes);

/// summarize_posterior for a posterior that is +0 everywhere except on the
/// members of `classes`, each class holding its unnormalized weight before
/// clamping. Each sum is the exactly rounded sum of the same terms the
/// dense path adds — n equal terms go in as one exact product — and the +0
/// entries add nothing, so the point is bit-identical to normalizing the
/// dense vector and summarizing it, in O(#classes). The argmax compares the
/// *normalized* mass (two weights can round to one p) and takes the
/// smallest `first` among the classes reaching it, as the dense first
/// maximum does. nullopt when the clamped weights sum to <= 0 — the
/// caller's uniform fallback.
[[nodiscard]] std::optional<trajectory_point> summarize_classes(
    std::span<const weight_class> classes, std::uint32_t round,
    double identified_threshold);

/// summarize_classes with one class per `support` entry (ascending receiver
/// ids), `weights` parallel to it. Precondition: weights.size() ==
/// support.size().
[[nodiscard]] std::optional<trajectory_point> summarize_sparse(
    const std::vector<node_id>& support, const std::vector<double>& weights,
    std::uint32_t round, double identified_threshold);

/// Streams every round of `pop` into `attack`, tracking persistent pair
/// `pair_index`, with a trajectory point every `stride` rounds (and always
/// at the last round). Crisp membership (no per-message weights — the mix
/// rounds themselves are the evidence). Preconditions: pair_index <
/// pop.pairs().size(); attack.receiver_count() == pop receiver_count;
/// stride >= 1; threshold in (0, 1).
[[nodiscard]] attack_result run_workload_attack(
    const workload::population& pop, std::uint32_t pair_index,
    disclosure_attack& attack, double identified_threshold,
    std::uint32_t stride = 1);

/// The principled membership_noise for a workload pair: the probability
/// that a round marked target-present is actually a coincidental
/// background send (the pair did not emit), from the configured send rate,
/// the pair sender's popularity under the sender law, and the expected
/// background volume per round. Exactly 0 at persistent_rate == 1 (every
/// marked round really contains the partner), so default-rate workloads
/// keep the sharp conformance behavior. Precondition: pair_index <
/// pop.pairs().size().
[[nodiscard]] double estimated_membership_noise(
    const workload::population& pop, std::uint32_t pair_index);

}  // namespace anonpath::attack
