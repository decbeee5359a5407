#include "src/attack/sda.hpp"

#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/kahan.hpp"

namespace anonpath::attack {

sda_attack::sda_attack(std::uint32_t receiver_count)
    : disclosure_attack(receiver_count),
      target_counts_(receiver_count, 0),
      background_counts_(receiver_count, 0),
      seen_((receiver_count + 63) / 64, 0) {}

void sda_attack::observe_round(const round_observation& round) {
  // Zero deliveries is loss, not evidence (family-wide rule, see
  // intersection_attack): counting such a round would dilute the mean
  // batch size m-bar that the background subtraction scales by.
  if (round.receivers.empty()) return;
  for (node_id v : round.receivers) ANONPATH_EXPECTS(v < receiver_count_);
  if (round.target_present) {
    for (node_id v : round.receivers) {
      ++target_counts_[v];
      seen_[v / 64] |= std::uint64_t{1} << (v % 64);
    }
    ++target_rounds_;
    target_messages_ += round.receivers.size();
  } else {
    for (node_id v : round.receivers) ++background_counts_[v];
    ++background_rounds_;
    background_messages_ += round.receivers.size();
  }
}

double sda_attack::mean_batch() const {
  return static_cast<double>(target_messages_) /
         static_cast<double>(target_rounds_);
}

double sda_attack::signal_at(node_id r, double mbar) const {
  const double p_target = static_cast<double>(target_counts_[r]) /
                          static_cast<double>(target_messages_);
  // No background rounds yet: fall back to the uniform prior for q̂ (the
  // subtraction then just recenters; evidence still ranks receivers).
  const double q = background_messages_ > 0
                       ? static_cast<double>(background_counts_[r]) /
                             static_cast<double>(background_messages_)
                       : 1.0 / static_cast<double>(receiver_count_);
  return mbar * p_target - (mbar - 1.0) * q;
}

std::vector<double> sda_attack::signal() const {
  std::vector<double> out(receiver_count_, 0.0);
  if (target_messages_ == 0) return out;
  const double mbar = mean_batch();
  for (std::uint32_t r = 0; r < receiver_count_; ++r)
    out[r] = signal_at(r, mbar);
  return out;
}

std::vector<double> sda_attack::confidence() const {
  std::vector<double> out(receiver_count_, 0.0);
  if (target_messages_ == 0) return out;
  const double n = static_cast<double>(target_messages_);
  for (std::uint32_t r = 0; r < receiver_count_; ++r) {
    // Laplace-smoothed background rate keeps the null variance positive for
    // receivers the background never touched.
    const double q = (static_cast<double>(background_counts_[r]) + 1.0) /
                     (static_cast<double>(background_messages_) +
                      static_cast<double>(receiver_count_));
    const double expected = n * q;
    // The smoothed q can still round to exactly 1.0 when the background is
    // fully concentrated on r at huge counts; the null then has zero
    // variance and no z-score is defined. Degenerate evidence, not NaN: a
    // receiver the null predicts with certainty carries no surprise.
    const double variance = n * q * (1.0 - q);
    out[r] = variance > 0.0
                 ? (static_cast<double>(target_counts_[r]) - expected) /
                       std::sqrt(variance)
                 : 0.0;
  }
  return out;
}

std::vector<double> sda_attack::posterior() const {
  std::vector<double> post = signal();
  stats::kahan_sum z;
  for (double& p : post) {
    if (p < 0.0) p = 0.0;
    z.add(p);
  }
  if (target_messages_ == 0 || z.value() <= 0.0) {
    const double u = 1.0 / static_cast<double>(receiver_count_);
    for (double& p : post) p = u;
    return post;
  }
  for (double& p : post) p /= z.value();
  return post;
}

std::vector<node_id> sda_attack::support() const {
  std::vector<node_id> out;
  for (std::size_t w = 0; w < seen_.size(); ++w)
    for (std::uint64_t bits = seen_[w]; bits != 0; bits &= bits - 1)
      out.push_back(static_cast<node_id>(64 * w + std::countr_zero(bits)));
  return out;
}

trajectory_point sda_attack::summarize(std::uint32_t round,
                                       double identified_threshold) const {
  if (target_messages_ == 0 || mean_batch() < 1.0)
    return disclosure_attack::summarize(round, identified_threshold);
  const std::vector<node_id> ids = support();
  const double mbar = mean_batch();
  std::vector<double> weights(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    weights[i] = signal_at(ids[i], mbar);
  if (auto pt = summarize_sparse(ids, std::move(weights), round,
                                 identified_threshold))
    return *pt;
  return disclosure_attack::summarize(round, identified_threshold);
}

namespace {

[[noreturn]] void reject_counts(parse_error_kind kind,
                                const std::string& detail) {
  throw parse_error(kind, "cooccurrence", detail);
}

/// Rejects a sparse count row that is not strictly ascending by receiver or
/// that names a receiver outside the declared population.
void check_rows(const workload::receiver_counts& rows,
                std::uint32_t receiver_count, const char* what) {
  const workload::receiver_counts::value_type* prev = nullptr;
  for (const auto& row : rows) {
    if (row.first >= receiver_count)
      reject_counts(parse_error_kind::out_of_range,
                    std::string(what) + " receiver id " +
                        std::to_string(row.first) +
                        " >= receiver population " +
                        std::to_string(receiver_count));
    if (prev != nullptr && prev->first >= row.first)
      reject_counts(parse_error_kind::malformed,
                    std::string(what) +
                        " receiver counts not strictly ascending at id " +
                        std::to_string(row.first));
    prev = &row;
  }
}

}  // namespace

sda_attack sda_attack::from_counts(const workload::cooccurrence_result& totals,
                                   std::uint32_t pair_index,
                                   std::uint32_t receiver_count) {
  ANONPATH_EXPECTS(pair_index < totals.per_pair.size());
  const workload::pair_counts& pc = totals.per_pair[pair_index];
  // `totals` is untrusted — it may be merged, replayed, or deserialized from
  // a corrupt shard — so every complement computed below is validated before
  // the unsigned subtraction that would otherwise underflow, and the
  // m-bar = target_messages / target_rounds divisor is pinned non-zero.
  check_rows(totals.global_receiver_counts, receiver_count, "global");
  check_rows(pc.target_receiver_counts, receiver_count, "target");
  if (pc.target_rounds > totals.rounds)
    reject_counts(parse_error_kind::mismatch,
                  "target rounds " + std::to_string(pc.target_rounds) +
                      " exceed total rounds " + std::to_string(totals.rounds));
  if (pc.target_messages > totals.messages)
    reject_counts(parse_error_kind::mismatch,
                  "target messages " + std::to_string(pc.target_messages) +
                      " exceed total messages " +
                      std::to_string(totals.messages));
  if (pc.target_messages > 0 && pc.target_rounds == 0)
    reject_counts(parse_error_kind::mismatch,
                  std::to_string(pc.target_messages) +
                      " target messages with zero target rounds");
  sda_attack out(receiver_count);
  // Background is the exact complement of the target rounds within the
  // global accumulation: one linear pass over both ascending sparse rows,
  // rejecting any target count its global row cannot cover.
  auto t = pc.target_receiver_counts.begin();
  const auto t_end = pc.target_receiver_counts.end();
  for (const auto& [r, c] : totals.global_receiver_counts) {
    if (t != t_end && t->first < r) break;  // reported after the loop
    std::uint64_t tc = 0;
    if (t != t_end && t->first == r) tc = (t++)->second;
    if (tc > c)
      reject_counts(parse_error_kind::mismatch,
                    "target count " + std::to_string(tc) +
                        " exceeds global count " + std::to_string(c) +
                        " for receiver " + std::to_string(r));
    out.target_counts_[r] = tc;
    out.background_counts_[r] = c - tc;
    if (tc > 0) out.seen_[r / 64] |= std::uint64_t{1} << (r % 64);
  }
  if (t != t_end)
    reject_counts(parse_error_kind::mismatch,
                  "target receiver " + std::to_string(t->first) +
                      " absent from the global counts");
  out.target_rounds_ = pc.target_rounds;
  out.target_messages_ = pc.target_messages;
  out.background_rounds_ = totals.rounds - pc.target_rounds;
  out.background_messages_ = totals.messages - pc.target_messages;
  return out;
}

}  // namespace anonpath::attack
