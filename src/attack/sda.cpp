#include "src/attack/sda.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/exact_sum.hpp"

namespace anonpath::attack {

count_class_table::count_class_table() : slots_(16), shift_(64 - 4) {}

std::size_t count_class_table::home(std::uint64_t target,
                                    std::uint64_t background) const noexcept {
  return static_cast<std::size_t>(
      ((target ^ (background << 32)) * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::size_t count_class_table::find(std::uint64_t target,
                                    std::uint64_t background) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(target, background);
  while (slots_[i].members != 0 &&
         (slots_[i].target != target || slots_[i].background != background))
    i = (i + 1) & mask;
  return i;
}

void count_class_table::table_join(std::uint64_t target,
                                   std::uint64_t background, node_id r) {
  std::size_t i = find(target, background);
  if (slots_[i].members == 0) {
    if (2 * (live_ + 1) > slots_.size()) {
      // Keep the load at most 1/2: double and reinsert.
      std::vector<entry> old(2 * slots_.size());
      old.swap(slots_);
      --shift_;
      for (const entry& e : old)
        if (e.members != 0) slots_[find(e.target, e.background)] = e;
      i = find(target, background);
    }
    slots_[i] = {target, background, 0, r};
    ++live_;
  }
  ++slots_[i].members;
  slots_[i].first = std::min(slots_[i].first, r);
}

void count_class_table::table_leave(std::uint64_t target,
                                    std::uint64_t background) {
  std::size_t i = find(target, background);
  ANONPATH_EXPECTS(slots_[i].members != 0);
  if (--slots_[i].members != 0) return;
  // Backward-shift deletion: pull each later entry of the probe run back
  // into the hole unless its home lies cyclically in (hole, entry].
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].members != 0;
       j = (j + 1) & mask) {
    const std::size_t k = home(slots_[j].target, slots_[j].background);
    if (((j - k) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = entry{};
  --live_;
}

void count_class_table::settle_first(std::uint64_t target,
                                     std::uint64_t background,
                                     node_id r) const {
  if (in_grid(target, background)) {
    const cell& c = grid_[index(target, background)];
    ANONPATH_EXPECTS(c.members != 0 && c.first <= r);
    c.first = r;
  } else {
    const entry& e = slots_[find(target, background)];
    ANONPATH_EXPECTS(e.members != 0 && e.first <= r);
    e.first = r;
  }
}

sda_attack::sda_attack(std::uint32_t receiver_count)
    : disclosure_attack(receiver_count),
      target_counts_(receiver_count, 0),
      background_counts_(receiver_count, 0) {}

void sda_attack::observe_round(const round_observation& round) {
  // Zero deliveries is loss, not evidence (family-wide rule, see
  // intersection_attack): counting such a round would dilute the mean
  // batch size m-bar that the background subtraction scales by.
  if (round.receivers.empty()) return;
  for (node_id v : round.receivers) ANONPATH_EXPECTS(v < receiver_count_);
  // Each delivery moves its receiver to the next count class; receivers
  // never seen in a target round stay out of the classes (target 0).
  if (round.target_present) {
    for (node_id v : round.receivers) {
      const std::uint64_t t = target_counts_[v]++;
      const std::uint64_t b = background_counts_[v];
      classes_.leave(t, b);
      classes_.join(t + 1, b, v);
    }
    ++target_rounds_;
    target_messages_ += round.receivers.size();
  } else {
    for (node_id v : round.receivers) {
      const std::uint64_t t = target_counts_[v];
      const std::uint64_t b = background_counts_[v]++;
      classes_.leave(t, b);
      classes_.join(t, b + 1, v);
    }
    ++background_rounds_;
    background_messages_ += round.receivers.size();
  }
}

double sda_attack::mean_batch() const {
  return static_cast<double>(target_messages_) /
         static_cast<double>(target_rounds_);
}

double sda_attack::signal_of(std::uint64_t target_count,
                             std::uint64_t background_count,
                             double mbar) const {
  const double p_target = static_cast<double>(target_count) /
                          static_cast<double>(target_messages_);
  // No background rounds yet: fall back to the uniform prior for q̂ (the
  // subtraction then just recenters; evidence still ranks receivers).
  const double q = background_messages_ > 0
                       ? static_cast<double>(background_count) /
                             static_cast<double>(background_messages_)
                       : 1.0 / static_cast<double>(receiver_count_);
  return mbar * p_target - (mbar - 1.0) * q;
}

std::vector<double> sda_attack::signal() const {
  std::vector<double> out(receiver_count_, 0.0);
  if (target_messages_ == 0) return out;
  const double mbar = mean_batch();
  for (std::uint32_t r = 0; r < receiver_count_; ++r)
    out[r] = signal_of(target_counts_[r], background_counts_[r], mbar);
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
  const auto uniform = [this] {
    return std::vector<double>(receiver_count_,
                               1.0 / static_cast<double>(receiver_count_));
  };
  if (target_messages_ == 0) return uniform();
  const double mbar = mean_batch();
  if (mbar < 1.0) {
    // Receivers outside the classes may carry mass: normalize densely.
    std::vector<double> post = signal();
    stats::exact_sum z;
    for (double& p : post) {
      if (p < 0.0) p = 0.0;
      z.add(p);
    }
    const double norm = z.value();
    if (norm <= 0.0) return uniform();
    for (double& p : post) p /= norm;
    return post;
  }
  // m̄ >= 1: receivers outside the classes are +0, so the classes give the
  // exactly rounded normalizer, and each grid class's mass is one division
  // shared by all its members.
  const class_weights cw = weight_classes(mbar);
  const double norm = class_normalizer(cw.classes);
  if (norm <= 0.0) return uniform();
  const auto mass = [&](double w) { return std::max(w, 0.0) / norm; };
  constexpr std::uint64_t side = count_class_table::k_side;
  std::array<double, side * side> grid_mass{};
  for (std::size_t i = 0; i < cw.classes.size(); ++i) {
    const auto [t, b] = cw.keys[i];
    if (t < side && b < side)
      grid_mass[b * side + t] = mass(cw.classes[i].weight);
  }
  std::vector<double> post(receiver_count_, 0.0);
  for (std::uint32_t r = 0; r < receiver_count_; ++r) {
    const std::uint64_t t = target_counts_[r];
    const std::uint64_t b = background_counts_[r];
    if (t == 0) continue;
    post[r] = t < side && b < side ? grid_mass[b * side + t]
                                   : mass(signal_of(t, b, mbar));
  }
  return post;
}

sda_attack::class_weights sda_attack::weight_classes(double mbar) const {
  class_weights out;
  classes_.for_each([&](std::uint64_t t, std::uint64_t b,
                        std::uint64_t members, node_id first) {
    if (target_counts_[first] != t || background_counts_[first] != b)
      out.stale.push_back(out.classes.size());
    out.classes.push_back({signal_of(t, b, mbar), members, first});
    out.keys.push_back({t, b});
  });
  return out;
}

node_id sda_attack::first_with(std::uint64_t target_count,
                               std::uint64_t background_count,
                               node_id from) const {
  node_id r = from;
  while (target_counts_[r] != target_count ||
         background_counts_[r] != background_count) {
    ++r;
    ANONPATH_ENSURES(r < receiver_count_);
  }
  return r;
}

trajectory_point sda_attack::summarize(std::uint32_t round,
                                       double identified_threshold) const {
  if (target_messages_ == 0)
    return summarize_uniform(receiver_count_, round, identified_threshold);
  if (mean_batch() < 1.0)
    return disclosure_attack::summarize(round, identified_threshold);
  class_weights cw = weight_classes(mean_batch());
  std::vector<weight_class>& classes = cw.classes;
  // Only the classes reaching the top normalized mass can name the argmax,
  // so only they need their smallest member rescanned.
  if (!cw.stale.empty()) {
    const double z = class_normalizer(classes);
    double top = 0.0;
    for (const weight_class& c : classes) top = std::max(top, c.weight / z);
    for (const std::size_t i : cw.stale) {
      weight_class& c = classes[i];
      if (z > 0.0 && c.weight / z == top) {
        const auto [t, b] = cw.keys[i];
        c.first = first_with(t, b, c.first);
        classes_.settle_first(t, b, c.first);
      }
    }
  }
  if (auto pt = summarize_classes(classes, round, identified_threshold))
    return *pt;
  return summarize_uniform(receiver_count_, round, identified_threshold);
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
    if (tc > 0) out.classes_.join(tc, c - tc, r);
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
