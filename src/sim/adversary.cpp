#include "src/sim/adversary.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/crypto/correlation.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {

const char* adversary_kind_label(adversary_kind kind) noexcept {
  switch (kind) {
    case adversary_kind::full_coalition: return "full_coalition";
    case adversary_kind::partial_coverage: return "partial_coverage";
    case adversary_kind::timing_correlator: return "timing_correlator";
  }
  return "unknown";
}

std::string adversary_config::label() const {
  if (kind == adversary_kind::partial_coverage) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "partial(f=%g%s)", coverage_fraction,
                  receiver_compromised ? "" : ";honest_r");
    return buf;
  }
  return adversary_kind_label(kind);
}

// ---- base -------------------------------------------------------------------

adversary_model::adversary_model(std::vector<bool> compromised)
    : compromised_(std::move(compromised)) {
  ANONPATH_EXPECTS(!compromised_.empty());
}

std::vector<node_id> adversary_model::compromised_ids() const {
  std::vector<node_id> out;
  for (node_id i = 0; i < compromised_.size(); ++i)
    if (compromised_[i]) out.push_back(i);
  return out;
}

// ---- full coalition ---------------------------------------------------------

full_coalition_model::full_coalition_model(std::vector<bool> compromised)
    : adversary_model(std::move(compromised)) {}

full_coalition_model::per_message& full_coalition_model::entry(
    std::uint64_t msg) {
  if (msg >= log_.size()) log_.resize(msg + 1);
  return log_[msg];
}

void full_coalition_model::note_origin(std::uint64_t msg, node_id sender) {
  ANONPATH_EXPECTS(sender < compromised_.size() && compromised_[sender]);
  entry(msg).origin = sender;
}

void full_coalition_model::note_relay(std::uint64_t msg, sim_time at,
                                      node_id reporter, node_id predecessor,
                                      node_id successor) {
  ANONPATH_EXPECTS(reporter < compromised_.size() && compromised_[reporter]);
  entry(msg).captures.push_back(capture{at, {reporter, predecessor, successor}});
}

void full_coalition_model::note_receipt(std::uint64_t msg, sim_time /*at*/,
                                        node_id predecessor) {
  entry(msg).receiver_predecessor = predecessor;
}

bool full_coalition_model::complete(std::uint64_t msg) const {
  const per_message* pm = find(msg);
  return pm != nullptr && pm->receiver_predecessor.has_value();
}

observation full_coalition_model::assemble(std::uint64_t msg) const {
  if (!full_coalition_model::complete(msg))
    throw std::out_of_range("adversary: message not (fully) observed");
  const per_message& pm = log_[msg];

  observation obs;
  obs.origin = pm.origin;
  std::vector<capture> sorted = pm.captures;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const capture& a, const capture& b) { return a.at < b.at; });
  obs.reports.reserve(sorted.size());
  for (const auto& c : sorted) obs.reports.push_back(c.report);
  obs.receiver_predecessor = *pm.receiver_predecessor;
  return obs;
}

std::vector<std::uint64_t> full_coalition_model::observed_messages() const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t id = 0; id < log_.size(); ++id)
    if (log_[id].receiver_predecessor) out.push_back(id);
  return out;
}

// ---- partial coverage -------------------------------------------------------

partial_coverage_model::partial_coverage_model(std::vector<bool> compromised,
                                               bool receiver_compromised)
    : full_coalition_model(std::move(compromised)),
      receiver_compromised_(receiver_compromised) {}

void partial_coverage_model::note_receipt(std::uint64_t msg, sim_time at,
                                          node_id predecessor) {
  // An honest receiver leaks nothing; the hook still fires because the
  // endpoint cannot know which threat model it lives under.
  if (receiver_compromised_)
    full_coalition_model::note_receipt(msg, at, predecessor);
}

bool partial_coverage_model::complete(std::uint64_t msg) const {
  if (receiver_compromised_) return full_coalition_model::complete(msg);
  const per_message* pm = find(msg);
  return pm != nullptr && (pm->origin.has_value() || !pm->captures.empty());
}

observation partial_coverage_model::assemble(std::uint64_t msg) const {
  if (receiver_compromised_) return full_coalition_model::assemble(msg);
  if (!partial_coverage_model::complete(msg))
    throw std::out_of_range("adversary: message not observed");
  const per_message& pm = log_[msg];

  observation obs;
  obs.origin = pm.origin;
  std::vector<capture> sorted = pm.captures;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const capture& a, const capture& b) { return a.at < b.at; });
  obs.reports.reserve(sorted.size());
  for (const auto& c : sorted) obs.reports.push_back(c.report);
  obs.receiver_observed = false;
  return obs;
}

std::vector<std::uint64_t> partial_coverage_model::observed_messages() const {
  if (receiver_compromised_) return full_coalition_model::observed_messages();
  std::vector<std::uint64_t> out;
  for (std::uint64_t id = 0; id < log_.size(); ++id)
    if (log_[id].origin || !log_[id].captures.empty()) out.push_back(id);
  return out;
}

// ---- timing correlator ------------------------------------------------------

timing_correlator_model::timing_correlator_model(std::vector<bool> compromised,
                                                 latency_params link)
    : adversary_model(std::move(compromised)), link_(link) {
  ANONPATH_EXPECTS(link_.valid());
}

void timing_correlator_model::note_origin(std::uint64_t /*msg*/,
                                          node_id /*sender*/) {
  // An origination event cannot be tied to any delivery without the
  // correlation handle; the correlator discards it.
}

void timing_correlator_model::note_relay(std::uint64_t /*msg*/, sim_time at,
                                         node_id reporter, node_id predecessor,
                                         node_id successor) {
  ANONPATH_EXPECTS(reporter < compromised_.size() && compromised_[reporter]);
  ANONPATH_EXPECTS(!linked_);  // collection must precede analysis
  captures_.push_back(capture{at, reporter, predecessor, successor});
}

void timing_correlator_model::note_receipt(std::uint64_t msg, sim_time at,
                                           node_id predecessor) {
  ANONPATH_EXPECTS(!linked_);
  receipts_.push_back(receipt{at, predecessor, msg});
}

void timing_correlator_model::link() const {
  if (linked_) return;
  linked_ = true;

  // One forwarding step = relay processing + one link traversal.
  const double lo = link_.processing + link_.base;
  const double hi = lo + link_.jitter;

  std::vector<bool> used(captures_.size(), false);

  // Deliveries in time order (receipt order IS time order — the event queue
  // is causal — but sort defensively with the id as a deterministic tie
  // break so replayed logs behave identically).
  std::vector<std::size_t> order(receipts_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (receipts_[a].at != receipts_[b].at)
                       return receipts_[a].at < receipts_[b].at;
                     return receipts_[a].msg < receipts_[b].msg;
                   });

  std::vector<bool> in_chain(compromised_.size(), false);
  for (const std::size_t ri : order) {
    const receipt& r = receipts_[ri];
    std::vector<std::size_t> chain;  // backwards: delivery-adjacent first

    // Seed: the capture whose reporter handed the message to R.
    std::fill(in_chain.begin(), in_chain.end(), false);
    node_id want_reporter = r.predecessor;
    node_id want_successor = receiver_node;
    sim_time later_at = r.at;
    for (;;) {
      double best_score = 0.0;
      std::size_t best = captures_.size();
      for (std::size_t ci = 0; ci < captures_.size(); ++ci) {
        if (used[ci]) continue;
        const capture& c = captures_[ci];
        if (c.reporter != want_reporter || c.successor != want_successor)
          continue;
        // A chain mixing messages could revisit a node; no simple path
        // does, so the correlator refuses such a link outright.
        if (in_chain[c.reporter] ||
            (c.predecessor < in_chain.size() && in_chain[c.predecessor]))
          continue;
        const double score =
            crypto::timing_correlation(c.at, later_at, lo, hi);
        if (score > best_score) {
          best_score = score;
          best = ci;
        }
      }
      if (best == captures_.size()) break;
      used[best] = true;
      chain.push_back(best);
      const capture& c = captures_[best];
      in_chain[c.reporter] = true;
      want_reporter = c.predecessor;
      want_successor = c.reporter;
      later_at = c.at;
      if (want_reporter >= compromised_.size() ||
          !compromised_[want_reporter])
        break;  // the next hop back is honest: nothing more to link
    }

    observation obs;
    obs.gapped = true;
    obs.receiver_predecessor = r.predecessor;
    obs.reports.reserve(chain.size());
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const capture& c = captures_[*it];
      obs.reports.push_back(hop_report{c.reporter, c.predecessor, c.successor});
    }
    assembled_.emplace(r.msg, std::move(obs));
  }
}

bool timing_correlator_model::complete(std::uint64_t msg) const {
  link();
  return assembled_.count(msg) != 0;
}

observation timing_correlator_model::assemble(std::uint64_t msg) const {
  link();
  const auto it = assembled_.find(msg);
  if (it == assembled_.end())
    throw std::out_of_range("adversary: delivery not observed");
  return it->second;
}

std::vector<std::uint64_t> timing_correlator_model::observed_messages() const {
  link();
  std::vector<std::uint64_t> out;
  out.reserve(assembled_.size());
  for (const auto& [id, obs] : assembled_) out.push_back(id);
  return out;
}

// ---- configuration plumbing -------------------------------------------------

std::vector<bool> effective_compromised(const adversary_config& config,
                                        std::uint32_t node_count,
                                        const std::vector<node_id>& configured,
                                        std::uint64_t seed) {
  ANONPATH_EXPECTS(config.valid());
  ANONPATH_EXPECTS(node_count >= 1);
  std::vector<bool> flags(node_count, false);
  if (config.kind == adversary_kind::partial_coverage) {
    // A dedicated stream keyed off the seed: the draw is reproducible and
    // consumes nothing from the simulator's own generator chain.
    stats::rng gen = stats::rng::stream(seed, 0xadbe5a11u);
    for (node_id i = 0; i < node_count; ++i)
      flags[i] = gen.next_bernoulli(config.coverage_fraction);
    return flags;
  }
  for (node_id c : configured) {
    ANONPATH_EXPECTS(c < node_count);
    flags[c] = true;
  }
  return flags;
}

std::unique_ptr<adversary_model> make_adversary_model(
    const adversary_config& config, std::vector<bool> compromised,
    const latency_params& link) {
  ANONPATH_EXPECTS(config.valid());
  switch (config.kind) {
    case adversary_kind::full_coalition:
      return std::make_unique<full_coalition_model>(std::move(compromised));
    case adversary_kind::partial_coverage:
      return std::make_unique<partial_coverage_model>(
          std::move(compromised), config.receiver_compromised);
    case adversary_kind::timing_correlator:
      return std::make_unique<timing_correlator_model>(std::move(compromised),
                                                       link);
  }
  throw std::invalid_argument("unknown adversary kind");
}

}  // namespace anonpath::sim
