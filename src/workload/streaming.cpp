#include "src/workload/streaming.hpp"

#include <algorithm>

#include "src/stats/contract.hpp"
#include "src/stats/thread_pool.hpp"

namespace anonpath::workload {

const char* stream_backend_label(stream_backend backend) noexcept {
  switch (backend) {
    case stream_backend::exact: return "exact";
    case stream_backend::sketch: return "sketch";
  }
  return "unknown";
}

std::optional<stream_backend> parse_stream_backend(const std::string& label) {
  if (label == "exact") return stream_backend::exact;
  if (label == "sketch") return stream_backend::sketch;
  return std::nullopt;
}

namespace {

/// Sorts rows[sorted, end) into the ascending run rows[0, sorted) and sums
/// rows that share a receiver. Counts are integers, so the result depends
/// only on the multiset of rows, never on how or when they were folded.
void fold_rows(receiver_counts& rows, std::size_t sorted) {
  const auto by_receiver = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  const auto mid = rows.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::sort(mid, rows.end(), by_receiver);
  std::inplace_merge(rows.begin(), mid, rows.end(), by_receiver);
  std::size_t out = 0;
  for (const auto& row : rows) {
    if (out > 0 && rows[out - 1].first == row.first)
      rows[out - 1].second += row.second;
    else
      rows[out++] = row;
  }
  rows.resize(out);
}

}  // namespace

void streaming_accumulator::flat_counts::add(
    const std::vector<node_id>& receivers) {
  for (node_id v : receivers) rows_.emplace_back(v, 1);
  fold_if_due();
}

void streaming_accumulator::flat_counts::append(const flat_counts& other) {
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
  fold_if_due();
}

void streaming_accumulator::flat_counts::fold_if_due() {
  if (rows_.size() - sorted_ < sorted_ || rows_.size() == sorted_) return;
  fold_rows(rows_, sorted_);
  sorted_ = rows_.size();
}

receiver_counts streaming_accumulator::flat_counts::compacted() const {
  receiver_counts out = rows_;
  if (sorted_ < out.size()) fold_rows(out, sorted_);
  return out;
}

streaming_accumulator::streaming_accumulator(std::vector<node_id> pair_senders,
                                             streaming_config cfg)
    : cfg_(cfg), pair_senders_(std::move(pair_senders)) {
  ANONPATH_EXPECTS(cfg_.valid());
  pair_of_sender_.reserve(pair_senders_.size());
  for (std::uint32_t p = 0; p < pair_senders_.size(); ++p)
    pair_of_sender_.emplace_back(pair_senders_[p], p);
  std::sort(pair_of_sender_.begin(), pair_of_sender_.end());
  if (cfg_.backend == stream_backend::exact) {
    exact_pairs_.resize(pair_senders_.size());
  } else {
    global_sketch_.emplace(cfg_.sketch.depth, cfg_.sketch.width,
                           cfg_.sketch.salt);
    sketch_pairs_.reserve(pair_senders_.size());
    for (std::size_t p = 0; p < pair_senders_.size(); ++p)
      sketch_pairs_.push_back(sketch_pair{
          0, 0,
          count_min_sketch(cfg_.sketch.depth, cfg_.sketch.width,
                           cfg_.sketch.salt),
          bottom_k_sample(cfg_.sketch.candidates, cfg_.sketch.salt)});
  }
}

void streaming_accumulator::ingest(const round_batch& batch) {
  ++rounds_;
  messages_ += batch.senders.size();
  if (cfg_.backend == stream_backend::exact) {
    global_.add(batch.receivers);
  } else {
    for (node_id v : batch.receivers) global_sketch_->add(v);
  }
  present_.clear();
  for (node_id s : batch.senders) {
    const auto it =
        std::lower_bound(pair_of_sender_.begin(), pair_of_sender_.end(),
                         std::make_pair(s, std::uint32_t{0}));
    if (it != pair_of_sender_.end() && it->first == s)
      present_.push_back(it->second);
  }
  std::sort(present_.begin(), present_.end());
  present_.erase(std::unique(present_.begin(), present_.end()),
                 present_.end());
  for (std::uint32_t p : present_) {
    if (cfg_.backend == stream_backend::exact) {
      exact_pair& ep = exact_pairs_[p];
      ++ep.target_rounds;
      ep.target_messages += batch.senders.size();
      ep.receivers.add(batch.receivers);
    } else {
      sketch_pair& sp = sketch_pairs_[p];
      ++sp.target_rounds;
      sp.target_messages += batch.senders.size();
      for (std::size_t j = 0; j < batch.receivers.size(); ++j) {
        sp.target.add(batch.receivers[j]);
        sp.candidates.offer(
            batch.receivers[j],
            occurrence_priority(cfg_.sketch.salt, batch.round, j));
      }
    }
  }
}

void streaming_accumulator::merge(const streaming_accumulator& other) {
  ANONPATH_EXPECTS(cfg_ == other.cfg_ &&
                   pair_senders_ == other.pair_senders_);
  rounds_ += other.rounds_;
  messages_ += other.messages_;
  if (cfg_.backend == stream_backend::exact) {
    global_.append(other.global_);
    for (std::size_t p = 0; p < exact_pairs_.size(); ++p) {
      exact_pairs_[p].target_rounds += other.exact_pairs_[p].target_rounds;
      exact_pairs_[p].target_messages +=
          other.exact_pairs_[p].target_messages;
      exact_pairs_[p].receivers.append(other.exact_pairs_[p].receivers);
    }
  } else {
    global_sketch_->merge(*other.global_sketch_);
    for (std::size_t p = 0; p < sketch_pairs_.size(); ++p) {
      sketch_pairs_[p].target_rounds += other.sketch_pairs_[p].target_rounds;
      sketch_pairs_[p].target_messages +=
          other.sketch_pairs_[p].target_messages;
      sketch_pairs_[p].target.merge(other.sketch_pairs_[p].target);
      sketch_pairs_[p].candidates.merge(other.sketch_pairs_[p].candidates);
    }
  }
}

std::uint64_t streaming_accumulator::target_rounds(std::uint32_t pair) const {
  ANONPATH_EXPECTS(pair < pair_senders_.size());
  return cfg_.backend == stream_backend::exact
             ? exact_pairs_[pair].target_rounds
             : sketch_pairs_[pair].target_rounds;
}

std::uint64_t streaming_accumulator::target_messages(
    std::uint32_t pair) const {
  ANONPATH_EXPECTS(pair < pair_senders_.size());
  return cfg_.backend == stream_backend::exact
             ? exact_pairs_[pair].target_messages
             : sketch_pairs_[pair].target_messages;
}

cooccurrence_result streaming_accumulator::totals() const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::exact);
  cooccurrence_result out;
  out.rounds = rounds_;
  out.messages = messages_;
  out.global_receiver_counts = global_.compacted();
  out.per_pair.resize(exact_pairs_.size());
  for (std::size_t p = 0; p < exact_pairs_.size(); ++p) {
    out.per_pair[p].target_rounds = exact_pairs_[p].target_rounds;
    out.per_pair[p].target_messages = exact_pairs_[p].target_messages;
    out.per_pair[p].target_receiver_counts =
        exact_pairs_[p].receivers.compacted();
  }
  return out;
}

std::uint64_t streaming_accumulator::estimate_global(node_id receiver) const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  return global_sketch_->estimate(receiver);
}

std::uint64_t streaming_accumulator::estimate_target(std::uint32_t pair,
                                                     node_id receiver) const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  ANONPATH_EXPECTS(pair < pair_senders_.size());
  return sketch_pairs_[pair].target.estimate(receiver);
}

std::vector<node_id> streaming_accumulator::candidate_receivers(
    std::uint32_t pair) const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  ANONPATH_EXPECTS(pair < pair_senders_.size());
  std::vector<node_id> out;
  for (std::uint64_t key : sketch_pairs_[pair].candidates.keys())
    out.push_back(static_cast<node_id>(key));
  return out;
}

bool streaming_accumulator::candidates_saturated(std::uint32_t pair) const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  ANONPATH_EXPECTS(pair < pair_senders_.size());
  return sketch_pairs_[pair].candidates.saturated();
}

std::uint64_t streaming_accumulator::global_error_bound() const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  return global_sketch_->error_bound();
}

std::uint64_t streaming_accumulator::target_error_bound(
    std::uint32_t pair) const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  ANONPATH_EXPECTS(pair < pair_senders_.size());
  return sketch_pairs_[pair].target.error_bound();
}

const count_min_sketch& streaming_accumulator::global_sketch() const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  return *global_sketch_;
}

const count_min_sketch& streaming_accumulator::target_sketch(
    std::uint32_t pair) const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  ANONPATH_EXPECTS(pair < pair_senders_.size());
  return sketch_pairs_[pair].target;
}

const bottom_k_sample& streaming_accumulator::candidate_sample(
    std::uint32_t pair) const {
  ANONPATH_EXPECTS(cfg_.backend == stream_backend::sketch);
  ANONPATH_EXPECTS(pair < pair_senders_.size());
  return sketch_pairs_[pair].candidates;
}

std::size_t streaming_accumulator::memory_bytes() const {
  std::size_t bytes = sizeof(*this) +
                      pair_of_sender_.capacity() *
                          sizeof(std::pair<node_id, std::uint32_t>);
  if (cfg_.backend == stream_backend::exact) {
    bytes += global_.memory_bytes();
    for (const exact_pair& ep : exact_pairs_)
      bytes += sizeof(ep) + ep.receivers.memory_bytes();
  } else {
    bytes += global_sketch_->memory_bytes();
    for (const sketch_pair& sp : sketch_pairs_)
      bytes += sp.target.memory_bytes() + sp.candidates.memory_bytes();
  }
  return bytes;
}

streaming_accumulator accumulate_streaming(const population& pop,
                                           std::uint32_t lo, std::uint32_t hi,
                                           const streaming_config& scfg,
                                           const cooccurrence_config& ccfg) {
  ANONPATH_EXPECTS(lo <= hi && hi <= pop.config().round_count);
  std::vector<node_id> senders;
  senders.reserve(pop.pairs().size());
  for (const persistent_pair& p : pop.pairs()) senders.push_back(p.sender);
  streaming_accumulator out(senders, scfg);
  const std::uint32_t span = hi - lo;
  if (span == 0) return out;  // empty ranges are first-class, not an error
  const std::uint32_t shards =
      ccfg.shard_count != 0 ? std::min(ccfg.shard_count, span)
                            : std::min<std::uint32_t>(span, 256);
  std::vector<streaming_accumulator> locals(shards, out);
  stats::parallel_for(ccfg.threads, shards, [&](std::uint64_t shard,
                                                unsigned) {
    const std::uint32_t s_lo =
        lo + static_cast<std::uint32_t>(shard * span / shards);
    const std::uint32_t s_hi =
        lo + static_cast<std::uint32_t>((shard + 1) * span / shards);
    for (std::uint32_t r = s_lo; r < s_hi; ++r)
      locals[shard].ingest(pop.round(r));
  });
  // Fixed-order reduction on this thread: ascending shard index.
  for (const streaming_accumulator& local : locals) out.merge(local);
  return out;
}

}  // namespace anonpath::workload
