#include "src/sim/event_queue.hpp"

#include <algorithm>

#include "src/stats/contract.hpp"

namespace anonpath::sim {

void event_queue::bind(event_kind kind, event_handler& handler) {
  handlers_[static_cast<std::size_t>(kind)] = &handler;
}

void event_queue::schedule_at(sim_time at, event_kind kind,
                              std::uint32_t slot) {
  check(at, kind);
  push(record{at, seq_++, slot, kind});
}

void event_queue::schedule_in(sim_time delay, event_kind kind,
                              std::uint32_t slot) {
  ANONPATH_EXPECTS(delay >= 0.0);
  schedule_at(now_ + delay, kind, slot);
}

std::uint64_t event_queue::reserve(std::uint64_t count) {
  const std::uint64_t first = seq_;
  seq_ += count;
  return first;
}

void event_queue::schedule_reserved(sim_time at, std::uint64_t seq,
                                    event_kind kind, std::uint32_t slot) {
  ANONPATH_EXPECTS(seq < seq_);
  check(at, kind);
  push(record{at, seq, slot, kind});
}

void event_queue::check(sim_time at, event_kind kind) const {
  ANONPATH_EXPECTS(at >= now_);
  ANONPATH_EXPECTS(handlers_[static_cast<std::size_t>(kind)] != nullptr);
}

void event_queue::push(const record& r) {
  heap_.push_back(r);
  std::push_heap(heap_.begin(), heap_.end(), later{});
}

bool event_queue::run_next() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later{});
  const record r = heap_.back();
  heap_.pop_back();
  now_ = r.at;
  ++executed_;
  handlers_[static_cast<std::size_t>(r.kind)]->on_event(r.kind, r.slot);
  return true;
}

bool event_queue::run_until_empty(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (run_next()) {
    if (++fired >= max_events && !heap_.empty()) return false;
  }
  return true;
}

}  // namespace anonpath::sim
