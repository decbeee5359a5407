#include "src/stats/thread_pool.hpp"

#include <algorithm>

namespace anonpath::stats {

unsigned resolve_thread_count(unsigned requested) noexcept {
  if (requested == 0) requested = std::thread::hardware_concurrency();
  return std::clamp(requested, 1u, max_threads);
}

thread_pool::thread_pool(unsigned thread_count) {
  const unsigned total = resolve_thread_count(thread_count);
  workers_.reserve(total - 1);
  for (unsigned id = 0; id + 1 < total; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

thread_pool::~thread_pool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::run_indices(unsigned worker_id) {
  for (;;) {
    const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return;
    try {
      (*body_)(i, worker_id);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      // Abandon the remaining indices so the job drains quickly.
      next_.store(count_, std::memory_order_relaxed);
      return;
    }
  }
}

void thread_pool::worker_loop(unsigned worker_id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    run_indices(worker_id);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
    }
    done_cv_.notify_one();
  }
}

void thread_pool::parallel_for(
    std::uint64_t count,
    const std::function<void(std::uint64_t, unsigned)>& body) {
  if (count == 0) return;
  const unsigned caller_id = static_cast<unsigned>(workers_.size());
  if (workers_.empty() || count == 1) {
    for (std::uint64_t i = 0; i < count; ++i) body(i, caller_id);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    active_ = static_cast<unsigned>(workers_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  run_indices(caller_id);  // the calling thread is the last worker
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
    body_ = nullptr;
    if (error_) {
      auto err = error_;
      error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

void parallel_for(unsigned threads, std::uint64_t count,
                  const std::function<void(std::uint64_t, unsigned)>& body) {
  const unsigned total = resolve_thread_count(threads);
  if (total <= 1 || count <= 1) {
    for (std::uint64_t i = 0; i < count; ++i) body(i, 0);
    return;
  }
  thread_pool pool(std::min<std::uint64_t>(total, count));
  pool.parallel_for(count, body);
}

}  // namespace anonpath::stats
