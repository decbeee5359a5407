#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

namespace anonpath::stats {

/// The most threads any pool or parallel loop runs.
inline constexpr unsigned max_threads = 256;

/// The one reading of a thread request: 0 means hardware concurrency (at
/// least 1), and every request is capped at max_threads, so a runaway value
/// (e.g. a wrapped negative) never asks the OS for thousands of threads.
/// thread_pool, parallel_for and every caller that sizes per-worker state
/// use it.
[[nodiscard]] unsigned resolve_thread_count(unsigned requested) noexcept;

/// A small reusable fixed-size worker pool for data-parallel loops.
///
/// The pool owns `worker_count() - 1` background threads; the thread that
/// calls `parallel_for` participates as the last worker, so a pool of size T
/// runs loop bodies on exactly T concurrent threads and a pool of size 1
/// degenerates to an inline serial loop with zero synchronization.
///
/// Scheduling is dynamic (workers claim the next index from a shared atomic
/// counter), so callers that need deterministic results must make each index
/// self-contained — e.g. give every index its own rng stream and write to its
/// own output slot — and reduce the slots in index order afterwards. The
/// Monte-Carlo engine follows exactly this pattern to stay bit-identical
/// across thread counts.
class thread_pool {
 public:
  /// Spawns `resolve_thread_count(thread_count) - 1` workers.
  explicit thread_pool(unsigned thread_count = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Total concurrency, including the calling thread.
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(index, worker) for every index in [0, count), distributing
  /// indices dynamically over all workers. `worker` is a stable id in
  /// [0, worker_count()) identifying which thread runs the body — use it to
  /// index per-thread scratch state (the same worker id is never active on
  /// two threads at once). Blocks until every index completes; the first
  /// exception thrown by any body is rethrown here (remaining indices are
  /// abandoned). Not reentrant: bodies must not call parallel_for on the
  /// same pool.
  void parallel_for(std::uint64_t count,
                    const std::function<void(std::uint64_t, unsigned)>& body);

 private:
  void worker_loop(unsigned worker_id);
  void run_indices(unsigned worker_id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::uint64_t, unsigned)>* body_ = nullptr;
  std::uint64_t count_ = 0;
  std::atomic<std::uint64_t> next_{0};
  unsigned active_ = 0;        // background workers still inside the job
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

/// One-shot convenience: runs body(index, worker) over [0, count) on up to
/// `resolve_thread_count(threads)` threads without keeping a pool around.
/// One thread runs inline.
void parallel_for(unsigned threads, std::uint64_t count,
                  const std::function<void(std::uint64_t, unsigned)>& body);

}  // namespace anonpath::stats
