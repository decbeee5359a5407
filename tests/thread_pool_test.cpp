#include "src/stats/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <mutex>

namespace anonpath::stats {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    thread_pool pool(threads);
    EXPECT_EQ(pool.worker_count(), threads);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](std::uint64_t i, unsigned worker) {
      EXPECT_LT(worker, pool.worker_count());
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  thread_pool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(100, [&](std::uint64_t i, unsigned) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, WorkerIdsAreConcurrencySafeSlots) {
  // Two bodies running at once must never share a worker id: per-worker
  // scratch indexed by the id (as the MC engine does) would otherwise race.
  thread_pool pool(4);
  std::vector<std::atomic<int>> in_use(pool.worker_count());
  std::atomic<bool> collision{false};
  pool.parallel_for(1000, [&](std::uint64_t, unsigned worker) {
    if (in_use[worker].exchange(1) != 0) collision = true;
    in_use[worker].store(0);
  });
  EXPECT_FALSE(collision.load());
}

TEST(ThreadPool, ZeroCountIsNoop) {
  thread_pool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::uint64_t, unsigned) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesBodyException) {
  thread_pool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::uint64_t i, unsigned) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<std::uint64_t> count{0};
  pool.parallel_for(32, [&](std::uint64_t, unsigned) { ++count; });
  EXPECT_EQ(count.load(), 32u);
}

TEST(ThreadPool, FreeFunctionSerialAndParallelAgree) {
  std::vector<double> out_serial(500), out_parallel(500);
  parallel_for(1, out_serial.size(), [&](std::uint64_t i, unsigned) {
    out_serial[i] = static_cast<double>(i) * 0.5;
  });
  parallel_for(8, out_parallel.size(), [&](std::uint64_t i, unsigned) {
    out_parallel[i] = static_cast<double>(i) * 0.5;
  });
  EXPECT_EQ(out_serial, out_parallel);
}

TEST(ThreadPool, ResolveThreadCountMapsZeroAndCapsRequests) {
  // Checked on the resolver alone: constructing a pool at these counts
  // would start real threads.
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(resolve_thread_count(0),
            std::clamp(hw == 0 ? 1u : hw, 1u, max_threads));
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(8), 8u);
  EXPECT_EQ(resolve_thread_count(max_threads), max_threads);
  EXPECT_EQ(max_threads, 256u);
  EXPECT_EQ(resolve_thread_count(max_threads + 1), max_threads);
  EXPECT_EQ(resolve_thread_count(100000), 256u);
  EXPECT_EQ(resolve_thread_count(static_cast<unsigned>(-1)), 256u);
}

}  // namespace
}  // namespace anonpath::stats
