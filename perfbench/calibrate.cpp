// Times a fixed loop that does not depend on the anonpath code, so the
// runner can tell how fast the host is at the moment it times a job.
//
//   perfbench_calibrate cache|memory|graph
//
// Reads one line per sample from stdin and answers each with
// `wall_s=<s> cpu_s=<s>`: the loop's wall time and its thread's CPU time.
// Exits when stdin closes.
//
// Each loop has the shape of one kind of workload, because a shared host's
// speed changes differently for code bound by the core and code bound by
// memory:
// - cache: a binary heap of timed events plus hash-table lookups over a
//   working set of about 1.3 MB, like the simulator's event loop and memo;
// - memory: random increments into 1e6 counts (8 MB), then passes that
//   turn the counts into a dense posterior, like the attack workloads'
//   accumulation and snapshots over 1e6 receivers;
// - graph: Dijkstra from fixed sources over a random graph of 5000 nodes
//   and 4 arcs each, like route planning's Yen searches.
//
// The work is the same in every sample and every build; only the host's
// speed changes its time. The wall time also grows while the loop waits
// for a CPU, the CPU time only when the CPU itself runs slower. All memory
// is allocated and touched before the first sample, so page faults stay
// out of the timing.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace {

using clock_type = std::chrono::steady_clock;

std::uint64_t next(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 17;
}

struct cache_loop {
  static constexpr std::size_t keys = std::size_t{1} << 15;
  std::vector<std::uint64_t> events;                          // 256 KB heap
  std::vector<std::pair<std::uint64_t, std::uint64_t>> memo;  // 1 MB table

  cache_loop() : memo(2 * keys) { events.reserve(keys); }

  std::uint64_t operator()() {
    const std::size_t mask = memo.size() - 1;
    std::fill(memo.begin(), memo.end(), std::pair<std::uint64_t, std::uint64_t>{});
    events.clear();
    std::uint64_t x = 7, acc = 0;
    const auto later = std::greater<>();
    for (std::size_t i = 0; i < keys; ++i) {
      events.push_back(next(x));
      std::push_heap(events.begin(), events.end(), later);
    }
    for (int i = 0; i < 300000; ++i) {
      std::pop_heap(events.begin(), events.end(), later);
      const std::uint64_t t = events.back();
      events.back() = t + (next(x) & 0xffff);
      std::push_heap(events.begin(), events.end(), later);
      // Linear probing on the event's key; a hit bumps the stored count.
      const std::uint64_t key = t % keys + 1;
      std::size_t slot = (key * 0x9E3779B97F4A7C15ull >> 40) & mask;
      while (memo[slot].first != 0 && memo[slot].first != key) slot = (slot + 1) & mask;
      if (memo[slot].first == 0) memo[slot] = {key, 0};
      acc += memo[slot].second++;
    }
    return acc;
  }
};

struct memory_loop {
  std::vector<std::uint64_t> counts;  // 8 MB: one count per 1e6 receivers
  std::vector<double> posterior;      // 8 MB

  memory_loop() : counts(std::size_t{1} << 20), posterior(counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = i;
  }

  std::uint64_t operator()() {
    std::uint64_t x = 17;
    const std::uint64_t mask = counts.size() - 1;
    for (int i = 0; i < 1500000; ++i) ++counts[next(x) & mask];
    double acc = 0;
    for (int pass = 0; pass < 4; ++pass) {
      std::uint64_t total = 0;
      for (const std::uint64_t c : counts) total += c;
      const double inv = 1.0 / static_cast<double>(total);
      for (std::size_t i = 0; i < counts.size(); ++i) {
        posterior[i] = static_cast<double>(counts[i]) * inv;
        acc += posterior[i] * posterior[i];
      }
    }
    return static_cast<std::uint64_t>(acc * 1e12);
  }
};

struct graph_loop {
  static constexpr std::uint32_t nodes = 5000;
  static constexpr std::uint32_t degree = 4;
  std::vector<std::uint32_t> head;    // node v's arcs: [v*degree, +degree)
  std::vector<std::uint32_t> weight;  // one per arc
  std::vector<std::uint64_t> dist;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;

  // The first arc of v goes to v+1, so every node is reachable; the others
  // and all weights come from a fixed stream, so the graph never changes.
  graph_loop() : head(nodes * degree), weight(nodes * degree), dist(nodes) {
    std::uint64_t x = 13;
    for (std::uint32_t v = 0; v < nodes; ++v) {
      for (std::uint32_t k = 0; k < degree; ++k) {
        head[v * degree + k] =
            k == 0 ? (v + 1) % nodes : static_cast<std::uint32_t>(next(x) % nodes);
        weight[v * degree + k] = 1 + static_cast<std::uint32_t>(next(x) % 16);
      }
    }
    heap.reserve(nodes * degree);
  }

  std::uint64_t operator()() {
    std::uint64_t acc = 0;
    const auto later = std::greater<>();
    for (std::uint32_t i = 0; i < 24; ++i) {
      const std::uint32_t source = i * 197;
      std::fill(dist.begin(), dist.end(), std::numeric_limits<std::uint64_t>::max());
      heap.clear();
      dist[source] = 0;
      heap.emplace_back(0, source);
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const auto [d, v] = heap.back();
        heap.pop_back();
        if (d != dist[v]) continue;
        for (std::uint32_t a = v * degree; a < (v + 1) * degree; ++a) {
          const std::uint64_t nd = d + weight[a];
          if (nd < dist[head[a]]) {
            dist[head[a]] = nd;
            heap.emplace_back(nd, head[a]);
            std::push_heap(heap.begin(), heap.end(), later);
          }
        }
      }
      for (const std::uint64_t d : dist) acc += d;
    }
    return acc;
  }
};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

template <class Loop>
int serve() {
  Loop loop;
  std::uint64_t sink = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    const double cpu0 = thread_cpu_s();
    const auto t0 = clock_type::now();
    sink += loop();
    const double wall = std::chrono::duration<double>(clock_type::now() - t0).count();
    std::printf("wall_s=%.9f cpu_s=%.9f\n", wall, thread_cpu_s() - cpu0);
    std::fflush(stdout);
  }
  // Keeps the loop's results live so the compiler cannot drop them.
  return sink == 42 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* kind = argc == 2 ? argv[1] : "";
  if (std::strcmp(kind, "cache") == 0) return serve<cache_loop>();
  if (std::strcmp(kind, "memory") == 0) return serve<memory_loop>();
  if (std::strcmp(kind, "graph") == 0) return serve<graph_loop>();
  std::fprintf(stderr, "usage: perfbench_calibrate cache|memory|graph\n");
  return 2;
}
