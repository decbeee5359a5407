#include "src/anonymity/monte_carlo.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/anonymity/entropy.hpp"
#include "src/anonymity/observation.hpp"
#include "src/anonymity/posterior.hpp"
#include "src/net/topology_posterior.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"
#include "src/stats/thread_pool.hpp"

namespace anonpath {

namespace {

constexpr std::uint64_t default_shard_count = 16;

/// One canonicalized observation class with its sample multiplicity.
struct obs_class {
  std::string key;
  observation obs;
  std::uint64_t count = 0;
};

/// Phase 1 for one shard: draw `count` routes with `draw(gen)` and group
/// their observations into classes, in first-occurrence order —
/// deterministic regardless of the hash table's internal ordering. No
/// posterior work happens here.
template <class Draw>
std::vector<obs_class> collect_shard(const std::vector<bool>& compromised_flags,
                                     std::uint64_t count, stats::rng gen,
                                     Draw&& draw) {
  observation obs;
  std::string key;
  std::unordered_map<std::string, std::size_t> index;
  std::vector<obs_class> classes;
  for (std::uint64_t i = 0; i < count; ++i) {
    observe_into(draw(gen), compromised_flags, obs);
    obs.key_into(key);
    const auto [it, inserted] = index.try_emplace(key, classes.size());
    if (inserted) {
      classes.push_back({key, obs, 1});  // copies: obs/key are reused buffers
    } else {
      ++classes[it->second].count;
    }
  }
  return classes;
}

/// The model-independent pipeline. `make_draw()` returns one shard's route
/// source (a callable rng& -> const route&); `score(obs, worker)` returns
/// the posterior entropy of an observation on pool worker `worker`.
template <class MakeDraw, class Score>
mc_estimate run_pipeline(const std::vector<bool>& compromised_flags,
                         std::uint64_t samples, std::uint64_t seed,
                         std::uint64_t shard_request, stats::thread_pool& pool,
                         MakeDraw&& make_draw, Score&& score) {
  const std::uint64_t shards = std::min(
      samples, shard_request == 0 ? default_shard_count : shard_request);
  const std::uint64_t per_shard = samples / shards;
  const std::uint64_t remainder = samples % shards;

  // Phase 1: parallel per-shard sampling and grouping (no posteriors).
  std::vector<std::vector<obs_class>> shard_classes(shards);
  pool.parallel_for(shards, [&](std::uint64_t shard, unsigned) {
    shard_classes[shard] = collect_shard(
        compromised_flags, per_shard + (shard < remainder ? 1 : 0),
        stats::rng::stream(seed, shard), make_draw());
  });

  // Phase 2: serial merge in shard order — the class list and all
  // downstream arithmetic are independent of the worker schedule.
  std::unordered_map<std::string, std::size_t> global_index;
  std::vector<obs_class> global;
  for (auto& classes : shard_classes) {
    for (auto& cls : classes) {
      const auto [it, inserted] =
          global_index.try_emplace(cls.key, global.size());
      if (inserted) {
        global.push_back(std::move(cls));
      } else {
        global[it->second].count += cls.count;
      }
    }
    classes.clear();
    classes.shrink_to_fit();
  }

  // Phase 3: parallel scoring, one exact posterior per distinct class.
  std::vector<double> entropy(global.size());
  pool.parallel_for(global.size(), [&](std::uint64_t i, unsigned worker) {
    entropy[i] = score(global[i].obs, worker);
  });

  // Phase 4: weighted reduction in class order.
  stats::running_summary acc;
  for (std::size_t i = 0; i < global.size(); ++i) {
    acc.add_repeated(entropy[i], global[i].count);
  }
  mc_estimate out;
  out.samples = samples;
  out.shards = shards;
  out.distinct_observations = global.size();
  out.degree = acc.mean();
  out.std_error = acc.std_error();
  return out;
}

}  // namespace

mc_estimate estimate_anonymity_degree(const system_params& sys,
                                      const std::vector<node_id>& compromised,
                                      const path_length_distribution& lengths,
                                      std::uint64_t samples, std::uint64_t seed,
                                      const mc_config& config,
                                      const net::topology_config& topo) {
  ANONPATH_EXPECTS(samples > 0);
  // The pool is sized by the thread request, not the shard count: sampling
  // is bounded by its shard items, while scoring fans out over distinct
  // observation classes, which can far exceed the shards. A pool of size 1
  // degenerates to inline serial loops.
  stats::thread_pool pool(stats::resolve_thread_count(config.threads));
  const unsigned workers = pool.worker_count();
  const auto flags_of = [&] {
    std::vector<bool> flags(sys.node_count, false);
    for (node_id c : compromised) flags[c] = true;
    return flags;
  };

  if (topo.kind == net::topology_kind::complete) {
    // Validates sys/compromised/lengths; also the template every worker
    // copies, so the memo tables are built exactly once. The posterior memo
    // and layout scratch are mutable, so each worker owns a copy. (Memo
    // state affects speed only, never values.)
    const posterior_engine base(sys, compromised, lengths);
    std::vector<posterior_engine> engines(workers, base);
    return run_pipeline(
        flags_of(), samples, seed, config.shards, pool,
        [&] {
          return [sampler = route_sampler(sys.node_count, lengths)](
                     stats::rng& gen) mutable -> const route& {
            return sampler.next(gen);
          };
        },
        [&](const observation& obs, unsigned worker) {
          return entropy_bits(engines[worker].sender_posterior(obs));
        });
  }

  // A restricted graph: one shared engine (its scoring is const and
  // allocation-local) and one posterior buffer per worker.
  const net::topology_posterior_engine engine(
      sys, compromised, lengths, net::topology::make(sys.node_count, topo));
  std::vector<std::vector<double>> posteriors(workers);
  return run_pipeline(
      flags_of(), samples, seed, config.shards, pool,
      [&] {
        return [&, r = route{}](stats::rng& gen) mutable -> const route& {
          r.sender = static_cast<node_id>(gen.next_below(sys.node_count));
          const path_length l = lengths.sample(gen);
          sample_topology_route_into(engine.graph(), r.sender, l, gen, r);
          return r;
        };
      },
      [&](const observation& obs, unsigned worker) {
        const bool ok = engine.try_sender_posterior(obs, posteriors[worker]);
        ANONPATH_ENSURES(ok);  // model-generated observations always explain
        return entropy_bits(posteriors[worker]);
      });
}

}  // namespace anonpath
