// Benchmark-side driver for the per-layer (traced) run.
//
//   perfbench_driver campaign|attack|plan <the job's anonpath flags>
//                    --out FILE [--metrics FILE]
//
// It takes the same flags as the `anonpath` CLI job it stands for, calls the
// same layers' public functions on the same inputs, and writes the job's
// result to --out in the CLI's own format (campaign CSV, attack trajectory
// CSV, plan summary lines), so the runner can check that it did the same
// work. With --metrics every layer call sits inside an obs::span and the
// spans and counters are written as anonpath-metrics v1 JSONL; without it
// the spans are inert. The last stdout line is a JSON object whose
// `job_s` is the wall time of the calls that reproduce the CLI job; the
// attack job adds `target_receiver`, the receiver of the tracked pair.
//
// Only the flags the benchmark's workloads use are accepted; anything else
// exits 2, so a workload edit that the driver cannot mirror fails loudly.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/anonymity/path_sampler.hpp"
#include "src/attack/online.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/crypto/onion.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/obs/jsonl.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/rng.hpp"
#include "src/workload/population.hpp"
#include "src/workload/streaming.hpp"

namespace {

using namespace anonpath;
using clock_type = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Flags as given: `--name value` pairs (repeatable) and bare switches.
struct flags {
  std::map<std::string, std::vector<std::string>> values;
  std::set<std::string> switches;

  [[nodiscard]] const std::string& one(const std::string& name) const {
    const auto it = values.find(name);
    if (it == values.end() || it->second.size() != 1)
      die("expected exactly one " + name);
    return it->second.front();
  }
  [[nodiscard]] std::string one_or(const std::string& name,
                                   const std::string& fallback) const {
    return values.count(name) != 0 ? one(name) : fallback;
  }
};

flags parse_flags(int argc, char** argv, const std::set<std::string>& valued,
                  const std::set<std::string>& bare) {
  flags f;
  for (int i = 2; i < argc; ++i) {
    const std::string name = argv[i];
    if (bare.count(name) != 0) {
      f.switches.insert(name);
    } else if (valued.count(name) != 0) {
      if (i + 1 >= argc) die("missing value for " + name);
      f.values[name].push_back(argv[++i]);
    } else {
      die("unsupported flag " + name);
    }
  }
  if (f.values.count("--out") == 0) die("--out FILE is required");
  return f;
}

std::uint64_t to_u64(const std::string& tok) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (tok.empty() || tok[0] == '-' || *end != '\0' || errno == ERANGE)
    die("bad unsigned integer '" + tok + "'");
  return v;
}

std::uint32_t to_u32(const std::string& tok) {
  const std::uint64_t v = to_u64(tok);
  if (v > std::numeric_limits<std::uint32_t>::max())
    die("value out of range '" + tok + "'");
  return static_cast<std::uint32_t>(v);
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::stringstream in(s);
  for (std::string tok; std::getline(in, tok, delim);) out.push_back(tok);
  return out;
}

std::vector<std::uint32_t> u32_list(const std::string& s) {
  std::vector<std::uint32_t> out;
  for (const std::string& tok : split(s, ',')) out.push_back(to_u32(tok));
  return out;
}

/// The two --dist forms the campaign workload uses: F:l and U:a,b.
path_length_distribution parse_dist(const std::string& spec) {
  if (spec.rfind("F:", 0) == 0)
    return path_length_distribution::fixed(
        static_cast<path_length>(to_u32(spec.substr(2))));
  if (spec.rfind("U:", 0) == 0) {
    const std::vector<std::uint32_t> ab = u32_list(spec.substr(2));
    if (ab.size() != 2) die("bad --dist " + spec);
    return path_length_distribution::uniform(
        static_cast<path_length>(ab[0]), static_cast<path_length>(ab[1]));
  }
  die("unsupported --dist " + spec);
}

/// Owns the tracer when --metrics is given; spans are inert otherwise.
struct telemetry {
  explicit telemetry(const flags& f)
      : path(f.one_or("--metrics", "")),
        tracer(path.empty() ? nullptr : &spans) {}

  void write() const {
    if (!path.empty())
      obs::write_metrics_file(path, registry.snapshot(), spans.spans());
  }

  std::string path;
  obs::tracer spans;
  obs::tracer* tracer;
  obs::metrics_registry registry;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) die("cannot write " + path);
}

// ---- campaign ---------------------------------------------------------------

/// Mirrors run_campaign's per-cell fold (campaign.cpp reduce_cell) for the
/// fields this workload's cells fill: no sessions, no retries.
sim::campaign_cell reduce_cell(const sim::scenario& s, std::uint32_t replicas,
                               const sim::sim_report* reports,
                               const std::string* errors) {
  sim::campaign_cell agg;
  agg.scene = s;
  agg.replicas = replicas;
  for (std::uint32_t rep = 0; rep < replicas; ++rep) {
    if (!errors[rep].empty()) {
      if (agg.error.empty()) agg.error = errors[rep];
      continue;
    }
    const sim::sim_report& r = reports[rep];
    agg.submitted += r.submitted;
    agg.delivered += r.delivered;
    agg.delivered_fraction.add(static_cast<double>(r.delivered) /
                               static_cast<double>(r.submitted));
    if (r.end_to_end_latency.count() > 0)
      agg.latency_seconds.add(r.end_to_end_latency.mean());
    if (r.realized_hops.count() > 0) agg.hops.add(r.realized_hops.mean());
    if (s.mode == routing_mode::source_routed &&
        !std::isnan(r.empirical_entropy_bits)) {
      agg.entropy_bits.add(r.empirical_entropy_bits);
      agg.identified_fraction.add(r.identified_fraction);
      agg.top1_accuracy.add(r.top1_accuracy);
    }
  }
  return agg;
}

/// One onion run's messages as (sender, realised intermediate hops).
using onion_run = std::vector<std::pair<node_id, std::uint32_t>>;

/// Wraps and peels every message of the onion runs again, outside the job:
/// the simulator's own wrap/peel calls sit inside sim.run_core, so this
/// pass measures the crypto layer on the same route lengths. Route node
/// ids are not in the trace; any distinct non-sender ids cost the same.
void crypto_probe(const std::vector<onion_run>& runs, std::uint32_t n,
                  telemetry& t) {
  const crypto::key_registry keys(1, n);
  std::uint64_t layers = 0, bytes = 0, messages = 0;
  for (const onion_run& run : runs) {
    obs::span s(t.tracer, "crypto.onion");
    std::uint64_t id = 0;
    for (const auto& [sender, hops] : run) {
      route r;
      r.sender = sender;
      for (std::uint32_t h = 1; h <= hops; ++h)
        r.hops.push_back((sender + h) % n);
      const std::string text = "message-" + std::to_string(++id);
      std::vector<std::byte> payload(text.size());
      std::transform(text.begin(), text.end(), payload.begin(),
                     [](char c) { return static_cast<std::byte>(c); });
      crypto::onion_envelope env =
          crypto::wrap_onion(r, std::move(payload), keys, id);
      bytes += env.data.size();
      for (node_id hop : r.hops) {
        crypto::peel_result p = crypto::peel_onion(hop, env, keys, id);
        env = std::move(p.inner);
        bytes += env.data.size();
      }
      if (crypto::open_at_receiver(env, keys, id).size() != text.size())
        die("onion round trip lost payload bytes");
      layers += r.hops.size() + 1;
      ++messages;
    }
  }
  t.registry.add_counter("crypto.onion_layers", layers);
  t.registry.add_counter("crypto.onion_bytes", bytes);
  t.registry.add_counter("crypto.onion_messages", messages);
}

/// The seed run_campaign gives run `replica` of cell `cell`.
std::uint64_t run_seed(std::uint64_t master_seed, std::uint64_t cell,
                       std::uint32_t replicas, std::uint32_t replica) {
  return stats::rng::stream(master_seed, cell * replicas + replica)
      .next_u64();
}

/// Captures every run again, untimed, for what the inline path does not
/// expose: the adversary's event count and each onion message's realised
/// hop count, which the crypto probe then re-wraps.
void capture_probe(const std::vector<sim::scenario>& cells,
                   const sim::campaign_grid& grid, std::uint32_t replicas,
                   std::uint64_t master_seed, telemetry& t) {
  std::uint64_t events = 0;
  std::vector<onion_run> onion_runs;
  std::uint32_t onion_n = 0;
  for (std::uint64_t c = 0; c < cells.size(); ++c) {
    const sim::scenario& s = cells[c];
    for (std::uint32_t rep = 0; rep < replicas; ++rep) {
      const sim::sim_trace trace = sim::capture_trace(sim::scenario_config(
          s, grid, run_seed(master_seed, c, replicas, rep)));
      events += trace.events.size();
      if (s.mode != routing_mode::source_routed) continue;
      onion_run run;
      run.reserve(trace.truths.size());
      for (const sim::message_truth& m : trace.truths)
        run.emplace_back(m.outcome.origin, m.outcome.hops);
      onion_runs.push_back(std::move(run));
      onion_n = std::max(onion_n, s.node_count);
    }
  }
  t.registry.add_counter("sim.adversary_events", events);
  crypto_probe(onion_runs, onion_n, t);
}

/// Runs every (cell, replica) of the grid on one thread, whatever --threads
/// says: spans come from one tracer, and the runner compares the total with
/// the CLI's wall at its thread count. Each run is the CLI's inline path,
/// sim::run_simulation, whose own sim.run / sim.run_core / sim.score spans
/// land in the driver's tracer.
void run_campaign(const flags& f, telemetry& t, double& job_s, std::string&) {
  sim::campaign_grid grid;
  grid.node_counts = u32_list(f.one("--n"));
  grid.compromised_counts = u32_list(f.one("--c"));
  grid.lengths.clear();
  for (const std::string& d : f.values.at("--dist"))
    grid.lengths.push_back(parse_dist(d));
  grid.modes.clear();
  for (const std::string& m : split(f.one("--mode"), ',')) {
    if (m == "onion") grid.modes.push_back(routing_mode::source_routed);
    else if (m == "crowds") grid.modes.push_back(routing_mode::hop_by_hop);
    else die("unsupported --mode " + m);
  }
  grid.message_count = to_u32(f.one("--messages"));
  const std::uint32_t replicas = to_u32(f.one("--replicas"));
  const std::uint64_t master_seed = to_u64(f.one("--seed"));

  const auto t0 = clock_type::now();
  std::ostringstream csv;
  std::vector<sim::scenario> cells;
  {
    obs::span job(t.tracer, "perfbench.campaign");
    cells = sim::expand_grid(grid);
    sim::campaign_result result;
    result.requested_cells = grid.cell_count();
    result.skipped_cells = result.requested_cells - cells.size();
    result.runs = cells.size() * replicas;
    std::uint64_t memo_hits = 0, memo_misses = 0;
    std::vector<sim::sim_report> reports(replicas);
    std::vector<std::string> errors(replicas);
    for (std::uint64_t c = 0; c < cells.size(); ++c) {
      const sim::scenario& s = cells[c];
      for (std::uint32_t rep = 0; rep < replicas; ++rep) {
        errors[rep].clear();
        try {
          sim::sim_config cfg = sim::scenario_config(
              s, grid, run_seed(master_seed, c, replicas, rep));
          cfg.tracer = t.tracer;
          reports[rep] = sim::run_simulation(cfg);
          memo_hits += reports[rep].memo_hits;
          memo_misses += reports[rep].memo_misses;
        } catch (const std::exception& e) {
          errors[rep] = *e.what() ? e.what() : "unknown error";
        }
      }
      result.cells.push_back(
          reduce_cell(s, replicas, reports.data(), errors.data()));
    }
    sim::write_csv(result, csv);
    t.registry.add_counter("attack.memo_hits", memo_hits);
    t.registry.add_counter("attack.memo_misses", memo_misses);
  }
  job_s = seconds_since(t0);
  write_file(f.one("--out"), csv.str());
  if (t.tracer != nullptr)
    capture_probe(cells, grid, replicas, master_seed, t);
}

// ---- attack -----------------------------------------------------------------

void run_attack(const flags& f, telemetry& t, double& job_s,
                std::string& extra) {
  if (f.one("--attack") != "sda") die("only --attack sda is supported");
  const std::string stream = f.one("--stream");
  if (stream != "exact" && stream != "sketch")
    die("unsupported --stream " + stream);
  const workload::stream_backend backend =
      stream == "sketch" ? workload::stream_backend::sketch
                         : workload::stream_backend::exact;
  workload::population_config cfg;
  cfg.seed = to_u64(f.one("--seed"));
  cfg.user_count = to_u32(f.one("--users"));
  cfg.receiver_count = cfg.user_count;
  cfg.round_count = to_u32(f.one("--rounds"));
  const unsigned threads = to_u32(f.one("--threads"));
  // The CLI's defaults for the flags the workload leaves out.
  const double threshold = 0.99;
  const std::uint32_t stride = std::max(1u, cfg.round_count / 100);
  if (!cfg.valid() || cfg.round_count < 1 || cfg.receiver_count < 2)
    die("attack workload parameters out of range");

  const auto t0 = clock_type::now();
  std::ostringstream csv;
  node_id target_receiver = 0;
  {
    obs::span job(t.tracer, "perfbench.attack");
    const workload::population pop = [&] {
      obs::span span(t.tracer, "workload.population");
      return workload::population(cfg);
    }();
    target_receiver = pop.pairs().front().receiver;
    const node_id target_sender = pop.pairs().front().sender;

    attack::online_config ocfg;
    ocfg.backend = backend;
    ocfg.identified_threshold = threshold;
    // Trajectory points are taken below, under their own span, at the CLI's
    // stride; the session itself never snapshots.
    ocfg.stride = std::numeric_limits<std::uint32_t>::max();
    attack::online_attack online(cfg.receiver_count, ocfg);

    std::vector<attack::trajectory_point> trajectory;
    std::vector<attack::round_observation> batch;
    std::uint64_t messages = 0;
    for (std::uint32_t lo = 0; lo < cfg.round_count; lo += stride) {
      const std::uint32_t hi = std::min(cfg.round_count, lo + stride);
      {
        obs::span span(t.tracer, "workload.round_gen");
        batch.resize(hi - lo);
        for (std::uint32_t r = lo; r < hi; ++r) {
          workload::round_batch b = pop.round(r);
          attack::round_observation& o = batch[r - lo];
          o.target_present = std::find(b.senders.begin(), b.senders.end(),
                                       target_sender) != b.senders.end();
          o.receivers = std::move(b.receivers);
          messages += o.receivers.size();
        }
      }
      {
        obs::span span(t.tracer, "attack.ingest");
        for (const attack::round_observation& o : batch) online.ingest(o);
      }
      obs::span span(t.tracer, "attack.posterior");
      trajectory.push_back(online.snapshot());
    }
    std::size_t posterior_size = 0;
    {
      obs::span span(t.tracer, "attack.posterior");
      posterior_size = online.posterior().size();
    }
    if (posterior_size != cfg.receiver_count)
      die("posterior does not cover the receiver population");

    workload::streaming_config scfg;
    scfg.backend = backend;
    workload::cooccurrence_config ccfg;
    ccfg.threads = threads;
    const workload::streaming_accumulator acc = [&] {
      obs::span span(t.tracer, "workload.accumulate");
      return workload::accumulate_streaming(pop, 0, cfg.round_count, scfg,
                                            ccfg);
    }();

    csv << "round,entropy_bits,top_mass,top_receiver,identified\n";
    char line[128];
    for (const attack::trajectory_point& pt : trajectory) {
      std::snprintf(line, sizeof line, "%u,%.9g,%.9g,%u,%d\n", pt.round,
                    pt.entropy_bits, pt.top_mass, pt.top_receiver,
                    pt.identified ? 1 : 0);
      csv << line;
    }
    t.registry.add_counter("workload.messages", messages);
    t.registry.add_counter("workload.rounds", cfg.round_count);
    t.registry.set_gauge("workload.accumulator_bytes",
                         static_cast<double>(acc.memory_bytes()));
    t.registry.set_gauge("attack.state_bytes",
                         static_cast<double>(online.memory_bytes()));
    if (backend == workload::stream_backend::sketch)
      t.registry.add_counter(
          "attack.sketch.reservoir_evictions",
          static_cast<const attack::sketch_sda_attack&>(online.engine())
              .reservoir_evictions());
  }
  job_s = seconds_since(t0);
  write_file(f.one("--out"), csv.str());
  extra = ", \"target_receiver\": " + std::to_string(target_receiver);
}

// ---- plan -------------------------------------------------------------------

void run_plan(const flags& f, telemetry& t, double& job_s, std::string&) {
  const std::uint32_t n = to_u32(f.one("--n"));
  const std::vector<std::string> topo_spec = split(f.one("--topology"), ':');
  if (topo_spec.size() != 3 || topo_spec[0] != "regular")
    die("--topology must be regular:<d>:<seed>");
  net::topology_config topo_cfg;
  topo_cfg.kind = net::topology_kind::random_regular;
  topo_cfg.degree = to_u32(topo_spec[1]);
  topo_cfg.graph_seed = to_u64(topo_spec[2]);
  if (!topo_cfg.valid_for(n)) die("--topology out of range for --n");
  if (f.switches.count("--csr") == 0 || f.switches.count("--components") == 0)
    die("the plan workload uses --csr --components");
  const std::uint32_t routes = to_u32(f.one("--routes"));
  const std::string routing = f.one("--routing");
  if (routing.rfind("kpaths:", 0) != 0) die("--routing must be kpaths:<k>");
  net::routing_config rcfg;
  rcfg.kind = net::route_select::kpaths;
  rcfg.k = to_u32(routing.substr(7));
  if (!rcfg.valid() || routes < 1 || n < 2) die("plan parameters out of range");
  const node_id source = 0;

  const auto t0 = clock_type::now();
  std::ostringstream out;
  {
    obs::span job(t.tracer, "perfbench.plan");
    const net::topology topo = [&] {
      obs::span span(t.tracer, "net.build");
      return net::topology::make_csr(n, topo_cfg);
    }();
    std::uint32_t components = 0;
    {
      obs::span span(t.tracer, "net.components");
      for (std::uint32_t label : net::connected_components(topo))
        components = std::max(components, label + 1);
    }
    net::plan_counters tree_counters;
    const net::shortest_path_tree tree = [&] {
      obs::span span(t.tracer, "net.dijkstra");
      return net::dijkstra(topo, source, &tree_counters);
    }();
    std::uint64_t reachable = 0;
    for (double d : tree.dist)
      if (d < std::numeric_limits<double>::infinity()) ++reachable;

    // Same draws, in the same order, as the CLI's shortest-route loop, so
    // the kpaths senders below match the CLI's.
    stats::rng gen(to_u64(f.one("--seed")));
    std::uint64_t hop_total = 0;
    for (std::uint32_t i = 0; i < routes; ++i) {
      auto target = static_cast<node_id>(gen.next_below(n - 1));
      if (target >= source) ++target;
      for (node_id v = target; v != source && v != net::no_vertex;
           v = tree.parent[v])
        ++hop_total;
    }

    net::route_planner planner(topo, rcfg);
    std::uint64_t planned_hops = 0, paths = 0;
    for (std::uint32_t i = 0; i < routes; ++i) {
      const auto sender = static_cast<node_id>(gen.next_below(n));
      route r;
      {
        obs::span span(t.tracer, "net.yen");
        r = sample_planned_route(planner, sender, gen);
      }
      planned_hops += r.hops.size();
      // A cache hit: the planner returns the paths the draw chose among.
      paths += planner.plan(sender, r.hops.back()).size();
    }
    const net::plan_counters& yen = planner.counters();
    char line[256];
    std::snprintf(line, sizeof line,
                  "components: %u\nreachable: %llu\n%u shortest routes: mean "
                  "hops %.2f\n%u kpaths routes: mean hops %.2f\n",
                  components, static_cast<unsigned long long>(reachable),
                  routes, static_cast<double>(hop_total) / routes, routes,
                  static_cast<double>(planned_hops) / routes);
    out << line;
    t.registry.add_counter("net.nodes_settled",
                           tree_counters.nodes_settled + yen.nodes_settled);
    t.registry.add_counter("net.edges_scanned",
                           tree_counters.edges_scanned + yen.edges_scanned);
    t.registry.add_counter("net.yen_spur_searches", yen.yen_spur_searches);
    t.registry.add_counter("net.yen_paths", paths);
  }
  job_s = seconds_since(t0);
  write_file(f.one("--out"), out.str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_driver campaign|attack|plan FLAGS");
  const std::string command = argv[1];
  const std::set<std::string> common = {"--out", "--metrics", "--seed",
                                        "--threads"};
  auto with = [&common](std::set<std::string> extra) {
    extra.insert(common.begin(), common.end());
    return extra;
  };
  void (*run)(const flags&, telemetry&, double&, std::string&) = nullptr;
  flags f;
  if (command == "campaign") {
    f = parse_flags(argc, argv,
                    with({"--n", "--c", "--dist", "--mode", "--messages",
                          "--replicas"}),
                    {});
    run = run_campaign;
  } else if (command == "attack") {
    f = parse_flags(argc, argv,
                    with({"--attack", "--users", "--rounds", "--stream"}), {});
    run = run_attack;
  } else if (command == "plan") {
    f = parse_flags(argc, argv, with({"--n", "--topology", "--routes",
                                      "--routing"}),
                    {"--csr", "--components"});
    run = run_plan;
  } else {
    die("unknown command " + command);
  }
  telemetry t(f);
  double job_s = 0.0;
  std::string extra;
  try {
    run(f, t, job_s, extra);
    t.write();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: error: %s\n", e.what());
    return 1;
  }
  std::printf("{\"job_s\": %.9g%s}\n", job_s, extra.c_str());
  return 0;
}
