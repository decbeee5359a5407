// anonpath — command-line front end to the library.
//
//   anonpath degree   --n 100 --dist F:5            score a strategy
//   anonpath degree   --n 100 --dist U:2,14 --breakdown
//   anonpath estimate --n 100 --c 8 --dist U:1,10 --samples 100000 --threads 0
//   anonpath optimize --n 100 --mean 5              optimal distribution
//   anonpath simulate --n 60 --c 2 --dist U:2,14 --messages 2000
//   anonpath simulate --n 60 --c 2 --adversary partial:0.3:honest
//   anonpath simulate --n 60 --c 2 --topology tiered:3 --churn 0.5:0.5
//   anonpath estimate --n 40 --c 3 --topology ring:4 --samples 50000
//   anonpath campaign --n 30,60 --c 1,4 --dist F:3 --dist U:1,8 \
//                     --drop 0,0.05 --replicas 8 --threads 0   scenario sweep
//   anonpath campaign --n 24 --c 2 --topology complete,ring:2,tiered:3 \
//                     --churn 0,0.5:0.5                 topology/churn axes
//   anonpath simulate --n 60 --c 2 --topology regular:4 --routing kpaths:4
//   anonpath plan     --n 1000000 --topology regular:2 --csr --routes 100
//   anonpath capture  --n 60 --c 2 --dist U:2,14 --out run.trace
//   anonpath replay   --in run.trace                re-score a captured run
//   anonpath attack   --users 100000 --rounds 10000 --round-size 12 \
//                     --attack sda --threads 8      longitudinal disclosure
//   anonpath simulate --n 60 --c 2 --population 20 --rounds 50 --attack bayes
//   anonpath campaign --n 30 --c 2 --population 0,20 --rounds 0,50 \
//                     --attack none,sda             session axes
//   anonpath figures  --n 100                       dump all paper figures
//
// Distribution syntax: F:l | U:a,b | G:pf,min,max (geometric) | P:lambda,max.
// Adversary syntax: full | partial:<f>[:honest] | timing (the coverage
// fraction f in [0,1]; ":honest" leaves the receiver uncompromised).
// Topology syntax: complete | ring:<k> | regular:<d>[:<seed>] | tiered:<t>
// | trust:<decay>; out-of-range parameters (for the given --n) are a hard
// error, never a silent fallback to the clique.
// Routing syntax: walk (default) | kpaths[:<k>] — planned k-shortest-path
// routing (Dijkstra/Yen); requires onion mode and a non-timing adversary.
// Churn syntax: 0 (static) | <down_rate>[:<mean_downtime>] (seconds).
// Retry syntax: <max>[:<timeout>[:<backoff>[:<max_timeout>]]] (0 = off).
// Mix-failure syntax: <count>[:<horizon>[:<mean_duration>]] (0 = off).
// Crash syntax: <node>:<start>:<duration> (repeatable; applies to every
// cell of a campaign, so a node outside some cell's N fails that cell
// into its error column instead of killing the sweep).
// Popularity-law syntax: uniform | zipf:<s> (s > 0).
// Attack syntax: none | intersection | sda | bayes (sequential_bayes).
// Stream-backend syntax: exact | sketch (sketched sda accumulator state:
// count-min counts plus a bottom-k candidate reservoir; sda cells only).
// Campaign axes (--n, --c, --drop, --rate, --mode, --adversary,
// --topology, --routing, --churn, --population, --rounds, --attack) take
// comma-separated lists and --dist may repeat; the campaign runs their
// cartesian product. Out-of-range or unknown values exit loudly (status 2),
// never silently fall back.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <chrono>
#include <thread>

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/monte_carlo.hpp"
#include "src/anonymity/optimizer.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/attack/disclosure.hpp"
#include "src/attack/online.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/net/churn.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
#include "src/net/topology_mc.hpp"
#include "src/obs/jsonl.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/progress.hpp"
#include "src/obs/span.hpp"
#include "src/repro/figures.hpp"
#include "src/sim/campaign.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/error.hpp"
#include "src/workload/cooccurrence.hpp"
#include "src/workload/population.hpp"
#include "src/workload/streaming.hpp"

namespace {

using namespace anonpath;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(
      stderr,
      "usage: anonpath "
      "<degree|estimate|optimize|simulate|campaign|merge|capture|replay"
      "|attack|plan|figures> [options]\n"
      "  common:   --n <nodes>      (default 100)\n"
      "            --c <compromised> (default 1)\n"
      "            --dist F:l | U:a,b | G:pf,min,max | P:lambda,max\n"
      "            --adversary full | partial:<f>[:honest] | timing\n"
      "            --topology complete | ring:<k> | regular:<d>[:<seed>]\n"
      "                       | tiered:<t> | trust:<decay>\n"
      "            --routing walk | kpaths[:<k>]  planned k-shortest-path\n"
      "                      routing (simulate/capture/campaign/plan)\n"
      "            --churn 0 | <down_rate>[:<mean_downtime>]\n"
      "            --retry <max>[:<timeout>[:<backoff>[:<max_timeout>]]]\n"
      "            --mix-failures <count>[:<horizon>[:<mean_duration>]]\n"
      "            --crash <node>:<start>:<duration>  (repeatable)\n"
      "  degree:   [--breakdown]\n"
      "  estimate: [--samples k] [--seed s] [--threads t (0=all cores)]\n"
      "            [--shards k] [--no-dedup]   Monte-Carlo H* for any C\n"
      "            (a restricted --topology uses the walk-model engine)\n"
      "  optimize: --mean <target expected length>\n"
      "  simulate: [--messages k] [--seed s] [--drop p] [--threshold x]\n"
      "            [--population P --rounds R --attack a] session mode\n"
      "            [--stream exact|sketch]  sda accumulator backend\n"
      "  campaign: scenario-grid sweep on the simulator; CSV to stdout.\n"
      "            axes (comma lists): --n --c --drop --rate --adversary\n"
      "            --topology --routing --churn --mix-failures --retry\n"
      "            --population\n"
      "            --rounds --attack --stream; --mode onion,crowds; --dist\n"
      "            may repeat (one spec each)\n"
      "            [--replicas r (default 8)] [--messages k (default 500)]\n"
      "            [--seed s] [--threads t (0=all cores)] [--via-trace]\n"
      "            [--receiver-law uniform|zipf:<s>]\n"
      "            [--checkpoint file [--resume]]  crash-resumable journal\n"
      "            [--shard i/n]  run only cells with index = i mod n\n"
      "            (requires --checkpoint; combine shards with 'merge')\n"
      "  merge:    combine completed shard journals into the unsharded\n"
      "            result: the campaign's grid/config flags (they rebuild\n"
      "            the scope fingerprint) + --input file (repeatable, one\n"
      "            per shard) [--checkpoint file  also write the merged\n"
      "            journal]; CSV to stdout, bit-identical to an unsharded\n"
      "            run\n"
      "  attack:   longitudinal disclosure on a population workload (no\n"
      "            rerouting sim): --attack intersection|sda|bayes plus\n"
      "            [--users U] [--population P (default U)] [--rounds R]\n"
      "            [--pairs M] [--round-size B] [--send-rate p]\n"
      "            [--sender-law L] [--receiver-law L] [--threshold x]\n"
      "            [--seed s] [--every k] [--threads t (sda cross-check)]\n"
      "            [--stream exact|sketch  online conformance report]\n"
      "            trajectory CSV to stdout, summary to stderr\n"
      "  capture:  simulate flags + [--out file (default stdout)]; writes\n"
      "            the adversary's event trace instead of scoring it\n"
      "  replay:   --in file; re-scores a captured trace offline (same\n"
      "            output as simulate, no event-driven re-run)\n"
      "  plan:     graph construction & route-planning diagnostics at scale\n"
      "            (CSR storage, Dijkstra, Yen k-shortest paths): [--csr]\n"
      "            [--components] [--source u] [--routes r (default 100)]\n"
      "            [--routing kpaths[:<k>]] [--seed s]\n"
      "  figures:  (dumps fig3a/3b/4/5/6 series as CSV)\n"
      "  obs:      --metrics <file> (or --metrics=<file>)  write a JSONL\n"
      "            metrics snapshot; --progress  '# progress:' heartbeat\n"
      "            with ETA on stderr. Both apply to simulate, campaign,\n"
      "            attack, plan and merge only; merge --metrics reads each\n"
      "            --input FILE's FILE.metrics sibling and writes their\n"
      "            merged snapshot\n");
  std::exit(2);
}

path_length_distribution parse_dist(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) usage("bad --dist (missing ':')");
  const std::string kind = spec.substr(0, colon);
  const std::string args = spec.substr(colon + 1);
  auto split = [&args]() {
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos <= args.size()) {
      const auto comma = args.find(',', pos);
      const std::string tok =
          args.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (tok.empty()) usage("bad --dist arguments");
      out.push_back(std::strtod(tok.c_str(), nullptr));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return out;
  };
  const auto v = split();
  if (kind == "F" && v.size() == 1)
    return path_length_distribution::fixed(static_cast<path_length>(v[0]));
  if (kind == "U" && v.size() == 2)
    return path_length_distribution::uniform(static_cast<path_length>(v[0]),
                                             static_cast<path_length>(v[1]));
  if (kind == "G" && v.size() == 3)
    return path_length_distribution::geometric(
        v[0], static_cast<path_length>(v[1]), static_cast<path_length>(v[2]));
  if (kind == "P" && v.size() == 2)
    return path_length_distribution::poisson(v[0],
                                             static_cast<path_length>(v[1]));
  usage("unrecognized --dist form");
}

struct options {
  std::string command;
  std::uint32_t n = 100;
  std::uint32_t c = 1;
  std::optional<path_length_distribution> dist;
  double mean = 5.0;
  std::uint32_t messages = 2000;
  bool messages_set = false;
  std::uint64_t seed = 1;
  double drop = 0.0;
  bool breakdown = false;
  std::uint64_t samples = 100000;
  unsigned threads = 0;
  std::uint64_t shards = 0;
  bool dedup = true;
  // Campaign axes: every --n/--c/--drop/--rate value seen (comma lists),
  // every --dist spec, every --mode. Scalar commands read the fields above,
  // which track the first value of each list.
  std::vector<std::uint32_t> n_list;
  std::vector<std::uint32_t> c_list;
  std::vector<path_length_distribution> dist_list;
  std::vector<double> drop_list;
  std::vector<double> rate_list;
  std::vector<routing_mode> mode_list;
  std::vector<sim::adversary_config> adversary_list;
  std::vector<net::topology_config> topology_list;
  std::vector<net::routing_config> routing_list;
  std::vector<net::churn_config> churn_list;
  std::vector<sim::mix_failure_config> mixfail_list;
  std::vector<sim::retry_policy> retry_list;
  std::vector<net::outage> crash_list;
  std::string checkpoint_path;   ///< campaign: journal file ("" = off)
  bool resume = false;           ///< campaign: adopt the journal's prefix
  std::uint32_t shard_index = 0; ///< campaign: this process's shard
  std::uint32_t shard_count = 1; ///< campaign: total shards (--shard i/n)
  bool shard_set = false;
  std::vector<std::string> input_paths;  ///< merge: shard journals
  std::uint32_t replicas = 8;
  bool replicas_set = false;
  double threshold = 0.99;
  bool via_trace = false;
  std::string out_path;  ///< capture: trace destination ("" = stdout)
  std::string in_path;   ///< replay: trace source
  // Session / longitudinal-attack surface.
  std::vector<std::uint32_t> population_list;
  std::vector<std::uint32_t> rounds_list;
  std::vector<attack::attack_kind> attack_list;
  std::vector<workload::stream_backend> stream_list;
  std::uint32_t users = 1000;         ///< attack: sender population
  std::uint32_t pairs = 1;            ///< attack: persistent pairs
  std::uint32_t round_size = 32;      ///< attack: threshold batch size
  double send_rate = 1.0;             ///< attack: per-round pair send prob.
  bool workload_flag_set = false;     ///< any of the four above (or --every)
  workload::popularity_law sender_law{};
  bool sender_law_set = false;
  workload::popularity_law receiver_law{};
  bool receiver_law_set = false;
  std::uint32_t every = 0;            ///< attack: trajectory stride (0=auto)
  // Route-planning diagnostics surface (the 'plan' command).
  bool plan_csr = false;              ///< plan: CSR storage mode
  bool plan_components = false;       ///< plan: run connected components
  std::uint32_t plan_source = 0;      ///< plan: Dijkstra source node
  std::uint32_t plan_routes = 100;    ///< plan: routes to extract/plan
  bool plan_flag_set = false;         ///< any of the four above
  // Observability surface (src/obs). Off by default: no registry, no
  // tracer, no heartbeat — default runs stay byte-identical.
  std::string metrics_path;  ///< --metrics: JSONL snapshot file ("" = off)
  bool progress = false;     ///< --progress: stderr heartbeat with ETA
};

sim::adversary_config parse_adversary(const std::string& spec) {
  sim::adversary_config cfg;
  if (spec == "full") return cfg;
  if (spec == "timing") {
    cfg.kind = sim::adversary_kind::timing_correlator;
    return cfg;
  }
  if (spec.rfind("partial", 0) == 0) {
    cfg.kind = sim::adversary_kind::partial_coverage;
    if (spec.size() == 7) return cfg;  // bare "partial": f = 1
    if (spec[7] != ':') usage("bad --adversary (want partial:<f>[:honest])");
    const auto honest = spec.find(":honest");
    const std::string f = spec.substr(8, honest == std::string::npos
                                             ? honest
                                             : honest - 8);
    char* end = nullptr;
    cfg.coverage_fraction = std::strtod(f.c_str(), &end);
    if (end == f.c_str() || *end != '\0' || !cfg.valid())
      usage("bad --adversary coverage fraction");
    cfg.receiver_compromised = honest == std::string::npos;
    return cfg;
  }
  usage("--adversary values are full|partial:<f>[:honest]|timing");
}

std::vector<std::string> split_on(const std::string& s, char delim);

net::topology_config parse_topology(const std::string& spec) {
  net::topology_config cfg;
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  std::vector<std::string> args;
  if (colon != std::string::npos)
    args = split_on(spec.substr(colon + 1), ':');
  auto as_u32 = [](const std::string& tok) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (tok.empty() || tok[0] == '-' || end == tok.c_str() || *end != '\0' ||
        v > 0xFFFFFFFFull)
      usage("bad --topology parameter (want an unsigned integer)");
    return static_cast<std::uint32_t>(v);
  };
  if (kind == "complete" && args.empty()) return cfg;
  if (kind == "ring" && args.size() == 1) {
    cfg.kind = net::topology_kind::ring;
    cfg.ring_k = as_u32(args[0]);
    if (cfg.ring_k < 1) usage("--topology ring:<k> needs k >= 1");
    return cfg;
  }
  if (kind == "regular" && (args.size() == 1 || args.size() == 2)) {
    cfg.kind = net::topology_kind::random_regular;
    cfg.degree = as_u32(args[0]);
    if (args.size() == 2) {
      // The wiring seed is a full 64-bit value (matches graph_seed and the
      // trace format), unlike the 32-bit structural parameters.
      char* end = nullptr;
      const std::string& tok = args[1];
      errno = 0;
      cfg.graph_seed = std::strtoull(tok.c_str(), &end, 10);
      if (tok.empty() || tok[0] == '-' || end == tok.c_str() ||
          *end != '\0' || errno == ERANGE)
        usage("bad --topology regular seed (want a 64-bit unsigned integer)");
    }
    if (cfg.degree < 2) usage("--topology regular:<d> needs d >= 2");
    return cfg;
  }
  if (kind == "tiered" && args.size() == 1) {
    cfg.kind = net::topology_kind::tiered;
    cfg.tiers = as_u32(args[0]);
    if (cfg.tiers < 2) usage("--topology tiered:<t> needs t >= 2");
    return cfg;
  }
  if (kind == "trust" && args.size() == 1) {
    cfg.kind = net::topology_kind::trust_weighted;
    char* end = nullptr;
    cfg.trust_decay = std::strtod(args[0].c_str(), &end);
    if (end == args[0].c_str() || *end != '\0' || cfg.trust_decay <= 0.0 ||
        cfg.trust_decay > 1.0)
      usage("--topology trust:<decay> needs decay in (0, 1]");
    return cfg;
  }
  usage(
      "--topology values are "
      "complete|ring:<k>|regular:<d>[:<seed>]|tiered:<t>|trust:<decay>");
}

workload::popularity_law parse_law(const std::string& spec) {
  workload::popularity_law law;
  if (spec == "uniform") return law;
  if (spec.rfind("zipf:", 0) == 0) {
    law.kind = workload::popularity_kind::zipf;
    const std::string s = spec.substr(5);
    char* end = nullptr;
    law.exponent = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !law.valid())
      usage("bad popularity law (want zipf:<s> with s > 0)");
    return law;
  }
  usage("popularity-law values are uniform|zipf:<s>");
}

attack::attack_kind parse_attack(const std::string& spec) {
  const auto kind = attack::parse_attack_kind(spec);
  if (!kind) usage("--attack values are none|intersection|sda|bayes");
  return *kind;
}

net::churn_config parse_churn(const std::string& spec) {
  net::churn_config cfg;
  const auto colon = spec.find(':');
  const std::string rate = spec.substr(0, colon);
  char* end = nullptr;
  cfg.down_rate = std::strtod(rate.c_str(), &end);
  if (end == rate.c_str() || *end != '\0' || cfg.down_rate < 0.0)
    usage("bad --churn (want 0 or <down_rate>[:<mean_downtime>])");
  if (colon != std::string::npos) {
    const std::string mean = spec.substr(colon + 1);
    cfg.mean_downtime = std::strtod(mean.c_str(), &end);
    if (end == mean.c_str() || *end != '\0' || cfg.mean_downtime <= 0.0)
      usage("--churn mean downtime must be > 0");
  }
  if (!cfg.valid()) usage("--churn parameters out of range");
  return cfg;
}

double parse_double_or_die(const std::string& tok, const char* what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &end);
  // Finite only: overflow ("1e999" -> HUGE_VAL with ERANGE) and explicit
  // inf/nan spellings are never meaningful values for these flags.
  if (tok.empty() || end == tok.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v))
    usage((std::string("bad ") + what + " (want a finite number)").c_str());
  return v;
}

std::uint32_t parse_u32_or_die(const std::string& tok, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (tok.empty() || tok[0] == '-' || end == tok.c_str() || *end != '\0' ||
      v > 0xFFFFFFFFull)
    usage((std::string("bad ") + what +
           " (want an unsigned 32-bit integer)").c_str());
  return static_cast<std::uint32_t>(v);
}

std::uint64_t parse_u64_or_die(const std::string& tok, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (tok.empty() || tok[0] == '-' || end == tok.c_str() || *end != '\0' ||
      errno == ERANGE)
    usage((std::string("bad ") + what +
           " (want an unsigned 64-bit integer)").c_str());
  return static_cast<std::uint64_t>(v);
}

/// "--shard i/n": i in [0, n), n >= 1. Everything else exits loudly.
void parse_shard(const std::string& spec, options& opt) {
  const auto slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size())
    usage("bad --shard (want i/n, e.g. --shard 0/4)");
  opt.shard_index = parse_u32_or_die(spec.substr(0, slash), "--shard index");
  opt.shard_count = parse_u32_or_die(spec.substr(slash + 1), "--shard count");
  if (opt.shard_count == 0 || opt.shard_index >= opt.shard_count)
    usage("--shard index must be in [0, count) with count >= 1");
  opt.shard_set = true;
}

net::routing_config parse_routing(const std::string& spec) {
  net::routing_config cfg;
  if (spec == "walk") return cfg;
  if (spec == "kpaths" || spec.rfind("kpaths:", 0) == 0) {
    cfg.kind = net::route_select::kpaths;
    if (spec.size() > 6)
      cfg.k = parse_u32_or_die(spec.substr(7), "--routing kpaths k");
    if (!cfg.valid()) usage("--routing kpaths:<k> needs k in [1, 64]");
    return cfg;
  }
  usage("--routing values are walk|kpaths[:<k>]");
}

sim::retry_policy parse_retry(const std::string& spec) {
  sim::retry_policy p;
  const auto args = split_on(spec, ':');
  if (args.empty() || args.size() > 4)
    usage("bad --retry (want <max>[:<timeout>[:<backoff>[:<max_timeout>]]])");
  p.max_retries = parse_u32_or_die(args[0], "--retry max");
  if (args.size() > 1) p.timeout = parse_double_or_die(args[1], "--retry timeout");
  if (args.size() > 2) p.backoff = parse_double_or_die(args[2], "--retry backoff");
  if (args.size() > 3)
    p.max_timeout = parse_double_or_die(args[3], "--retry max_timeout");
  else if (p.max_timeout < p.timeout)
    p.max_timeout = p.timeout;  // an explicit long timeout caps itself
  if (!p.valid())
    usage("--retry parameters out of range (timeout > 0, backoff >= 1, "
          "max_timeout >= timeout)");
  return p;
}

sim::mix_failure_config parse_mixfail(const std::string& spec) {
  sim::mix_failure_config mf;
  const auto args = split_on(spec, ':');
  if (args.empty() || args.size() > 3)
    usage("bad --mix-failures (want <count>[:<horizon>[:<mean_duration>]])");
  mf.count = parse_u32_or_die(args[0], "--mix-failures count");
  if (args.size() > 1)
    mf.horizon = parse_double_or_die(args[1], "--mix-failures horizon");
  if (args.size() > 2)
    mf.mean_duration = parse_double_or_die(args[2], "--mix-failures mean");
  if (!mf.valid())
    usage("--mix-failures parameters out of range (horizon >= 0, "
          "mean_duration > 0)");
  return mf;
}

net::outage parse_crash(const std::string& spec) {
  const auto args = split_on(spec, ':');
  if (args.size() != 3) usage("bad --crash (want <node>:<start>:<duration>)");
  net::outage o;
  o.node = parse_u32_or_die(args[0], "--crash node");
  o.start = parse_double_or_die(args[1], "--crash start");
  o.duration = parse_double_or_die(args[2], "--crash duration");
  if (!o.valid())
    usage("--crash parameters out of range (start >= 0, duration > 0, "
          "both finite)");
  return o;
}

std::vector<std::string> split_on(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto at = s.find(delim, pos);
    const std::string tok =
        s.substr(pos, at == std::string::npos ? at : at - pos);
    if (tok.empty()) usage("empty element in delimited list");
    out.push_back(tok);
    if (at == std::string::npos) break;
    pos = at + 1;
  }
  return out;
}

std::vector<std::string> split_commas(const std::string& s) {
  return split_on(s, ',');
}

std::vector<double> parse_double_list(const char* spec) {
  std::vector<double> out;
  for (const std::string& tok : split_commas(spec)) {
    char* end = nullptr;
    out.push_back(std::strtod(tok.c_str(), &end));
    if (end == tok.c_str() || *end != '\0')
      usage("expected a number in comma list");
  }
  return out;
}

std::vector<std::uint32_t> parse_u32_list(const char* spec) {
  std::vector<std::uint32_t> out;
  for (const std::string& tok : split_commas(spec)) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (tok[0] == '-' || end == tok.c_str() || *end != '\0' ||
        v > 0xFFFFFFFFull)
      usage("expected a 32-bit unsigned integer in comma list");
    out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

options parse(int argc, char** argv) {
  if (argc < 2) usage();
  options opt;
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for flag");
      return argv[++i];
    };
    if (flag == "--n") {
      opt.n_list = parse_u32_list(next());
      opt.n = opt.n_list.front();
    }
    else if (flag == "--c") {
      opt.c_list = parse_u32_list(next());
      opt.c = opt.c_list.front();
    }
    else if (flag == "--dist") {
      opt.dist = parse_dist(next());
      opt.dist_list.push_back(*opt.dist);
    }
    // The scalar numeric flags all go through the checked end-pointer
    // parsers: "--messages foo" or "--threads 4x" must exit loudly, never
    // silently become 0 (the historical atoi behavior) or 4.
    else if (flag == "--mean") opt.mean = parse_double_or_die(next(), "--mean");
    else if (flag == "--messages") {
      opt.messages = parse_u32_or_die(next(), "--messages");
      if (opt.messages == 0) usage("--messages must be > 0");
      opt.messages_set = true;
    }
    else if (flag == "--seed") opt.seed = parse_u64_or_die(next(), "--seed");
    else if (flag == "--drop") {
      opt.drop_list = parse_double_list(next());
      opt.drop = opt.drop_list.front();
    }
    else if (flag == "--rate") opt.rate_list = parse_double_list(next());
    else if (flag == "--mode") {
      for (const std::string& tok : split_commas(next())) {
        if (tok == "onion" || tok == "source_routed")
          opt.mode_list.push_back(routing_mode::source_routed);
        else if (tok == "crowds" || tok == "hop_by_hop")
          opt.mode_list.push_back(routing_mode::hop_by_hop);
        else usage("--mode values are onion|crowds");
      }
    }
    else if (flag == "--adversary") {
      for (const std::string& tok : split_commas(next()))
        opt.adversary_list.push_back(parse_adversary(tok));
    }
    else if (flag == "--topology") {
      for (const std::string& tok : split_commas(next()))
        opt.topology_list.push_back(parse_topology(tok));
    }
    else if (flag == "--churn") {
      for (const std::string& tok : split_commas(next()))
        opt.churn_list.push_back(parse_churn(tok));
    }
    else if (flag == "--retry") {
      for (const std::string& tok : split_commas(next()))
        opt.retry_list.push_back(parse_retry(tok));
    }
    else if (flag == "--mix-failures") {
      for (const std::string& tok : split_commas(next()))
        opt.mixfail_list.push_back(parse_mixfail(tok));
    }
    else if (flag == "--crash") {
      for (const std::string& tok : split_commas(next()))
        opt.crash_list.push_back(parse_crash(tok));
    }
    else if (flag == "--checkpoint") opt.checkpoint_path = next();
    else if (flag == "--resume") opt.resume = true;
    else if (flag == "--shard") parse_shard(next(), opt);
    else if (flag == "--input") opt.input_paths.emplace_back(next());
    else if (flag == "--population")
      opt.population_list = parse_u32_list(next());
    else if (flag == "--rounds") opt.rounds_list = parse_u32_list(next());
    else if (flag == "--attack") {
      for (const std::string& tok : split_commas(next()))
        opt.attack_list.push_back(parse_attack(tok));
    }
    else if (flag == "--stream") {
      for (const std::string& tok : split_commas(next())) {
        const auto backend = workload::parse_stream_backend(tok);
        if (!backend) usage("--stream values are exact|sketch");
        opt.stream_list.push_back(*backend);
      }
    }
    else if (flag == "--users") {
      const auto v = parse_u32_list(next());
      if (v.size() != 1 || v[0] < 2) usage("--users wants one value >= 2");
      opt.users = v[0];
      opt.workload_flag_set = true;
    }
    else if (flag == "--pairs") {
      const auto v = parse_u32_list(next());
      if (v.size() != 1 || v[0] < 1) usage("--pairs wants one value >= 1");
      opt.pairs = v[0];
      opt.workload_flag_set = true;
    }
    else if (flag == "--round-size") {
      const auto v = parse_u32_list(next());
      if (v.size() != 1 || v[0] < 1) usage("--round-size wants one value >= 1");
      opt.round_size = v[0];
      opt.workload_flag_set = true;
    }
    else if (flag == "--send-rate") {
      char* end = nullptr;
      const char* v = next();
      opt.send_rate = std::strtod(v, &end);
      if (end == v || *end != '\0' || opt.send_rate < 0.0 ||
          opt.send_rate > 1.0)
        usage("--send-rate must be in [0, 1]");
      opt.workload_flag_set = true;
    }
    else if (flag == "--sender-law") {
      opt.sender_law = parse_law(next());
      opt.sender_law_set = true;
    }
    else if (flag == "--receiver-law") {
      opt.receiver_law = parse_law(next());
      opt.receiver_law_set = true;
    }
    else if (flag == "--every") {
      const auto v = parse_u32_list(next());
      if (v.size() != 1 || v[0] < 1) usage("--every wants one value >= 1");
      opt.every = v[0];
      opt.workload_flag_set = true;
    }
    else if (flag == "--threshold") {
      char* end = nullptr;
      const char* v = next();
      opt.threshold = std::strtod(v, &end);
      if (end == v || *end != '\0') usage("--threshold must be a number");
    }
    else if (flag == "--via-trace") opt.via_trace = true;
    else if (flag == "--out") opt.out_path = next();
    else if (flag == "--in") opt.in_path = next();
    else if (flag == "--replicas") {
      opt.replicas = parse_u32_or_die(next(), "--replicas");
      if (opt.replicas == 0) usage("--replicas must be > 0");
      opt.replicas_set = true;
    }
    else if (flag == "--breakdown") opt.breakdown = true;
    else if (flag == "--samples") {
      opt.samples = parse_u64_or_die(next(), "--samples");
      if (opt.samples == 0) usage("--samples must be > 0");
    }
    else if (flag == "--threads")
      opt.threads = parse_u32_or_die(next(), "--threads");
    else if (flag == "--shards")
      opt.shards = parse_u64_or_die(next(), "--shards");
    else if (flag == "--no-dedup") opt.dedup = false;
    else if (flag == "--routing") {
      for (const std::string& tok : split_commas(next()))
        opt.routing_list.push_back(parse_routing(tok));
    }
    else if (flag == "--csr") {
      opt.plan_csr = true;
      opt.plan_flag_set = true;
    }
    else if (flag == "--components") {
      opt.plan_components = true;
      opt.plan_flag_set = true;
    }
    else if (flag == "--source") {
      opt.plan_source = parse_u32_or_die(next(), "--source");
      opt.plan_flag_set = true;
    }
    else if (flag == "--routes") {
      opt.plan_routes = parse_u32_or_die(next(), "--routes");
      if (opt.plan_routes == 0) usage("--routes must be > 0");
      opt.plan_flag_set = true;
    }
    else if (flag == "--metrics") {
      opt.metrics_path = next();
      if (opt.metrics_path.empty()) usage("--metrics wants a file path");
    }
    else if (flag.rfind("--metrics=", 0) == 0) {
      opt.metrics_path = flag.substr(std::strlen("--metrics="));
      if (opt.metrics_path.empty()) usage("--metrics wants a file path");
    }
    else if (flag == "--progress") opt.progress = true;
    else usage(("unknown flag " + flag).c_str());
  }
  return opt;
}

/// The closed-form analytic commands are clique-only; accepting a
/// restricted graph (or churn) and silently reporting clique numbers is
/// exactly the fallback the topology surface promises never to do.
void reject_topology_flags(const options& opt, const char* command) {
  if (!opt.topology_list.empty() &&
      opt.topology_list.front().kind != net::topology_kind::complete)
    usage((std::string("--topology does not apply to '") + command +
           "' (clique-only closed forms); use estimate/simulate/campaign")
              .c_str());
  if (!opt.churn_list.empty() && opt.churn_list.front().enabled())
    usage((std::string("--churn does not apply to '") + command +
           "'; use simulate/capture/campaign")
              .c_str());
  if (!opt.routing_list.empty())
    usage((std::string("--routing does not apply to '") + command +
           "'; use simulate/capture/campaign/plan")
              .c_str());
}

/// The graph-diagnostics surface belongs to 'plan'; anywhere else these
/// flags would be silently ignored — the fallback this CLI promises never
/// to do.
void reject_plan_flags(const options& opt, const char* command) {
  if (opt.plan_flag_set)
    usage((std::string("--csr/--components/--source/--routes do not apply "
                       "to '") +
           command + "'; they drive the 'plan' command")
              .c_str());
}

/// Commands with no longitudinal surface must reject the session/attack
/// flags loudly, mirroring reject_topology_flags — silently dropping a
/// sweep axis is exactly the fallback this CLI promises never to do.
void reject_session_flags(const options& opt, const char* command) {
  if (!opt.population_list.empty() || !opt.rounds_list.empty() ||
      !opt.attack_list.empty())
    usage((std::string("--population/--rounds/--attack do not apply to '") +
           command + "'; use simulate/capture/campaign or the 'attack' "
                     "command")
              .c_str());
  if (!opt.stream_list.empty())
    usage((std::string("--stream does not apply to '") + command +
           "'; it selects the disclosure accumulator backend on "
           "simulate/capture/campaign/attack")
              .c_str());
  if (opt.sender_law_set)
    usage((std::string("--sender-law does not apply to '") + command +
           "'; only the 'attack' workload draws senders from a law")
              .c_str());
  if (opt.receiver_law_set)
    usage((std::string("--receiver-law does not apply to '") + command +
           "'; use simulate/capture/campaign or the 'attack' command")
              .c_str());
  if (opt.workload_flag_set)
    usage((std::string("--users/--pairs/--round-size/--send-rate/--every do "
                       "not apply to '") +
           command + "'; they configure the 'attack' workload")
              .c_str());
}

/// The fault/recovery surface belongs to the simulator (and the campaign's
/// journal); any other command accepting these flags would silently ignore
/// them — the fallback this CLI promises never to do.
void reject_fault_flags(const options& opt, const char* command) {
  if (!opt.retry_list.empty() || !opt.mixfail_list.empty() ||
      !opt.crash_list.empty())
    usage((std::string("--retry/--mix-failures/--crash do not apply to '") +
           command + "'; use simulate/capture/campaign")
              .c_str());
  if (!opt.checkpoint_path.empty() || opt.resume)
    usage((std::string("--checkpoint/--resume do not apply to '") + command +
           "'; only 'campaign' and 'merge' touch journals")
              .c_str());
  if (opt.shard_set)
    usage((std::string("--shard does not apply to '") + command +
           "'; only 'campaign' splits its grid into shards")
              .c_str());
  if (!opt.input_paths.empty())
    usage((std::string("--input does not apply to '") + command +
           "'; it names the shard journals 'merge' combines")
              .c_str());
}

/// The observability surface instruments the long-running commands
/// (simulate/campaign/attack/plan/merge); anywhere else --metrics would
/// write an empty snapshot and --progress would stay silent — accepting
/// them there is exactly the silent drop this CLI promises never to do.
void reject_obs_flags(const options& opt, const char* command) {
  if (!opt.metrics_path.empty() || opt.progress)
    usage((std::string("--metrics/--progress do not apply to '") + command +
           "'; they instrument simulate/campaign/attack/plan/merge")
              .c_str());
}

/// Folds one run's deterministic report telemetry into the registry under
/// the catalogued metric names (README "Observability") — the same names
/// run_campaign records per replica, so a one-cell campaign and a simulate
/// of that cell agree.
void harvest_report(obs::metrics_registry& reg, const sim::sim_report& r) {
  reg.add_counter("sim.events_executed", r.events_executed);
  reg.add_counter("sim.messages_submitted", r.submitted);
  reg.add_counter("sim.messages_delivered", r.delivered);
  reg.add_counter("sim.messages_dropped", r.wire_dropped);
  reg.add_counter("sim.messages_stranded", r.wire_stranded + r.wire_crashed);
  reg.add_counter("sim.retransmissions", r.retransmissions);
  reg.add_counter("attack.memo_hits", r.memo_hits);
  reg.add_counter("attack.memo_misses", r.memo_misses);
}

int cmd_degree(const options& opt) {
  reject_topology_flags(opt, "degree");
  reject_session_flags(opt, "degree");
  reject_fault_flags(opt, "degree");
  reject_plan_flags(opt, "degree");
  reject_obs_flags(opt, "degree");
  const system_params sys{opt.n, 1};
  const auto d = opt.dist.value_or(path_length_distribution::fixed(3));
  const double h = anonymity_degree(sys, d);
  std::printf("strategy %s on N=%u, C=1: H* = %.6f bits (ceiling %.6f)\n",
              d.label().c_str(), opt.n, h, max_anonymity_degree(sys));
  if (opt.breakdown) {
    const auto b = anonymity_breakdown(sys, d);
    std::printf("  event class            probability   H(X|e) bits\n");
    std::printf("  sender compromised     %11.6f   %11.6f\n",
                b.p_sender_compromised, 0.0);
    std::printf("  c absent               %11.6f   %11.6f\n", b.p_absent,
                b.h_absent);
    std::printf("  c last hop             %11.6f   %11.6f\n", b.p_last,
                b.h_last);
    std::printf("  c penultimate          %11.6f   %11.6f\n", b.p_penultimate,
                b.h_penultimate);
    std::printf("  c mid-path             %11.6f   %11.6f\n", b.p_mid, b.h_mid);
  }
  return 0;
}

int cmd_estimate(const options& opt) {
  reject_session_flags(opt, "estimate");
  reject_fault_flags(opt, "estimate");
  reject_plan_flags(opt, "estimate");
  reject_obs_flags(opt, "estimate");
  if (!opt.churn_list.empty() && opt.churn_list.front().enabled())
    usage("--churn does not apply to 'estimate'; use simulate/capture/campaign");
  if (!opt.routing_list.empty())
    usage("--routing does not apply to 'estimate' (walk-model engine only); "
          "use simulate/capture/campaign/plan");
  const system_params sys{opt.n, opt.c};
  const auto d = opt.dist.value_or(path_length_distribution::uniform(1, 10));
  const std::vector<node_id> compromised = spread_compromised(opt.n, opt.c);
  if (!opt.topology_list.empty() &&
      opt.topology_list.front().kind != net::topology_kind::complete) {
    // Restricted graph: walk-model Monte Carlo on the topology engine.
    const net::topology_config& topo = opt.topology_list.front();
    if (!topo.valid_for(opt.n))
      usage("--topology parameters out of range for --n");
    const auto t0 = std::chrono::steady_clock::now();
    const auto est = net::estimate_topology_degree(
        sys, compromised, d, topo, opt.samples, opt.seed, opt.threads,
        opt.shards);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    std::printf("MC walk-model estimate for %s on N=%u, C=%u, topology %s:\n",
                d.label().c_str(), opt.n, opt.c, topo.label().c_str());
    std::printf("  H* = %.6f +/- %.6f bits (95%% CI)\n", est.degree,
                est.ci95());
    std::printf("  samples:       %llu in %llu shards (seed %llu)\n",
                static_cast<unsigned long long>(est.samples),
                static_cast<unsigned long long>(est.shards),
                static_cast<unsigned long long>(opt.seed));
    std::printf("  throughput:    %.0f samples/s (%.3f s)\n",
                static_cast<double>(est.samples) / secs, secs);
    return 0;
  }
  mc_config cfg;
  cfg.threads = opt.threads;
  cfg.shards = opt.shards;
  cfg.dedup = opt.dedup;
  const auto t0 = std::chrono::steady_clock::now();
  const auto est = estimate_anonymity_degree(sys, compromised, d, opt.samples,
                                             opt.seed, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  std::printf("MC estimate for %s on N=%u, C=%u:\n", d.label().c_str(), opt.n,
              opt.c);
  std::printf("  H* = %.6f +/- %.6f bits (95%% CI)\n", est.degree, est.ci95());
  std::printf("  samples:       %llu in %llu shards (seed %llu)\n",
              static_cast<unsigned long long>(est.samples),
              static_cast<unsigned long long>(est.shards),
              static_cast<unsigned long long>(opt.seed));
  std::printf("  distinct obs:  %llu (%.1f%% dedup)\n",
              static_cast<unsigned long long>(est.distinct_observations),
              100.0 * (1.0 - static_cast<double>(est.distinct_observations) /
                                 static_cast<double>(est.samples)));
  std::printf("  throughput:    %.0f samples/s (%.3f s)\n",
              static_cast<double>(est.samples) / secs, secs);
  return 0;
}

int cmd_optimize(const options& opt) {
  reject_topology_flags(opt, "optimize");
  reject_session_flags(opt, "optimize");
  reject_fault_flags(opt, "optimize");
  reject_plan_flags(opt, "optimize");
  reject_obs_flags(opt, "optimize");
  const system_params sys{opt.n, 1};
  const auto cap = static_cast<path_length>(opt.n - 1);
  const auto r = optimize_for_mean(sys, opt.mean, cap);
  std::printf("optimal distribution for N=%u, E[L]=%.2f: H* = %.6f bits\n",
              opt.n, opt.mean, r.degree);
  const auto& pmf = r.distribution.dense_pmf();
  for (path_length l = 0; l < pmf.size(); ++l)
    if (pmf[l] > 1e-9) std::printf("  Pr[L=%3u] = %.6f\n", l, pmf[l]);
  return 0;
}

sim::sim_config simulate_config(const options& opt) {
  if (opt.sender_law_set)
    usage("--sender-law only applies to the 'attack' command (simulator "
          "senders are the N nodes, drawn uniformly)");
  if (opt.workload_flag_set)
    usage("--users/--pairs/--round-size/--send-rate/--every configure the "
          "'attack' workload; simulator sessions batch --messages into "
          "--rounds");
  reject_plan_flags(opt, "simulate/capture");
  sim::sim_config cfg;
  cfg.sys = {opt.n, opt.c};
  cfg.compromised = spread_compromised(opt.n, opt.c);
  cfg.lengths = opt.dist.value_or(path_length_distribution::uniform(1, 8));
  if (!opt.mode_list.empty()) {
    if (opt.mode_list.size() > 1)
      usage("simulate/capture take a single --mode (the comma-list axis "
            "belongs to 'campaign')");
    cfg.mode = opt.mode_list.front();
  }
  if (!opt.checkpoint_path.empty() || opt.resume || opt.shard_set ||
      !opt.input_paths.empty())
    usage("--checkpoint/--resume/--shard/--input do not apply to "
          "simulate/capture; they drive 'campaign' and 'merge'");
  cfg.message_count = opt.messages;
  cfg.seed = opt.seed;
  if (!(opt.drop >= 0.0 && opt.drop < 1.0))
    usage("--drop must be in [0, 1)");
  cfg.faults.drop_probability = opt.drop;
  // Single scalars, like --mode: a comma list here would silently run only
  // its first value (the axes belong to 'campaign').
  if (opt.retry_list.size() > 1 || opt.mixfail_list.size() > 1)
    usage("simulate/capture take single --retry/--mix-failures values "
          "(comma-list axes belong to 'campaign')");
  if (!opt.retry_list.empty()) cfg.retry = opt.retry_list.front();
  if (!opt.mixfail_list.empty())
    cfg.faults.mix_failures = opt.mixfail_list.front();
  for (const net::outage& o : opt.crash_list)
    if (o.node >= opt.n)
      usage("--crash node out of range for --n");
  cfg.faults.outages = opt.crash_list;
  cfg.identified_threshold = opt.threshold;
  if (!opt.adversary_list.empty()) cfg.adversary = opt.adversary_list.front();
  if (!opt.topology_list.empty()) {
    cfg.topology = opt.topology_list.front();
    if (!cfg.topology.valid_for(opt.n))
      usage("--topology parameters out of range for --n");
    if (cfg.topology.kind != net::topology_kind::complete &&
        cfg.adversary.kind == sim::adversary_kind::timing_correlator)
      usage("--adversary timing is not supported on a restricted --topology");
  }
  if (!opt.churn_list.empty()) cfg.faults.churn = opt.churn_list.front();
  if (opt.routing_list.size() > 1)
    usage("simulate/capture take a single --routing (the comma-list axis "
          "belongs to 'campaign')");
  if (!opt.routing_list.empty()) {
    cfg.routing = opt.routing_list.front();
    if (cfg.routing.planned()) {
      if (cfg.mode != routing_mode::source_routed)
        usage("--routing kpaths requires onion (source-routed) mode; crowds "
              "forwarding has no planned-path analogue");
      if (cfg.adversary.kind == sim::adversary_kind::timing_correlator)
        usage("--adversary timing is not supported with --routing kpaths");
    }
  }
  // Single scalars here; a comma list would otherwise run only its first
  // value — a silent drop (the axes belong to 'campaign').
  if (opt.population_list.size() > 1 || opt.rounds_list.size() > 1 ||
      opt.attack_list.size() > 1 || opt.stream_list.size() > 1)
    usage("simulate/capture take single values for "
          "--population/--rounds/--attack/--stream (comma-list axes belong "
          "to 'campaign')");
  const std::uint32_t population =
      opt.population_list.empty() ? 0 : opt.population_list.front();
  const std::uint32_t rounds =
      opt.rounds_list.empty() ? 0 : opt.rounds_list.front();
  if ((population == 0) != (rounds == 0))
    usage("session mode wants both --population and --rounds (or neither)");
  if (rounds > 0) {
    if (cfg.mode != routing_mode::source_routed)
      usage("session mode (--population/--rounds) requires onion routing; "
            "crowds mode has no per-message inference to fuse");
    cfg.session.rounds = rounds;
    cfg.session.receiver_count = population;
    cfg.session.partner = sim::canonical_partner(population);
    cfg.session.receiver_law = opt.receiver_law;
    if (!opt.attack_list.empty()) cfg.session.attack = opt.attack_list.front();
    if (!opt.stream_list.empty()) {
      cfg.session.stream = opt.stream_list.front();
      if (cfg.session.stream != workload::stream_backend::exact &&
          cfg.session.attack != attack::attack_kind::sda)
        usage("--stream sketch requires --attack sda (the sketch backend "
              "exists for the counting attack only)");
    }
    // Honest under the run's *effective* corruption (partial_coverage
    // draws its own set from the seed, superseding the configured list).
    cfg.session.target_sender = sim::lowest_honest_node(
        sim::effective_compromised(cfg.adversary, opt.n, cfg.compromised,
                                   cfg.seed));
    if (!cfg.session.valid_for(opt.n, cfg.message_count))
      usage("session parameters out of range (need --population >= 2 and "
            "--rounds <= --messages)");
  } else {
    if (!opt.attack_list.empty() &&
        opt.attack_list.front() != attack::attack_kind::none)
      usage("--attack on 'simulate' needs --population and --rounds");
    if (opt.receiver_law_set)
      usage("--receiver-law on 'simulate'/'capture' needs --population and "
            "--rounds (it is the session destination law)");
    if (!opt.stream_list.empty())
      usage("--stream on 'simulate'/'capture' needs --population and "
            "--rounds (it selects the session attack's accumulator "
            "backend)");
  }
  return cfg;
}

void print_sim_report(const sim::sim_config& cfg, const sim::sim_report& r) {
  std::printf(
      "simulated %llu msgs on N=%u, C=%u, %s, adversary %s, topology %s, %s\n",
      static_cast<unsigned long long>(r.submitted), cfg.sys.node_count,
      cfg.sys.compromised_count, cfg.lengths.label().c_str(),
      cfg.adversary.label().c_str(), cfg.topology.label().c_str(),
      cfg.faults.label().c_str());
  std::printf("  delivered:           %llu (%.1f%%)\n",
              static_cast<unsigned long long>(r.delivered),
              100.0 * static_cast<double>(r.delivered) /
                  static_cast<double>(r.submitted));
  std::printf("  mean latency:        %.1f ms\n",
              r.end_to_end_latency.mean() * 1000.0);
  std::printf("  mean hops:           %.2f\n", r.realized_hops.mean());
  std::printf("  empirical H*:        %.4f +/- %.4f bits\n",
              r.empirical_entropy_bits, 1.96 * r.empirical_entropy_stderr);
  std::printf("  identified fraction: %.2f%% (threshold %g)\n",
              100.0 * r.identified_fraction, cfg.identified_threshold);
  if (cfg.retry.enabled())
    std::printf("  retransmissions:     %llu (%s, %.3f per msg)\n",
                static_cast<unsigned long long>(r.retransmissions),
                cfg.retry.label().c_str(),
                static_cast<double>(r.retransmissions) /
                    static_cast<double>(r.submitted));
  if (r.session) {
    const sim::session_report& s = *r.session;
    std::printf("  session %s: target %u sent %llu msgs over %u rounds\n",
                cfg.session.label().c_str(), cfg.session.target_sender,
                static_cast<unsigned long long>(s.target_messages), s.rounds);
    std::printf("    attack posterior:  H = %.4f bits, top receiver %u "
                "(mass %.4f, %s)\n",
                s.entropy_bits, s.top_receiver, s.top_mass,
                s.correct ? "correct" : "wrong");
    if (s.identified && s.identified_round > 0)
      std::printf("    identified at round %u\n", s.identified_round);
    else
      std::printf("    not identified within %u rounds\n", s.rounds);
  }
}

int cmd_simulate(const options& opt) {
  sim::sim_config cfg = simulate_config(opt);
  obs::tracer tracer;
  if (!opt.metrics_path.empty()) cfg.tracer = &tracer;
  obs::progress_meter progress("simulate", 1, opt.progress);
  progress.advance(0);
  const auto r = sim::run_simulation(cfg);
  progress.advance(1);
  print_sim_report(cfg, r);
  if (!opt.metrics_path.empty()) {
    obs::metrics_registry reg;
    harvest_report(reg, r);
    obs::write_metrics_file(opt.metrics_path, reg.snapshot(), tracer.spans());
  }
  return 0;
}

int cmd_capture(const options& opt) {
  reject_obs_flags(opt, "capture");
  const sim::sim_config cfg = simulate_config(opt);
  const sim::sim_trace trace = sim::capture_trace(cfg);
  if (opt.out_path.empty()) {
    sim::write_trace(trace, std::cout);
  } else {
    std::ofstream out(opt.out_path, std::ios::binary);
    if (!out.good()) usage("cannot open --out file for writing");
    sim::write_trace(trace, out);
    // Flush before checking: an ENOSPC trace often fails only when the
    // buffer drains, which the destructor would have swallowed.
    out.flush();
    if (!out.good())
      throw parse_error(parse_error_kind::io, "trace",
                        "write to '" + opt.out_path +
                            "' failed (disk full or I/O error)");
  }
  std::fprintf(stderr, "# captured %zu adversary events, %zu messages\n",
               trace.events.size(), trace.truths.size());
  return 0;
}

int cmd_replay(const options& opt) {
  // Replay's run (session and fault plan included) is defined entirely by
  // the trace.
  reject_session_flags(opt, "replay");
  reject_fault_flags(opt, "replay");
  reject_plan_flags(opt, "replay");
  reject_obs_flags(opt, "replay");
  if (!opt.routing_list.empty())
    usage("--routing does not apply to 'replay' (the trace defines the "
          "run's routing)");
  if (opt.in_path.empty()) usage("replay requires --in <trace file>");
  std::ifstream in(opt.in_path, std::ios::binary);
  if (!in.good()) usage("cannot open --in file");
  const sim::sim_trace trace = sim::read_trace(in);
  const auto r = sim::replay_trace(trace);
  print_sim_report(trace.config, r);
  return 0;
}

/// Builds and validates the scenario grid shared by 'campaign' (which runs
/// it, whole or as one shard) and 'merge' (which must reconstruct the
/// IDENTICAL grid — same flags, same validation — to recompute the scope
/// fingerprint the shard journals are checked against).
sim::campaign_grid build_campaign_grid(const options& opt,
                                       const char* command) {
  if (opt.sender_law_set)
    usage("--sender-law only applies to the 'attack' command (simulator "
          "senders are the N nodes, drawn uniformly)");
  if (opt.receiver_law_set && opt.population_list.empty() &&
      opt.rounds_list.empty())
    usage((std::string("--receiver-law on '") + command +
           "' needs session axes (--population/--rounds); it is the "
           "session destination law")
              .c_str());
  if (opt.workload_flag_set)
    usage("--users/--pairs/--round-size/--send-rate/--every configure the "
          "'attack' workload; campaign sessions batch --messages into "
          "--rounds");
  reject_plan_flags(opt, command);
  // Session axes must be swept together: a --population axis with no
  // --rounds axis (or vice versa) would make every session cell incoherent
  // and silently filter the sweep the user asked for down to its
  // session-less cells.
  const auto has_nonzero = [](const std::vector<std::uint32_t>& v) {
    for (std::uint32_t x : v)
      if (x != 0) return true;
    return false;
  };
  const bool wants_population = has_nonzero(opt.population_list);
  const bool wants_rounds = has_nonzero(opt.rounds_list);
  if (wants_population != wants_rounds)
    usage("session axes come in pairs: sweep --population and --rounds "
          "together (zeros in either list mean 'session off' cells)");
  const bool wants_attack = [&opt] {
    for (attack::attack_kind k : opt.attack_list)
      if (k != attack::attack_kind::none) return true;
    return false;
  }();
  if (wants_attack && !wants_rounds)
    usage("--attack on 'campaign' needs the session axes "
          "(--population/--rounds)");
  // A sketch backend only pairs with sda cells; demanding the sda axis up
  // front beats silently filtering every sketch cell out as infeasible.
  const bool wants_sketch = [&opt] {
    for (workload::stream_backend s : opt.stream_list)
      if (s != workload::stream_backend::exact) return true;
    return false;
  }();
  if (wants_sketch) {
    bool has_sda = false;
    for (attack::attack_kind k : opt.attack_list)
      if (k == attack::attack_kind::sda) has_sda = true;
    if (!has_sda)
      usage("--stream sketch on 'campaign' needs sda on the --attack axis "
            "(the sketch backend exists for the counting attack only)");
  }
  sim::campaign_grid grid;
  if (!opt.n_list.empty()) grid.node_counts = opt.n_list;
  if (!opt.c_list.empty()) grid.compromised_counts = opt.c_list;
  if (!opt.dist_list.empty()) grid.lengths = opt.dist_list;
  if (!opt.mode_list.empty()) grid.modes = opt.mode_list;
  if (!opt.drop_list.empty()) grid.drop_probabilities = opt.drop_list;
  if (!opt.rate_list.empty()) grid.arrival_rates = opt.rate_list;
  if (!opt.adversary_list.empty()) grid.adversaries = opt.adversary_list;
  if (!opt.topology_list.empty()) grid.topologies = opt.topology_list;
  if (!opt.routing_list.empty()) grid.routings = opt.routing_list;
  if (!opt.churn_list.empty()) grid.churns = opt.churn_list;
  if (!opt.mixfail_list.empty()) grid.mix_failures = opt.mixfail_list;
  if (!opt.retry_list.empty()) grid.retries = opt.retry_list;
  grid.fault_outages = opt.crash_list;
  if (!opt.population_list.empty()) grid.populations = opt.population_list;
  if (!opt.rounds_list.empty()) grid.session_rounds = opt.rounds_list;
  if (!opt.attack_list.empty()) grid.attacks = opt.attack_list;
  if (!opt.stream_list.empty()) grid.streams = opt.stream_list;
  grid.session_receiver_law = opt.receiver_law;
  grid.message_count = opt.messages_set ? opt.messages : 500;
  grid.identified_threshold = opt.threshold;
  // Out-of-range axis values are a hard error at parse time, not a silent
  // feasibility filter: a sweep must never quietly shrink.
  for (double d : grid.drop_probabilities)
    if (!(d >= 0.0 && d < 1.0)) usage("--drop values must be in [0, 1)");
  for (double r : grid.arrival_rates)
    if (!(r > 0.0)) usage("--rate values must be > 0");
  for (std::uint32_t p : grid.populations)
    if (p == 1)
      usage("--population values must be 0 (session off) or >= 2");
  for (std::uint32_t r : grid.session_rounds)
    if (r > grid.message_count)
      usage("--rounds values must be <= --messages (at least one message "
            "per mix round)");

  // Surface an empty grid as a usage error here; run_campaign's internal
  // precondition is not a user-facing message. The usual cause is a
  // --topology whose parameters fit none of the --n values (or a
  // timing-adversary x restricted-topology product).
  if (sim::expand_grid(grid).empty())
    usage("campaign grid has no feasible cells (check --topology/--churn "
          "parameters against --n, --adversary timing with restricted "
          "topologies or --routing kpaths, --routing kpaths with crowds "
          "mode, and --population/--rounds/--attack coherence: both "
          "axes on or both off, rounds <= messages, onion mode)");
  return grid;
}

/// Execution config shared by 'campaign' and 'merge'; every field below is
/// part of the scope fingerprint or the seed derivation, so the two
/// commands MUST build it identically.
sim::campaign_config build_campaign_config(const options& opt) {
  sim::campaign_config cfg;
  cfg.replicas = opt.replicas;
  cfg.master_seed = opt.seed;
  cfg.threads = opt.threads;
  cfg.via_trace = opt.via_trace;
  cfg.checkpoint_path = opt.checkpoint_path;
  cfg.resume = opt.resume;
  return cfg;
}

int cmd_campaign(const options& opt) {
  if (!opt.input_paths.empty())
    usage("--input belongs to 'merge'; 'campaign' writes one journal via "
          "--checkpoint");
  const sim::campaign_grid grid = build_campaign_grid(opt, "campaign");
  sim::campaign_config cfg = build_campaign_config(opt);
  if (opt.resume && opt.checkpoint_path.empty())
    usage("--resume requires --checkpoint <file>");
  if (opt.shard_set) {
    // The journal is a shard's only durable output (its CSV covers just
    // its own cells); running one without a checkpoint would leave
    // nothing for 'merge' to combine.
    if (opt.checkpoint_path.empty())
      usage("--shard requires --checkpoint <file> (the shard journal is "
            "what 'merge' combines)");
    cfg.shard_index = opt.shard_index;
    cfg.shard_count = opt.shard_count;
    const std::uint64_t cells = sim::expand_grid(grid).size();
    if (opt.shard_count > cells)
      usage("--shard count exceeds the grid's feasible cell count (some "
            "shards would own zero cells)");
  }

  // Observability: the registry and meter live here, at the process
  // boundary; run_campaign sees only non-owning pointers (null = off).
  // The meter is sized to this shard's local cell count, which is a pure
  // function of the grid and the shard split.
  obs::metrics_registry registry;
  if (!opt.metrics_path.empty()) cfg.metrics = &registry;
  const std::uint64_t grid_cells = sim::expand_grid(grid).size();
  std::uint64_t local_cells = 0;
  for (std::uint64_t a = cfg.shard_index; a < grid_cells;
       a += cfg.shard_count)
    ++local_cells;
  obs::progress_meter progress("campaign cells", local_cells, opt.progress);
  if (opt.progress) cfg.progress = &progress;

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = sim::run_campaign(grid, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  // The snapshot is written before the CSV so a sharded campaign's
  // journal + metrics pair stays consistent even if stdout later fails;
  // the write itself is checked (parse_error{io} exits nonzero).
  if (!opt.metrics_path.empty())
    obs::write_metrics_file(opt.metrics_path, registry.snapshot(), {});
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();

  // Pure CSV on stdout (diffable across runs and thread counts); the run
  // synopsis goes to stderr.
  sim::write_csv(result, std::cout);
  if (cfg.shard_count > 1)
    std::fprintf(stderr, "# shard %u/%u: %llu of the grid's cells\n",
                 cfg.shard_index, cfg.shard_count,
                 static_cast<unsigned long long>(result.cells.size()));
  std::fprintf(stderr,
               "# campaign: %llu cells (%llu infeasible skipped) x %u "
               "replicas = %llu runs, %llu msgs, %.3f s\n",
               static_cast<unsigned long long>(result.cells.size()),
               static_cast<unsigned long long>(result.skipped_cells),
               cfg.replicas, static_cast<unsigned long long>(result.runs),
               static_cast<unsigned long long>(result.runs *
                                               grid.message_count),
               secs);
  std::uint64_t errored = 0;
  for (const sim::campaign_cell& cell : result.cells)
    if (!cell.error.empty()) ++errored;
  if (errored > 0)
    std::fprintf(stderr,
                 "# warning: %llu cell(s) failed; see the CSV error column\n",
                 static_cast<unsigned long long>(errored));
  return 0;
}

int cmd_merge(const options& opt) {
  if (opt.input_paths.empty())
    usage("merge requires at least one --input <shard checkpoint>");
  if (opt.shard_set)
    usage("--shard does not apply to 'merge' (the journals declare their "
          "own shard identities)");
  if (opt.resume) usage("--resume does not apply to 'merge'");
  if (opt.via_trace)
    usage("--via-trace does not apply to 'merge' (nothing is re-run; it "
          "only affects the scope fingerprint of the original campaign)");
  // The grid/config flags must repeat the sharded runs' flags exactly:
  // the scope fingerprint recomputed here is what authenticates the
  // shard journals as belonging to this campaign.
  const sim::campaign_grid grid = build_campaign_grid(opt, "merge");
  const sim::campaign_config cfg = build_campaign_config(opt);
  obs::progress_meter progress("merge shards", opt.input_paths.size(),
                               opt.progress);
  progress.advance(0);
  const auto result = sim::merge_campaign(grid, cfg, opt.input_paths);
  progress.advance(opt.input_paths.size());

  // Shard metrics ride next to the shard journals: each --input FILE is
  // expected to carry a FILE.metrics sibling (the shard's campaign run
  // with --metrics FILE.metrics). Counters and histogram bins sum, so the
  // merged snapshot's stable metrics equal an unsharded run's; a missing
  // or corrupt sibling is a loud parse_error, never a silent skip.
  if (!opt.metrics_path.empty()) {
    obs::metrics_snapshot merged;
    for (const std::string& in : opt.input_paths)
      merged = obs::merge_snapshots(
          merged, obs::read_metrics_file(in + ".metrics").metrics);
    obs::write_metrics_file(opt.metrics_path, merged, {});
  }

  // With --checkpoint, also emit the merged result as an UNSHARDED
  // journal — byte-identical to the one a single-process run would have
  // left behind, and resumable/auditable as such.
  if (!opt.checkpoint_path.empty()) {
    std::ofstream out(opt.checkpoint_path, std::ios::out | std::ios::trunc);
    if (!out)
      throw parse_error(parse_error_kind::io, "checkpoint",
                        "cannot open '" + opt.checkpoint_path +
                            "' for writing");
    sim::write_checkpoint_header(out, sim::campaign_scope(grid, cfg));
    for (std::uint64_t i = 0; i < result.cells.size(); ++i)
      sim::append_checkpoint_cell(out, i, result.cells[i]);
    out.flush();
    if (!out)
      throw parse_error(parse_error_kind::io, "checkpoint",
                        "write to '" + opt.checkpoint_path +
                            "' failed (disk full or I/O error)");
  }

  sim::write_csv(result, std::cout);
  std::fprintf(stderr,
               "# merge: %llu cells (%llu infeasible skipped) from %zu "
               "shard journal(s)\n",
               static_cast<unsigned long long>(result.cells.size()),
               static_cast<unsigned long long>(result.skipped_cells),
               opt.input_paths.size());
  return 0;
}

int cmd_attack(const options& opt) {
  reject_topology_flags(opt, "attack");
  reject_fault_flags(opt, "attack");
  reject_plan_flags(opt, "attack");
  // Axes are a campaign concept; here every flag is a single scalar, and a
  // comma list would otherwise run only its first value — a silent drop.
  if (opt.attack_list.size() > 1 || opt.population_list.size() > 1 ||
      opt.rounds_list.size() > 1 || opt.stream_list.size() > 1)
    usage("'attack' takes single values for "
          "--attack/--population/--rounds/--stream (comma-list axes belong "
          "to 'campaign')");
  // Simulator-only flags have no meaning on the pure workload path; run
  // the attack through 'simulate'/'campaign' sessions to combine them.
  if (!opt.drop_list.empty() || opt.messages_set || !opt.dist_list.empty() ||
      !opt.adversary_list.empty() || !opt.mode_list.empty() ||
      !opt.rate_list.empty() || opt.via_trace || opt.replicas_set)
    usage("--drop/--messages/--dist/--adversary/--mode/--rate/--via-trace/"
          "--replicas do not apply to 'attack'; use simulate/campaign "
          "session mode to combine the rerouting simulator with a "
          "longitudinal attack");
  if (!opt.n_list.empty() || !opt.c_list.empty())
    usage("--n/--c do not apply to 'attack' (no rerouting network here); "
          "the workload population is --users/--population");
  if (opt.attack_list.empty() ||
      opt.attack_list.front() == attack::attack_kind::none)
    usage("attack requires --attack intersection|sda|bayes");
  const attack::attack_kind kind = opt.attack_list.front();
  // --stream asks for the online conformance report (exact: the
  // online==offline identity; sketch: the sketched engine plus its bound
  // and memory cross-checks), which only the counting attack defines.
  const bool stream_set = !opt.stream_list.empty();
  const workload::stream_backend stream =
      stream_set ? opt.stream_list.front() : workload::stream_backend::exact;
  if (stream_set && kind != attack::attack_kind::sda)
    usage("--stream on 'attack' requires --attack sda (the accumulator "
          "backends exist for the counting attack)");

  workload::population_config cfg;
  cfg.seed = opt.seed;
  cfg.user_count = opt.users;
  // Defaulting happens only when the flag is absent; an explicit
  // --population 0 is out of range and exits loudly below.
  cfg.receiver_count =
      opt.population_list.empty() ? opt.users : opt.population_list.front();
  cfg.round_count = opt.rounds_list.empty() ? 200 : opt.rounds_list.front();
  cfg.persistent_pairs = opt.pairs;
  cfg.persistent_rate = opt.send_rate;
  cfg.round_size = opt.round_size;
  cfg.sender_law = opt.sender_law;
  cfg.receiver_law = opt.receiver_law;
  if (cfg.receiver_count < 2) usage("--population must be >= 2");
  if (cfg.round_count < 1) usage("--rounds must be >= 1");
  if (!cfg.valid()) usage("attack workload parameters out of range "
                          "(--pairs <= --users?)");
  if (opt.threshold <= 0.0 || opt.threshold >= 1.0)
    usage("--threshold must be in (0, 1)");

  obs::metrics_registry reg;
  obs::tracer tracer;
  obs::tracer* const tp = opt.metrics_path.empty() ? nullptr : &tracer;
  // Every phase below (exact session, cross-checks, sketch session) nests
  // under this one root, closed before the snapshot is written.
  std::optional<obs::span> root(std::in_place, tp, "attack.run");

  const workload::population pop(cfg);
  // Sub-unit send rates make round membership noisy (a coincidental
  // background send marks a partnerless round); give the Bayes engine the
  // principled noise estimate so one such round cannot irreversibly
  // annihilate the true partner, and the configured receiver law as its
  // exact background — at --send-rate 1 there are no background rounds to
  // learn it from, and a skewed unlearned background misreads popularity
  // as partnership. Only Bayes consumes either; skip for the other kinds.
  attack::sequential_bayes_config bayes;
  if (kind == attack::attack_kind::sequential_bayes) {
    bayes.membership_noise = attack::estimated_membership_noise(pop, 0);
    bayes.background_pmf =
        workload::popularity_pmf(cfg.receiver_law, cfg.receiver_count);
  }
  if (kind == attack::attack_kind::sda && opt.send_rate >= 1.0 &&
      cfg.receiver_law.kind != workload::popularity_kind::uniform)
    std::fprintf(stderr,
                 "# note: --send-rate 1 leaves sda no background rounds; its "
                 "background estimate stays uniform, which misranks popular "
                 "receivers under %s — lower --send-rate for a calibrated "
                 "subtraction\n",
                 cfg.receiver_law.label().c_str());
  auto engine = attack::make_attack(kind, cfg.receiver_count, bayes);
  const std::uint32_t stride =
      opt.every != 0 ? opt.every : std::max(1u, cfg.round_count / 100);

  obs::progress_meter progress("attack rounds", cfg.round_count,
                               opt.progress);
  progress.advance(0);
  const auto t0 = std::chrono::steady_clock::now();
  const attack::attack_result result =
      attack::run_workload_attack(pop, 0, *engine, opt.threshold, stride);
  const auto t1 = std::chrono::steady_clock::now();
  progress.advance(cfg.round_count);
  if (tp != nullptr) {
    reg.add_counter("attack.rounds_ingested", cfg.round_count);
    reg.add_counter("attack.trajectory_points", result.trajectory.size());
  }
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();

  // Trajectory CSV on stdout; run synopsis on stderr (diffable, like
  // campaign).
  std::printf("round,entropy_bits,top_mass,top_receiver,identified\n");
  for (const attack::trajectory_point& pt : result.trajectory)
    std::printf("%u,%.9g,%.9g,%u,%d\n", pt.round, pt.entropy_bits,
                pt.top_mass, pt.top_receiver, pt.identified ? 1 : 0);

  const workload::persistent_pair truth = pop.pairs().front();
  std::fprintf(stderr, "# attack %s on %s (seed %llu): %.3f s\n",
               attack::attack_kind_label(kind), cfg.label().c_str(),
               static_cast<unsigned long long>(cfg.seed), secs);
  std::fprintf(stderr, "# target pair 0: sender %u -> receiver %u\n",
               truth.sender, truth.receiver);
  if (result.identified_round)
    std::fprintf(stderr,
                 "# identified at round %u: receiver %u (mass %.4f, %s)\n",
                 *result.identified_round, result.top_receiver,
                 result.top_mass,
                 result.top_receiver == truth.receiver ? "correct" : "WRONG");
  else
    std::fprintf(stderr,
                 "# not identified within %u rounds (top receiver %u, mass "
                 "%.4f, H = %.4f bits)\n",
                 result.rounds, result.top_receiver, result.top_mass,
                 result.entropy_bits);

  if (kind == attack::attack_kind::sda && (opt.threads != 1 || stream_set)) {
    // The sharded population-scale path must reproduce the streaming counts
    // bit for bit; a mismatch is a determinism bug, reported loudly.
    workload::cooccurrence_config ccfg;
    ccfg.threads = opt.threads;
    workload::cooccurrence_result totals;
    std::size_t exact_bytes = 0;
    {
      obs::span check_span(tp, "attack.crosscheck");
      const workload::streaming_accumulator exact_acc =
          workload::accumulate_streaming(pop, 0, cfg.round_count,
                                         workload::streaming_config{}, ccfg);
      totals = exact_acc.totals();
      exact_bytes = exact_acc.memory_bytes();
      const attack::sda_attack parallel_sda =
          attack::sda_attack::from_counts(totals, 0, cfg.receiver_count);
      if (parallel_sda.posterior() != result.final_posterior) {
        std::fprintf(stderr,
                     "# ERROR: sharded accumulator diverged from streaming "
                     "counts\n");
        return 1;
      }
    }
    if (tp != nullptr) {
      reg.add_counter("stream.rounds_accumulated", totals.rounds);
      reg.set_gauge("stream.exact_memory_bytes",
                    static_cast<double>(exact_bytes));
    }
    std::fprintf(stderr,
                 "# accumulator cross-check (%u threads over %llu rounds): "
                 "identical\n",
                 opt.threads != 0 ? opt.threads
                                  : std::thread::hardware_concurrency(),
                 static_cast<unsigned long long>(totals.rounds));
    if (stream_set)
      std::fprintf(stderr,
                   "# online==offline: final posterior bit-identical "
                   "(exact backend)\n");

    if (stream == workload::stream_backend::sketch) {
      // Online sketched session over the same round stream.
      attack::online_config ocfg;
      ocfg.kind = kind;
      ocfg.backend = workload::stream_backend::sketch;
      ocfg.identified_threshold = opt.threshold;
      ocfg.stride = stride;
      attack::online_attack online(cfg.receiver_count, ocfg);
      {
        obs::span ingest_span(tp, "attack.ingest");
        attack::round_observation round_obs;
        const node_id target_sender = pop.pairs().front().sender;
        for (std::uint32_t r = 0; r < cfg.round_count; ++r) {
          const workload::round_batch batch = pop.round(r);
          round_obs.target_present =
              std::find(batch.senders.begin(), batch.senders.end(),
                        target_sender) != batch.senders.end();
          round_obs.receivers = batch.receivers;
          online.ingest(round_obs);
        }
      }
      const attack::attack_result sres = online.result();

      // The sharded sketch accumulation must reproduce online ingestion
      // bit for bit — same contract as the exact path above.
      {
        obs::span check_span(tp, "attack.crosscheck");
        workload::streaming_config scfg;
        scfg.backend = workload::stream_backend::sketch;
        const workload::streaming_accumulator sketch_acc =
            workload::accumulate_streaming(pop, 0, cfg.round_count, scfg,
                                           ccfg);
        const attack::sketch_sda_attack sharded =
            attack::sketch_sda_attack::from_accumulator(sketch_acc, 0,
                                                        cfg.receiver_count);
        if (sharded.posterior() != sres.final_posterior) {
          std::fprintf(stderr,
                       "# ERROR: sharded sketch accumulator diverged from "
                       "online ingestion\n");
          return 1;
        }
      }
      const auto& online_sketch =
          static_cast<const attack::sketch_sda_attack&>(online.engine());
      if (tp != nullptr) {
        reg.set_gauge("stream.memory_bytes",
                      static_cast<double>(online.memory_bytes()));
        reg.set_gauge("stream.sketch_occupied_cells",
                      static_cast<double>(online_sketch.occupied_cells()));
        reg.set_gauge("stream.candidates_retained",
                      static_cast<double>(online_sketch.candidates().size()));
        // Ingest-order-dependent telemetry: recorded only on this
        // single-threaded online path, never compared across thread counts.
        reg.add_counter("stream.reservoir_evictions",
                        online_sketch.reservoir_evictions());
      }

      // Count-min conformance against the exact counts: estimates never
      // undercount (worst-case), and each key overcounts past the bound
      // with probability at most 2^-depth — so across all keys, allow
      // twice that expected violation count before calling it a bug.
      std::uint64_t max_over = 0, over_bound = 0;
      bool under = false;
      for (const auto& [receiver, count] : totals.global_receiver_counts) {
        const std::uint64_t est = online_sketch.estimate_global(receiver);
        if (est < count) { under = true; continue; }
        max_over = std::max(max_over, est - count);
        if (est - count > online_sketch.error_bound()) ++over_bound;
      }
      const std::size_t keys = totals.global_receiver_counts.size();
      const double allowance =
          2.0 * std::ldexp(static_cast<double>(keys),
                           -static_cast<int>(online_sketch.params().depth)) +
          1.0;
      if (under || static_cast<double>(over_bound) > allowance) {
        std::fprintf(stderr,
                     "# ERROR: sketch estimates violate the count-min "
                     "bound (%llu/%zu keys over bound %llu, allowance "
                     "%.0f%s)\n",
                     static_cast<unsigned long long>(over_bound), keys,
                     static_cast<unsigned long long>(
                         online_sketch.error_bound()),
                     allowance, under ? ", undercount seen" : "");
        return 1;
      }
      std::fprintf(stderr,
                   "# sketch bound check: %llu/%zu keys over the per-key "
                   "bound %llu (allowance %.0f), max overestimate %llu, "
                   "no undercounts\n",
                   static_cast<unsigned long long>(over_bound), keys,
                   static_cast<unsigned long long>(
                       online_sketch.error_bound()),
                   allowance, static_cast<unsigned long long>(max_over));

      std::fprintf(stderr,
                   "# sketch posterior (%s, %zu candidates%s): top receiver "
                   "%u (%s exact), H = %.4f bits\n",
                   online_sketch.params().label().c_str(),
                   online_sketch.candidates().size(),
                   online_sketch.candidates_saturated() ? ", saturated" : "",
                   sres.top_receiver,
                   sres.top_receiver == result.top_receiver
                       ? "matches" : "DIFFERS from",
                   sres.entropy_bits);
      std::fprintf(stderr,
                   "# memory: sketch engine %zu bytes, exact accumulator "
                   "%zu bytes (exact/sketch ratio %.2f)\n",
                   online.memory_bytes(), exact_bytes,
                   static_cast<double>(exact_bytes) /
                       static_cast<double>(online.memory_bytes()));
    }
  }
  root.reset();
  if (tp != nullptr)
    obs::write_metrics_file(opt.metrics_path, reg.snapshot(), tracer.spans());
  return 0;
}

/// Graph-scale diagnostics: builds the topology (CSR or adjacency-vector
/// storage), runs one full Dijkstra tree, extracts --routes shortest routes
/// to seeded random targets, and — when --routing kpaths is given — plans
/// the same number of k-shortest-path routes through net::route_planner.
/// This is the CI smoke for million-node CSR construction and route
/// planning; all timings go to stdout so regressions are visible in logs.
int cmd_plan(const options& opt) {
  reject_session_flags(opt, "plan");
  reject_fault_flags(opt, "plan");
  if (!opt.churn_list.empty() && opt.churn_list.front().enabled())
    usage("--churn does not apply to 'plan' (static graph diagnostics)");
  if (opt.routing_list.size() > 1)
    usage("'plan' takes a single --routing value");
  if (opt.n < 2) usage("plan needs --n >= 2");
  if (opt.plan_source >= opt.n) usage("--source out of range for --n");
  net::topology_config topo_cfg;
  if (!opt.topology_list.empty()) topo_cfg = opt.topology_list.front();
  if (!topo_cfg.valid_for(opt.n))
    usage("--topology parameters out of range for --n");
  // Planning work counters are pure functions of the graph and the query
  // sequence, so they land in the snapshot as stable metrics.
  net::plan_counters counters;
  obs::metrics_registry reg;
  obs::tracer tracer;
  obs::tracer* const tp = opt.metrics_path.empty() ? nullptr : &tracer;
  // Every phase nests under this one root, closed before the snapshot is
  // written; the child names match perfbench's per-layer metrics.
  std::optional<obs::span> root(std::in_place, tp, "plan.run");
  obs::progress_meter progress("plan routes", opt.plan_routes, opt.progress);
  const auto elapsed = [](std::chrono::steady_clock::time_point a,
                          std::chrono::steady_clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
        .count();
  };

  const auto t0 = std::chrono::steady_clock::now();
  const net::topology topo = [&] {
    obs::span span(tp, "net.build");
    return opt.plan_csr ? net::topology::make_csr(opt.n, topo_cfg)
                        : net::topology::make(opt.n, topo_cfg);
  }();
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("built %s: N=%u, %llu edges, %s storage, %.3f s\n",
              topo_cfg.label().c_str(), opt.n,
              static_cast<unsigned long long>(topo.edge_count()),
              opt.plan_csr ? "csr" : "adjacency", elapsed(t0, t1));

  if (opt.plan_components) {
    const auto tc0 = std::chrono::steady_clock::now();
    const std::vector<std::uint32_t> comp = [&] {
      obs::span span(tp, "net.components");
      return net::connected_components(topo);
    }();
    const auto tc1 = std::chrono::steady_clock::now();
    // Labels are 0-based in first-discovery order, so the count is one past
    // the largest label.
    std::uint32_t count = 0;
    for (std::uint32_t label : comp) count = std::max(count, label + 1);
    std::printf("components: %u, %.3f s\n", count, elapsed(tc0, tc1));
  }

  const auto t2 = std::chrono::steady_clock::now();
  const net::shortest_path_tree tree = [&] {
    obs::span span(tp, "net.dijkstra");
    return net::dijkstra(topo, opt.plan_source, &counters);
  }();
  const auto t3 = std::chrono::steady_clock::now();
  std::uint64_t reachable = 0;
  double eccentricity = 0.0;
  for (double d : tree.dist)
    if (d < std::numeric_limits<double>::infinity()) {
      ++reachable;
      eccentricity = std::max(eccentricity, d);
    }
  std::printf("dijkstra from %u: %llu reachable, eccentricity cost %.6g, "
              "%.3f s\n",
              opt.plan_source, static_cast<unsigned long long>(reachable),
              eccentricity, elapsed(t2, t3));

  // Shortest routes to seeded random targets: O(path length) parent-chain
  // walks off the one tree, the way a source-routed sender would plan.
  stats::rng gen(opt.seed);
  const auto t4 = std::chrono::steady_clock::now();
  std::uint64_t hop_total = 0;
  progress.advance(0);
  for (std::uint32_t i = 0; i < opt.plan_routes; ++i) {
    auto target = static_cast<node_id>(gen.next_below(opt.n - 1));
    if (target >= opt.plan_source) ++target;
    for (node_id v = target;
         v != opt.plan_source && v != net::no_vertex; v = tree.parent[v])
      ++hop_total;
    progress.advance(i + 1);
  }
  const auto t5 = std::chrono::steady_clock::now();
  std::printf("%u shortest routes: mean hops %.2f, %.3f s\n", opt.plan_routes,
              static_cast<double>(hop_total) /
                  static_cast<double>(opt.plan_routes),
              elapsed(t4, t5));

  if (!opt.routing_list.empty() && opt.routing_list.front().planned()) {
    net::route_planner planner(topo, opt.routing_list.front());
    obs::progress_meter kpaths_progress(
        "plan " + planner.config().label() + " routes", opt.plan_routes,
        opt.progress);
    const auto t6 = std::chrono::steady_clock::now();
    std::uint64_t planned_hops = 0;
    {
      obs::span span(tp, "net.yen");
      kpaths_progress.advance(0);
      for (std::uint32_t i = 0; i < opt.plan_routes; ++i) {
        const auto sender = static_cast<node_id>(gen.next_below(opt.n));
        const route r = sample_planned_route(planner, sender, gen);
        planned_hops += r.hops.size();
        kpaths_progress.advance(i + 1);
      }
    }
    const auto t7 = std::chrono::steady_clock::now();
    std::printf("%u %s routes: mean hops %.2f, %.3f s\n", opt.plan_routes,
                planner.config().label().c_str(),
                static_cast<double>(planned_hops) /
                    static_cast<double>(opt.plan_routes),
                elapsed(t6, t7));
    const net::plan_counters& yen = planner.counters();
    counters.dijkstra_runs += yen.dijkstra_runs;
    counters.nodes_settled += yen.nodes_settled;
    counters.edges_scanned += yen.edges_scanned;
    counters.yen_spur_searches += yen.yen_spur_searches;
  }
  root.reset();
  if (tp != nullptr) {
    reg.add_counter("plan.dijkstra_runs", counters.dijkstra_runs);
    reg.add_counter("plan.nodes_settled", counters.nodes_settled);
    reg.add_counter("plan.edges_scanned", counters.edges_scanned);
    reg.add_counter("plan.yen_spur_searches", counters.yen_spur_searches);
    obs::write_metrics_file(opt.metrics_path, reg.snapshot(), tracer.spans());
  }
  return 0;
}

int cmd_figures(const options& opt) {
  reject_topology_flags(opt, "figures");
  reject_session_flags(opt, "figures");
  reject_fault_flags(opt, "figures");
  reject_plan_flags(opt, "figures");
  reject_obs_flags(opt, "figures");
  const system_params sys{opt.n, 1};
  repro::print_figure(repro::fig3a(sys), std::cout);
  repro::print_figure(repro::fig3b(sys), std::cout);
  for (char p : {'a', 'b', 'c', 'd'}) {
    repro::print_figure(repro::fig4(sys, p), std::cout);
    repro::print_figure(repro::fig5(sys, p), std::cout);
  }
  const auto fig6_span =
      std::min<path_length>(50, static_cast<path_length>(opt.n - 1));
  repro::print_figure(repro::fig6(sys, fig6_span), std::cout);
  return 0;
}

int run_command(const options& opt) {
  if (opt.command == "degree") return cmd_degree(opt);
  if (opt.command == "estimate") return cmd_estimate(opt);
  if (opt.command == "optimize") return cmd_optimize(opt);
  if (opt.command == "simulate") return cmd_simulate(opt);
  if (opt.command == "campaign") return cmd_campaign(opt);
  if (opt.command == "merge") return cmd_merge(opt);
  if (opt.command == "capture") return cmd_capture(opt);
  if (opt.command == "replay") return cmd_replay(opt);
  if (opt.command == "attack") return cmd_attack(opt);
  if (opt.command == "plan") return cmd_plan(opt);
  if (opt.command == "figures") return cmd_figures(opt);
  usage("unknown command");
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // A reader that closes the pipe must surface as a checked write failure
  // (EPIPE -> bad stream state below), not kill the process mid-output
  // with no diagnostic and no exit code of ours.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  const options opt = parse(argc, argv);
  int rc;
  try {
    rc = run_command(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // Every command streams its primary output (CSV, traces, figures)
  // through std::cout or C stdout. Both are buffered: a full disk or a
  // closed pipe often only shows up at the final flush, after the command
  // already "succeeded". Verify delivery before claiming success — a
  // truncated CSV that exits 0 is a silently dropped result.
  std::cout.flush();
  const bool cout_ok = std::cout.good();
  const bool stdout_ok = std::fflush(stdout) == 0 && std::ferror(stdout) == 0;
  if (rc == 0 && !(cout_ok && stdout_ok)) {
    std::fprintf(stderr,
                 "error: writing output to stdout failed "
                 "(disk full or closed pipe?)\n");
    return 1;
  }
  return rc;
}
