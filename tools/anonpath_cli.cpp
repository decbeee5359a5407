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
//   anonpath plan     --n 1000000 --topology regular:2 --routes 100
//   anonpath capture  --n 60 --c 2 --dist U:2,14 --out run.trace
//   anonpath replay   --in run.trace                re-score a captured run
//   anonpath attack   --users 100000 --rounds 10000 --round-size 12 \
//                     --attack sda                  longitudinal disclosure
//   anonpath simulate --n 60 --c 2 --population 20 --rounds 50 --attack bayes
//   anonpath campaign --n 30 --c 2 --population 0,20 --rounds 0,50 \
//                     --attack none,sda             session axes
//   anonpath figures  --n 100                       dump all paper figures
//
// Every flag is declared once, as one row of the flag table (k_flags, near
// the end of this file): its spelling, its value shape, the parser that
// writes it into `options`, the commands that read it, and one help line.
// parse() is a single loop over that table; the usage text and the command
// dispatch are generated from it and from the command table beside it. A
// flag the command does not read is refused with exit status 2, never
// silently ignored. Value shapes:
//   switch  no value;
//   single  one value, given once;
//   axis    one value, given once — except on campaign and merge, where the
//           value is a comma list and the flag may repeat, and the campaign
//           runs the cartesian product of its axes (--dist only repeats:
//           its own syntax uses commas);
//   multi   repeats on every command (--crash also takes comma lists).
// Values are parsed with checks: garbage, trailing junk, out-of-range and
// non-finite numbers, and unknown or incoherent forms are usage errors
// (status 2), never a silent fallback. Value syntax:
//   distribution  F:l | U:a,b | G:pf,min,max (geometric) | P:lambda,max
//   adversary     full | partial:<f>[:honest] | timing (coverage f in [0,1];
//                 ":honest" leaves the receiver uncompromised)
//   topology      complete | ring:<k> | regular:<d>[:<seed>] | tiered:<t>
//                 | trust:<decay>; parameters out of range for N are an error
//   routing       walk (default) | kpaths[:<k>] (planned k-shortest paths;
//                 onion mode and a non-timing adversary)
//   churn         0 (static) | <down_rate>[:<mean_downtime>] (seconds)
//   retry         <max>[:<timeout>[:<backoff>[:<max_timeout>]]] (0 = off)
//   mix failures  <count>[:<horizon>[:<mean_duration>]] (0 = off)
//   crash         <node>:<start>:<duration> (a campaign applies it to every
//                 cell; a node outside some cell's N fails that cell into
//                 its error column instead of killing the sweep)
//   law           uniform | zipf:<s> (s > 0)
//   attack        none | intersection | sda | bayes (sequential_bayes)
//   stream        exact | sketch (count-min counts plus a bottom-k
//                 candidate reservoir; sda only)

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/anonymity/analytic.hpp"
#include "src/anonymity/monte_carlo.hpp"
#include "src/anonymity/optimizer.hpp"
#include "src/anonymity/path_sampler.hpp"
#include "src/attack/disclosure.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/net/churn.hpp"
#include "src/net/route_plan.hpp"
#include "src/net/topology.hpp"
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
#include "src/stats/token_codec.hpp"
#include "src/workload/population.hpp"
#include "src/workload/streaming.hpp"

namespace {

using namespace anonpath;

/// Prints `error: <msg>` (when given) and the usage text, then exits 2.
[[noreturn]] void usage(const std::string& msg = {});

struct options;

/// A subcommand: its name, its bit in the flag table, and its entry point.
struct command {
  const char* name;
  unsigned bit;
  int (*run)(const options&);
  const char* help;
};

struct options {
  const command* cmd = nullptr;
  std::uint32_t n = 100;
  std::uint32_t c = 1;
  std::optional<path_length_distribution> dist;
  double mean = 5.0;
  std::uint32_t messages = 2000;
  bool messages_set = false;  ///< campaign defaults to 500 messages
  std::uint64_t seed = 1;
  bool breakdown = false;
  std::uint64_t samples = 100000;
  unsigned threads = 0;
  std::uint64_t shards = 0;
  // Axes: every value seen (comma lists and repeats on campaign/merge, at
  // most one value elsewhere; --n, --c and --dist also keep it in the
  // scalars above).
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
  std::uint32_t shard_count = 0; ///< campaign: total shards (0 = unsharded)
  std::vector<std::string> input_paths;  ///< merge: shard journals
  std::uint32_t replicas = 8;
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
  workload::popularity_law sender_law{};
  workload::popularity_law receiver_law{};
  bool receiver_law_set = false;
  std::uint32_t every = 0;            ///< attack: trajectory stride (0=auto)
  // Route-planning diagnostics surface (the 'plan' command).
  bool plan_components = false;       ///< plan: run connected components
  std::uint32_t plan_source = 0;      ///< plan: Dijkstra source node
  std::uint32_t plan_routes = 100;    ///< plan: routes to extract/plan
  // Observability surface (src/obs). Off by default: no registry, no
  // tracer, no heartbeat — default runs stay byte-identical.
  std::string metrics_path;  ///< --metrics: JSONL snapshot file ("" = off)
  bool progress = false;     ///< --progress: stderr heartbeat with ETA
};

// The checked scalar parsers every number on the command line goes
// through: "--messages foo" or "--threads 4x" must exit loudly, never
// silently become 0 (the historical atoi behavior) or 4.

double parse_double_or_die(const std::string& tok, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &end);
  // Finite only: overflow ("1e999" -> HUGE_VAL with ERANGE) and explicit
  // inf/nan spellings are never meaningful values for these flags.
  if (tok.empty() || end == tok.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v))
    usage("bad " + what + " (want a finite number)");
  return v;
}

std::uint32_t parse_u32_or_die(const std::string& tok,
                               const std::string& what) {
  std::uint64_t v = 0;
  if (stats::parse_u64(tok, v) != stats::u64_parse::ok || v > 0xFFFFFFFFull)
    usage("bad " + what + " (want an unsigned 32-bit integer)");
  return static_cast<std::uint32_t>(v);
}

std::uint64_t parse_u64_or_die(const std::string& tok,
                               const std::string& what) {
  std::uint64_t v = 0;
  if (stats::parse_u64(tok, v) != stats::u64_parse::ok)
    usage("bad " + what + " (want an unsigned 64-bit integer)");
  return v;
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

/// One value handed to a flag's parser: the text and the flag's spelling,
/// so the checked parses name the flag in their diagnostics.
struct arg {
  const std::string& text;
  const char* flag;

  [[nodiscard]] std::uint32_t u32() const {
    return parse_u32_or_die(text, flag);
  }
  [[nodiscard]] std::uint64_t u64() const {
    return parse_u64_or_die(text, flag);
  }
  [[nodiscard]] double real() const { return parse_double_or_die(text, flag); }
  /// u32() that must be at least `min`.
  [[nodiscard]] std::uint32_t u32_at_least(std::uint32_t min) const {
    const std::uint32_t v = u32();
    if (v < min)
      fail(min == 1 ? "must be > 0" : "must be >= " + std::to_string(min));
    return v;
  }
  [[noreturn]] void fail(const std::string& why) const {
    usage(std::string(flag) + " " + why);
  }
};

/// Path lengths are whole unsigned integers, and each family's shape is
/// checked before the distribution is built, so a bad spec is a usage
/// error rather than a library precondition failure.
path_length_distribution parse_dist(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) usage("bad --dist (missing ':')");
  const std::string kind = spec.substr(0, colon);
  const auto v = split_on(spec.substr(colon + 1), ',');
  const auto len = [&v](std::size_t i) {
    return parse_u32_or_die(v[i], "--dist path length");
  };
  const auto real = [&v](std::size_t i) {
    return parse_double_or_die(v[i], "--dist parameter");
  };
  if (kind == "F" && v.size() == 1)
    return path_length_distribution::fixed(len(0));
  if (kind == "U" && v.size() == 2) {
    const path_length a = len(0), b = len(1);
    if (a > b) usage("--dist U:a,b needs a <= b");
    return path_length_distribution::uniform(a, b);
  }
  if (kind == "G" && v.size() == 3) {
    const double pf = real(0);
    const path_length lo = len(1), hi = len(2);
    if (!(pf >= 0.0 && pf < 1.0) || lo > hi)
      usage("--dist G:pf,min,max needs 0 <= pf < 1 and min <= max");
    return path_length_distribution::geometric(pf, lo, hi);
  }
  if (kind == "P" && v.size() == 2) {
    // exp(-lambda) is the first unnormalised weight; once it underflows to
    // zero (lambda above ~745) the truncated pmf cannot be normalised.
    const double lambda = real(0);
    if (!(lambda > 0.0) || std::exp(-lambda) == 0.0)
      usage("--dist P:lambda,max needs lambda > 0 with exp(-lambda) > 0");
    return path_length_distribution::poisson(lambda, len(1));
  }
  usage("unrecognized --dist form");
}

routing_mode parse_mode(const std::string& spec) {
  if (spec == "onion" || spec == "source_routed")
    return routing_mode::source_routed;
  if (spec == "crowds" || spec == "hop_by_hop") return routing_mode::hop_by_hop;
  usage("--mode values are onion|crowds");
}

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
    const auto args = split_on(spec.substr(8), ':');
    if (args.size() > 2 || (args.size() == 2 && args[1] != "honest"))
      usage("bad --adversary (want partial:<f>[:honest])");
    cfg.coverage_fraction =
        parse_double_or_die(args[0], "--adversary coverage fraction");
    if (!cfg.valid()) usage("bad --adversary coverage fraction");
    cfg.receiver_compromised = args.size() == 1;
    return cfg;
  }
  usage("--adversary values are full|partial:<f>[:honest]|timing");
}

net::topology_config parse_topology(const std::string& spec) {
  net::topology_config cfg;
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  std::vector<std::string> args;
  if (colon != std::string::npos)
    args = split_on(spec.substr(colon + 1), ':');
  const auto as_u32 = [](const std::string& tok) {
    return parse_u32_or_die(tok, "--topology parameter");
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
    // The wiring seed is a full 64-bit value (matches graph_seed and the
    // trace format), unlike the 32-bit structural parameters.
    if (args.size() == 2)
      cfg.graph_seed = parse_u64_or_die(args[1], "--topology regular seed");
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
    cfg.trust_decay = parse_double_or_die(args[0], "--topology trust decay");
    if (cfg.trust_decay <= 0.0 || cfg.trust_decay > 1.0)
      usage("--topology trust:<decay> needs decay in (0, 1]");
    return cfg;
  }
  usage(
      "--topology values are "
      "complete|ring:<k>|regular:<d>[:<seed>]|tiered:<t>|trust:<decay>");
}

workload::popularity_law parse_law(const arg& a) {
  workload::popularity_law law;
  if (a.text == "uniform") return law;
  if (a.text.rfind("zipf:", 0) == 0) {
    law.kind = workload::popularity_kind::zipf;
    law.exponent = parse_double_or_die(a.text.substr(5),
                                       std::string(a.flag) + " exponent");
    if (!law.valid()) a.fail("wants zipf:<s> with s > 0");
    return law;
  }
  a.fail("values are uniform|zipf:<s>");
}

attack::attack_kind parse_attack(const std::string& spec) {
  const auto kind = attack::parse_attack_kind(spec);
  if (!kind) usage("--attack values are none|intersection|sda|bayes");
  return *kind;
}

workload::stream_backend parse_stream(const std::string& spec) {
  const auto backend = workload::parse_stream_backend(spec);
  if (!backend) usage("--stream values are exact|sketch");
  return *backend;
}

net::churn_config parse_churn(const std::string& spec) {
  net::churn_config cfg;
  const auto colon = spec.find(':');
  cfg.down_rate = parse_double_or_die(spec.substr(0, colon), "--churn rate");
  if (cfg.down_rate < 0.0)
    usage("bad --churn (want 0 or <down_rate>[:<mean_downtime>])");
  if (colon != std::string::npos) {
    cfg.mean_downtime =
        parse_double_or_die(spec.substr(colon + 1), "--churn mean downtime");
    if (cfg.mean_downtime <= 0.0) usage("--churn mean downtime must be > 0");
  }
  if (!cfg.valid()) usage("--churn parameters out of range");
  return cfg;
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

// The analytic engines' system rules, refused as usage errors before any
// engine precondition sees them; worded as sim::config_problem words its.

/// The closed forms (degree, optimize, figures) hold for N >= 5 with C = 1.
void require_closed_form_n(const options& opt) {
  if (opt.n < 5)
    usage("N >= 5 (the closed forms need it; smaller systems are the "
          "brute-force analyzer's)");
}

/// A simple path over N nodes has at most N-1 intermediates. Precondition:
/// opt.n >= 1.
void require_simple_lengths(const options& opt,
                            const path_length_distribution& d) {
  if (d.max_length() > opt.n - 1)
    usage("path lengths <= N-1 (a simple path has at most N-1 "
          "intermediates)");
}

int cmd_degree(const options& opt) {
  require_closed_form_n(opt);
  const system_params sys{opt.n, 1};
  const auto d = opt.dist.value_or(path_length_distribution::fixed(3));
  require_simple_lengths(opt, d);
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
  if (opt.n < 2) usage("N >= 2 nodes");
  if (opt.c >= opt.n) usage("C < N (an honest sender must exist)");
  const system_params sys{opt.n, opt.c};
  const auto d = opt.dist.value_or(path_length_distribution::uniform(1, 10));
  const std::vector<node_id> compromised = spread_compromised(opt.n, opt.c);
  const net::topology_config topo =
      opt.topology_list.empty() ? net::topology_config{}
                                : opt.topology_list.front();
  const bool clique = topo.kind == net::topology_kind::complete;
  if (clique) {
    // The clique engine scores simple paths; walks on a graph may be longer.
    require_simple_lengths(opt, d);
  } else if (!topo.valid_for(opt.n)) {
    usage("--topology parameters out of range for --n");
  }
  mc_config cfg;
  cfg.threads = opt.threads;
  cfg.shards = opt.shards;
  const auto t0 = std::chrono::steady_clock::now();
  const auto est = estimate_anonymity_degree(sys, compromised, d, opt.samples,
                                             opt.seed, cfg, topo);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  if (clique) {
    std::printf("MC estimate for %s on N=%u, C=%u:\n", d.label().c_str(),
                opt.n, opt.c);
  } else {
    std::printf("MC walk-model estimate for %s on N=%u, C=%u, topology %s:\n",
                d.label().c_str(), opt.n, opt.c, topo.label().c_str());
  }
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
  require_closed_form_n(opt);
  const system_params sys{opt.n, 1};
  const auto cap = static_cast<path_length>(opt.n - 1);
  if (!(opt.mean >= 0.0 && opt.mean <= cap))
    usage("0 <= mean <= N-1 (a path has 0 to N-1 intermediates)");
  const auto r = optimize_for_mean(sys, opt.mean, cap);
  std::printf("optimal distribution for N=%u, E[L]=%.2f: H* = %.6f bits\n",
              opt.n, opt.mean, r.degree);
  const auto& pmf = r.distribution.dense_pmf();
  for (path_length l = 0; l < pmf.size(); ++l)
    if (pmf[l] > 1e-9) std::printf("  Pr[L=%3u] = %.6f\n", l, pmf[l]);
  return 0;
}

/// The scenario grid the flags describe, with `messages` per run:
/// 'campaign' and 'merge' sweep it, 'simulate' and 'capture' run its one
/// cell (the flag parser allows them one value per axis). Refused here is
/// only what no single config can judge: a flag given without the flags it
/// needs, and out-of-range axis values. Which configs can run is
/// sim::config_problem's to say.
sim::campaign_grid flag_grid(const options& opt, std::uint32_t messages) {
  if (opt.receiver_law_set && opt.population_list.empty() &&
      opt.rounds_list.empty())
    usage(std::string("--receiver-law on '") + opt.cmd->name +
          "' needs session axes (--population/--rounds); it is the "
          "session destination law");
  // Session axes must be swept together: a --population axis with no
  // --rounds axis (or vice versa) would make every session cell incoherent
  // and silently filter the sweep the user asked for down to its
  // session-less cells.
  const auto any_not = [](const auto& axis, auto off) {
    return std::ranges::any_of(axis, [off](auto v) { return v != off; });
  };
  const bool wants_rounds = any_not(opt.rounds_list, 0u);
  if (any_not(opt.population_list, 0u) != wants_rounds)
    usage("session axes come in pairs: sweep --population and --rounds "
          "together (zeros in either list mean 'session off' cells)");
  if (any_not(opt.attack_list, attack::attack_kind::none) && !wants_rounds)
    usage(std::string("--attack on '") + opt.cmd->name +
          "' needs the session axes (--population/--rounds)");
  // A sketch backend only pairs with sda cells; demanding the sda axis up
  // front beats silently filtering every sketch cell out as infeasible.
  if (any_not(opt.stream_list, workload::stream_backend::exact) &&
      std::ranges::find(opt.attack_list, attack::attack_kind::sda) ==
          opt.attack_list.end())
    usage(std::string("--stream sketch on '") + opt.cmd->name +
          "' needs sda on the --attack axis (the sketch backend exists "
          "for the counting attack only)");
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
  grid.message_count = messages;
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
  return grid;
}

/// The one config 'simulate' and 'capture' run: the flags' one-cell grid,
/// with simulate's defaults (U(1,8) path lengths, 2000 messages).
sim::sim_config simulate_config(const options& opt) {
  sim::campaign_grid grid = flag_grid(opt, opt.messages);
  if (opt.dist_list.empty())
    grid.lengths = {path_length_distribution::uniform(1, 8)};
  const sim::scenario cell = sim::first_cell(grid);
  if (const char* problem =
          sim::config_problem(sim::scenario_base_config(cell, grid)))
    usage(problem);
  return sim::scenario_config(cell, grid, opt.seed);
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
    sim::record_report(reg, 0, r);
    obs::write_metrics_file(opt.metrics_path, reg.snapshot(), tracer.spans());
  }
  return 0;
}

int cmd_capture(const options& opt) {
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
sim::campaign_grid build_campaign_grid(const options& opt) {
  const sim::campaign_grid grid =
      flag_grid(opt, opt.messages_set ? opt.messages : 500);
  // Surface an empty grid as a usage error here; run_campaign's internal
  // precondition is not a user-facing message.
  if (sim::expand_grid(grid).empty())
    usage(std::string("campaign grid has no feasible cells; its first cell "
                      "breaks the rule: ") +
          sim::cell_problem(sim::first_cell(grid), grid));
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
  obs::tracer tracer;
  obs::tracer* const tp = opt.metrics_path.empty() ? nullptr : &tracer;
  // Every phase nests under this one root, closed before the snapshot is
  // written: grid expansion, the cell runs, and the CSV rendering.
  std::optional<obs::span> root(std::in_place, tp, "campaign.run");
  std::optional<obs::span> grid_span(std::in_place, tp, "campaign.grid");
  const sim::campaign_grid grid = build_campaign_grid(opt);
  sim::campaign_config cfg = build_campaign_config(opt);
  if (opt.resume && opt.checkpoint_path.empty())
    usage("--resume requires --checkpoint <file>");
  if (opt.shard_count != 0) {
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
  grid_span.reset();

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = [&] {
    obs::span span(tp, "campaign.cells");
    return sim::run_campaign(grid, cfg);
  }();
  const auto t1 = std::chrono::steady_clock::now();
  // Pure CSV on stdout (diffable across runs and thread counts); the run
  // synopsis goes to stderr.
  std::ostringstream csv;
  {
    obs::span span(tp, "campaign.write");
    sim::write_csv(result, csv);
  }
  root.reset();
  // The snapshot is written before the CSV so a sharded campaign's
  // journal + metrics pair stays consistent even if stdout later fails;
  // the write itself is checked (parse_error{io} exits nonzero).
  if (!opt.metrics_path.empty())
    obs::write_metrics_file(opt.metrics_path, registry.snapshot(),
                            tracer.spans());
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();

  std::cout << csv.str();
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
  // The grid/config flags must repeat the sharded runs' flags exactly:
  // the scope fingerprint recomputed here is what authenticates the
  // shard journals as belonging to this campaign.
  const sim::campaign_grid grid = build_campaign_grid(opt);
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
  if (opt.attack_list.empty() ||
      opt.attack_list.front() == attack::attack_kind::none)
    usage("attack requires --attack intersection|sda|bayes");
  const attack::attack_kind kind = opt.attack_list.front();
  // --stream sketch also runs the sketch-backed engine, which only the
  // counting attack defines; the trajectory always comes from the exact one.
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
  // Every phase below (the exact session, the sketch session) nests under
  // this one root, closed before the snapshot is written.
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
  std::vector<attack::disclosure_attack*> engines{engine.get()};
  std::optional<attack::sketch_sda_attack> sketch;
  if (stream == workload::stream_backend::sketch)
    engines.push_back(&sketch.emplace(cfg.receiver_count));
  const std::uint32_t stride =
      opt.every != 0 ? opt.every : std::max(1u, cfg.round_count / 100);

  obs::progress_meter progress("attack rounds", cfg.round_count,
                               opt.progress);
  progress.advance(0);
  // The engines share one pass over the round stream, one attack.ingest
  // span.
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<attack::attack_result> results = [&] {
    obs::span ingest_span(tp, "attack.ingest");
    return attack::run_workload_attack(pop, 0, engines, opt.threshold,
                                       stride);
  }();
  const attack::attack_result& result = results.front();
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

  if (sketch) {
    // The sketch backend's session over the same round stream.
    const attack::attack_result& sres = results.back();
    if (tp != nullptr) {
      reg.set_gauge("stream.memory_bytes",
                    static_cast<double>(sketch->memory_bytes()));
      reg.set_gauge("stream.sketch_occupied_cells",
                    static_cast<double>(sketch->occupied_cells()));
      reg.set_gauge("stream.candidates_retained",
                    static_cast<double>(sketch->candidates().size()));
      // Ingest-order-dependent telemetry: recorded only on this
      // single-threaded session, never compared across thread counts.
      reg.add_counter("stream.reservoir_evictions",
                      sketch->reservoir_evictions());
    }
    std::fprintf(stderr,
                 "# sketch posterior (%s, %zu candidates%s): top receiver "
                 "%u (%s exact), H = %.4f bits\n",
                 sketch->params().label().c_str(),
                 sketch->candidates().size(),
                 sketch->candidates_saturated() ? ", saturated" : "",
                 sres.top_receiver,
                 sres.top_receiver == result.top_receiver ? "matches"
                                                          : "DIFFERS from",
                 sres.entropy_bits);
  }
  root.reset();
  if (tp != nullptr)
    obs::write_metrics_file(opt.metrics_path, reg.snapshot(), tracer.spans());
  return 0;
}

/// Graph-scale diagnostics: builds the topology, runs one full Dijkstra
/// tree, extracts --routes shortest routes to seeded random targets, and —
/// when --routing kpaths is given — plans the same number of
/// k-shortest-path routes through net::route_planner. This is the CI smoke
/// for million-node graph construction and route planning; all timings go
/// to stdout so regressions are visible in logs.
int cmd_plan(const options& opt) {
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
    return net::topology::make(opt.n, topo_cfg);
  }();
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("built %s: N=%u, %llu edges, csr storage, %.3f s\n",
              topo_cfg.label().c_str(), opt.n,
              static_cast<unsigned long long>(topo.edge_count()),
              elapsed(t0, t1));

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
  require_closed_form_n(opt);
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

// ---- the command and flag tables ------------------------------------------

/// One bit per command; a flag row names the commands that read it.
enum : unsigned {
  k_degree = 1u << 0,
  k_estimate = 1u << 1,
  k_optimize = 1u << 2,
  k_simulate = 1u << 3,
  k_campaign = 1u << 4,
  k_merge = 1u << 5,
  k_capture = 1u << 6,
  k_replay = 1u << 7,
  k_attack = 1u << 8,
  k_plan = 1u << 9,
  k_figures = 1u << 10,
  k_grid = k_campaign | k_merge,    ///< axes take comma lists and repeat here
  k_sim = k_simulate | k_capture | k_grid,  ///< the simulator's config
  k_obs = k_simulate | k_campaign | k_merge | k_attack | k_plan,
};

const command k_commands[] = {
    {"degree", k_degree, cmd_degree, "closed-form H* of a strategy, C = 1"},
    {"estimate", k_estimate, cmd_estimate,
     "Monte-Carlo H* for any C (walk model on a restricted graph)"},
    {"optimize", k_optimize, cmd_optimize,
     "optimal length distribution for a target mean"},
    {"simulate", k_simulate, cmd_simulate,
     "one discrete-event simulator run, scored"},
    {"campaign", k_campaign, cmd_campaign,
     "scenario-grid sweep on the simulator; CSV to stdout"},
    {"merge", k_merge, cmd_merge,
     "combine shard journals into the unsharded CSV (same grid flags)"},
    {"capture", k_capture, cmd_capture,
     "one simulator run, writing the adversary's event trace"},
    {"replay", k_replay, cmd_replay,
     "re-score a captured trace offline (same output as simulate)"},
    {"attack", k_attack, cmd_attack,
     "longitudinal disclosure attack on a population workload"},
    {"plan", k_plan, cmd_plan,
     "graph build and route-planning diagnostics at scale"},
    {"figures", k_figures, cmd_figures, "dump the paper's figures as CSV"},
};

enum class shape { toggle, single, axis, multi };

struct flag_row {
  const char* name;
  shape kind;
  const char* value;  ///< the value's syntax ("" for a switch)
  unsigned commands;  ///< the commands that read the flag
  void (*apply)(options&, const arg&);
  const char* help;
  bool comma_list = true;     ///< axis/multi: a value is a comma list
  bool inline_value = false;  ///< also spelled <name>=<value>
};

/// The apply of an axis row that only parses a value into its list.
template <auto list, auto parse_value>
void append(options& o, const arg& a) {
  (o.*list).push_back(parse_value(a.text));
}

const flag_row k_flags[] = {
    // Network and strategy.
    {"--n", shape::axis, "<nodes>",
     k_degree | k_estimate | k_optimize | k_sim | k_plan | k_figures,
     [](options& o, const arg& a) { o.n_list.push_back(o.n = a.u32()); },
     "node count N (default 100)"},
    {"--c", shape::axis, "<compromised>", k_estimate | k_sim,
     [](options& o, const arg& a) { o.c_list.push_back(o.c = a.u32()); },
     "compromised node count C (default 1)"},
    {"--dist", shape::axis, "F:l | U:a,b | G:pf,min,max | P:lambda,max",
     k_degree | k_estimate | k_sim,
     [](options& o, const arg& a) {
       o.dist_list.push_back(*(o.dist = parse_dist(a.text)));
     },
     "path lengths: fixed, uniform, geometric, truncated Poisson", false},
    {"--mean", shape::single, "<E[L]>", k_optimize,
     [](options& o, const arg& a) { o.mean = a.real(); },
     "target expected path length (default 5)"},
    {"--mode", shape::axis, "onion | crowds", k_sim,
     append<&options::mode_list, parse_mode>,
     "source-routed onion or hop-by-hop crowds forwarding (default onion)"},
    {"--adversary", shape::axis, "full | partial:<f>[:honest] | timing", k_sim,
     append<&options::adversary_list, parse_adversary>,
     "threat model (default full)"},
    {"--topology", shape::axis,
     "complete | ring:<k> | regular:<d>[:<seed>] | tiered:<t> | trust:<decay>",
     k_estimate | k_sim | k_plan,
     append<&options::topology_list, parse_topology>,
     "network graph (default complete)"},
    {"--routing", shape::axis, "walk | kpaths[:<k>]", k_sim | k_plan,
     append<&options::routing_list, parse_routing>,
     "random walk, or planned k-shortest paths (k in 1..64)"},
    {"--churn", shape::axis, "0 | <down_rate>[:<mean_downtime>]", k_sim,
     append<&options::churn_list, parse_churn>,
     "node churn (default 0, static)"},
    // Simulator runs.
    {"--messages", shape::single, "<k>", k_sim,
     [](options& o, const arg& a) {
       o.messages = a.u32_at_least(1);
       o.messages_set = true;
     },
     "messages per run (default 2000; campaign/merge 500)"},
    {"--seed", shape::single, "<s>", k_estimate | k_sim | k_attack | k_plan,
     [](options& o, const arg& a) { o.seed = a.u64(); },
     "master seed (default 1)"},
    {"--drop", shape::axis, "<p>", k_sim,
     [](options& o, const arg& a) { o.drop_list.push_back(a.real()); },
     "link-loss probability in [0, 1) (default 0)"},
    {"--rate", shape::axis, "<msgs/s>", k_grid,
     [](options& o, const arg& a) { o.rate_list.push_back(a.real()); },
     "Poisson message arrival rate, > 0 (default 50)"},
    {"--retry", shape::axis, "<max>[:<timeout>[:<backoff>[:<max_timeout>]]]",
     k_sim, append<&options::retry_list, parse_retry>,
     "sender retransmission with capped backoff (default 0, off)"},
    {"--mix-failures", shape::axis, "<count>[:<horizon>[:<mean_duration>]]",
     k_sim, append<&options::mixfail_list, parse_mixfail>,
     "seeded mix failures (default 0, off; horizon 0 = auto)"},
    {"--crash", shape::multi, "<node>:<start>:<duration>", k_sim,
     append<&options::crash_list, parse_crash>,
     "an explicit node outage; a campaign applies it to every cell"},
    {"--threshold", shape::single, "<x>", k_sim | k_attack,
     [](options& o, const arg& a) {
       o.threshold = a.real();
       if (!(o.threshold >= 0.0 && o.threshold <= 1.0))
         a.fail("must be in [0, 1]");
     },
     "posterior mass counted as identified (default 0.99; attack: (0, 1))"},
    // Sessions and the attack workload.
    {"--population", shape::axis, "<P>", k_sim | k_attack,
     [](options& o, const arg& a) { o.population_list.push_back(a.u32()); },
     "session receivers (0 = no session; attack: default the user count)"},
    {"--rounds", shape::axis, "<R>", k_sim | k_attack,
     [](options& o, const arg& a) { o.rounds_list.push_back(a.u32()); },
     "session mix rounds (0 = no session; attack: default 200)"},
    {"--attack", shape::axis, "none | intersection | sda | bayes",
     k_sim | k_attack, append<&options::attack_list, parse_attack>,
     "longitudinal disclosure attack"},
    {"--stream", shape::axis, "exact | sketch", k_sim | k_attack,
     append<&options::stream_list, parse_stream>,
     "sda accumulator backend (attack: sketch also runs the sketch engine)"},
    {"--receiver-law", shape::single, "uniform | zipf:<s>", k_sim | k_attack,
     [](options& o, const arg& a) {
       o.receiver_law = parse_law(a);
       o.receiver_law_set = true;
     },
     "receiver popularity law (default uniform)"},
    {"--sender-law", shape::single, "uniform | zipf:<s>", k_attack,
     [](options& o, const arg& a) { o.sender_law = parse_law(a); },
     "sender popularity law (default uniform)"},
    {"--users", shape::single, "<U>", k_attack,
     [](options& o, const arg& a) { o.users = a.u32_at_least(2); },
     "sender population (default 1000)"},
    {"--pairs", shape::single, "<M>", k_attack,
     [](options& o, const arg& a) { o.pairs = a.u32_at_least(1); },
     "persistent sender-receiver pairs (default 1)"},
    {"--round-size", shape::single, "<B>", k_attack,
     [](options& o, const arg& a) { o.round_size = a.u32_at_least(1); },
     "threshold-mix batch size (default 32)"},
    {"--send-rate", shape::single, "<p>", k_attack,
     [](options& o, const arg& a) {
       o.send_rate = a.real();
       if (!(o.send_rate >= 0.0 && o.send_rate <= 1.0))
         a.fail("must be in [0, 1]");
     },
     "per-round send probability of a pair (default 1)"},
    {"--every", shape::single, "<k>", k_attack,
     [](options& o, const arg& a) { o.every = a.u32_at_least(1); },
     "trajectory stride in rounds (default rounds/100)"},
    // Campaign execution.
    {"--replicas", shape::single, "<r>", k_grid,
     [](options& o, const arg& a) { o.replicas = a.u32_at_least(1); },
     "replicas per cell (default 8)"},
    {"--threads", shape::single, "<t>", k_estimate | k_campaign | k_attack,
     [](options& o, const arg& a) { o.threads = a.u32(); },
     "worker threads (default 0, all cores; attack: unused, its engines "
     "are sequential)"},
    {"--via-trace", shape::toggle, "", k_campaign,
     [](options& o, const arg&) { o.via_trace = true; },
     "score every run through a captured trace"},
    {"--checkpoint", shape::single, "<file>", k_grid,
     [](options& o, const arg& a) { o.checkpoint_path = a.text; },
     "crash-resumable journal (merge: also write the merged journal)"},
    {"--resume", shape::toggle, "", k_campaign,
     [](options& o, const arg&) { o.resume = true; },
     "adopt the journal's finished cells"},
    {"--shard", shape::single, "<i>/<n>", k_campaign,
     [](options& o, const arg& a) { parse_shard(a.text, o); },
     "run only the cells with index = i mod n (needs a journal)"},
    {"--input", shape::multi, "<file>", k_merge,
     [](options& o, const arg& a) { o.input_paths.push_back(a.text); },
     "a shard journal to combine (one per shard)", false},
    // Trace capture and replay.
    {"--out", shape::single, "<file>", k_capture,
     [](options& o, const arg& a) { o.out_path = a.text; },
     "trace destination (default stdout)"},
    {"--in", shape::single, "<file>", k_replay,
     [](options& o, const arg& a) { o.in_path = a.text; },
     "the trace to re-score"},
    // Analytic and Monte-Carlo engines.
    {"--breakdown", shape::toggle, "", k_degree,
     [](options& o, const arg&) { o.breakdown = true; },
     "split H* by event class"},
    {"--samples", shape::single, "<k>", k_estimate,
     [](options& o, const arg& a) {
       if ((o.samples = a.u64()) == 0) a.fail("must be > 0");
     },
     "Monte-Carlo samples (default 100000)"},
    {"--shards", shape::single, "<k>", k_estimate,
     [](options& o, const arg& a) { o.shards = a.u64(); },
     "Monte-Carlo work shards (default 0, auto)"},
    // Route-planning diagnostics. perfbench/run.py still passes --csr.
    {"--csr", shape::toggle, "", k_plan, [](options&, const arg&) {},
     "accepted; has no effect (every graph is CSR)"},
    {"--components", shape::toggle, "", k_plan,
     [](options& o, const arg&) { o.plan_components = true; },
     "count connected components"},
    {"--source", shape::single, "<u>", k_plan,
     [](options& o, const arg& a) { o.plan_source = a.u32(); },
     "Dijkstra source node (default 0)"},
    {"--routes", shape::single, "<r>", k_plan,
     [](options& o, const arg& a) { o.plan_routes = a.u32_at_least(1); },
     "routes to extract and plan (default 100)"},
    // Observability.
    {"--metrics", shape::single, "<file>", k_obs,
     [](options& o, const arg& a) {
       if ((o.metrics_path = a.text).empty()) a.fail("wants a file path");
     },
     "write a JSONL metrics snapshot (merge: of the shards' FILE.metrics)",
     false, true},
    {"--progress", shape::toggle, "", k_obs,
     [](options& o, const arg&) { o.progress = true; },
     "'# progress:' heartbeat with ETA on stderr"},
};

/// The command usage() is scoped to once parse() has resolved it.
const command* usage_command = nullptr;

void usage(const std::string& msg) {
  if (!msg.empty()) std::fprintf(stderr, "error: %s\n\n", msg.c_str());
  std::string names;
  for (const command& c : k_commands)
    names += (names.empty() ? "" : "|") + std::string(c.name);
  std::fprintf(stderr, "usage: anonpath <%s> [options]\n\n", names.c_str());
  for (const command& c : k_commands) {
    if (usage_command != nullptr && usage_command != &c) continue;
    std::fprintf(stderr, "  %-9s %s\n", c.name, c.help);
    std::string line = "           ";
    for (const flag_row& f : k_flags) {
      if ((f.commands & c.bit) == 0) continue;
      if (line.size() + std::strlen(f.name) > 78) {
        std::fprintf(stderr, "%s\n", line.c_str());
        line = "           ";
      }
      line += ' ';
      line += f.name;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  std::fprintf(
      stderr,
      "\nA flag its command does not read is refused. An axis takes one "
      "value, except\non campaign and merge, where it takes a comma list "
      "and may repeat; a multi\nflag repeats on every command.\n\n");
  static constexpr const char* shape_tag[] = {"", "", " [axis]", " [multi]"};
  for (const flag_row& f : k_flags) {
    if (usage_command != nullptr && (f.commands & usage_command->bit) == 0)
      continue;
    std::string spec = f.name;
    if (*f.value != '\0') spec += std::string(" ") + f.value;
    if (f.inline_value) spec += std::string(" | ") + f.name + "=" + f.value;
    std::fprintf(stderr, "  %s%s\n      %s\n", spec.c_str(),
                 shape_tag[static_cast<int>(f.kind)], f.help);
  }
  std::exit(2);
}

/// Resolves the command, then reads each flag through its table row. A
/// flag the command does not read, a second copy of a flag that does not
/// repeat, and a list given to an axis outside campaign/merge are usage
/// errors, each refused here and nowhere else.
options parse(int argc, char** argv) {
  if (argc < 2) usage();
  options opt;
  for (const command& c : k_commands)
    if (argv[1] == std::string(c.name)) opt.cmd = &c;
  if (opt.cmd == nullptr) usage(std::string("unknown command ") + argv[1]);
  usage_command = opt.cmd;
  const bool sweep = (opt.cmd->bit & k_grid) != 0;
  bool seen[std::size(k_flags)] = {};
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    const std::string name = token.substr(0, token.find('='));
    const bool inline_value = name.size() < token.size();
    const flag_row* f = nullptr;
    for (const flag_row& row : k_flags)
      if (name == row.name && (!inline_value || row.inline_value)) f = &row;
    if (f == nullptr) usage("unknown flag " + token);
    if ((f->commands & opt.cmd->bit) == 0) {
      std::string readers;
      for (const command& c : k_commands)
        if (f->commands & c.bit) readers += std::string(" ") + c.name;
      usage(name + " does not apply to '" + opt.cmd->name + "' (read by:" +
            readers + ")");
    }
    std::string value;
    if (inline_value) {
      value = token.substr(name.size() + 1);
    } else if (f->kind != shape::toggle) {
      if (i + 1 >= argc) usage("missing value for " + name);
      value = argv[++i];
    }
    const bool axis = f->kind == shape::axis;
    const std::vector<std::string> items =
        (axis || f->kind == shape::multi) && f->comma_list
            ? split_on(value, ',')
            : std::vector<std::string>{value};
    bool& given = seen[f - k_flags];
    if (!(f->kind == shape::multi || (axis && sweep)) &&
        (given || items.size() > 1))
      usage(name + (axis ? " takes one value here (comma lists and repeats "
                           "are campaign/merge axes)"
                         : " given twice"));
    given = true;
    for (const std::string& item : items) f->apply(opt, arg{item, f->name});
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // A reader that closes the pipe must surface as a checked write failure
  // (EPIPE -> bad stream state below), not kill the process mid-output
  // with no diagnostic and no exit code of ours.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  int rc;
  try {
    // Parsing builds distributions, so it can throw (std::bad_alloc for a
    // path length no memory holds); that is an error exit, never an abort.
    const options opt = parse(argc, argv);
    rc = opt.cmd->run(opt);
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
