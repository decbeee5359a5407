// Topology comparison walkthrough: how much sender anonymity does the
// rerouting substrate itself buy or cost? The paper's model assumes a
// clique (every node forwards to every other node); this example holds
// N, C, and the length strategy fixed and swaps only the graph:
//
//   1. score each topology's H* by Monte Carlo (estimate_anonymity_degree:
//      the clique under the paper's simple-path model, every other graph
//      under the walk model, both pinned to their oracles by the
//      conformance suite);
//   2. run the full discrete-event simulator on the same graphs and
//      compare the adversary's empirical view;
//   3. turn on churn and watch messages strand at dead hops.
//
// Build: cmake --build build --target example_topology_comparison

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/anonymity/monte_carlo.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"

using namespace anonpath;

namespace {

constexpr std::uint32_t n = 30;
constexpr std::uint32_t c = 3;

std::vector<net::topology_config> lineup() {
  std::vector<net::topology_config> out;
  out.push_back(net::topology_config{});  // the paper's clique
  net::topology_config cfg;
  cfg.kind = net::topology_kind::ring;
  cfg.ring_k = 2;
  out.push_back(cfg);
  cfg = net::topology_config{};
  cfg.kind = net::topology_kind::random_regular;
  cfg.degree = 6;
  out.push_back(cfg);
  cfg = net::topology_config{};
  cfg.kind = net::topology_kind::tiered;
  cfg.tiers = 3;
  out.push_back(cfg);
  cfg = net::topology_config{};
  cfg.kind = net::topology_kind::trust_weighted;
  cfg.trust_decay = 0.4;
  out.push_back(cfg);
  return out;
}

}  // namespace

int main() {
  const auto d = path_length_distribution::uniform(1, 6);
  const auto compromised = spread_compromised(n, c);

  std::printf("Monte-Carlo H* by topology (N=%u, C=%u, %s; ceiling %.3f bits)\n",
              n, c, d.label().c_str(),
              std::log2(static_cast<double>(n)));
  std::printf("  %-14s %10s %10s %8s\n", "topology", "H* (bits)", "+/-95%",
              "degree");
  mc_config mc;
  mc.threads = 0;
  for (const auto& cfg : lineup()) {
    const auto est =
        estimate_anonymity_degree({n, c}, compromised, d, 40000, 7, mc, cfg);
    const auto topo = net::topology::make(n, cfg);
    std::printf("  %-14s %10.4f %10.4f %5u-%u\n", cfg.label().c_str(),
                est.degree, est.ci95(), topo.min_degree(),
                topo.max_degree());
  }

  std::printf("\nSimulated adversary view (2000 msgs each)\n");
  std::printf("  %-14s %10s %12s %10s\n", "topology", "H* (bits)",
              "identified%", "top1%");
  for (const auto& cfg : lineup()) {
    sim::sim_config sc;
    sc.sys = {n, c};
    sc.compromised = compromised;
    sc.lengths = d;
    sc.message_count = 2000;
    sc.arrival_rate = 200.0;
    sc.seed = 9;
    sc.topology = cfg;
    const auto r = sim::run_simulation(sc);
    std::printf("  %-14s %10.4f %11.1f%% %9.1f%%\n", cfg.label().c_str(),
                r.empirical_entropy_bits, 100.0 * r.identified_fraction,
                100.0 * r.top1_accuracy);
  }

  std::printf("\nChurn on the tiered graph (rate/s : mean downtime s)\n");
  std::printf("  %-14s %10s %10s\n", "churn", "delivered", "latency ms");
  for (const auto& churn :
       {net::churn_config{}, net::churn_config{0.2, 0.5},
        net::churn_config{1.0, 0.5}, net::churn_config{2.0, 1.0}}) {
    sim::sim_config sc;
    sc.sys = {n, c};
    sc.compromised = compromised;
    sc.lengths = d;
    sc.message_count = 2000;
    sc.arrival_rate = 200.0;
    sc.seed = 9;
    sc.topology.kind = net::topology_kind::tiered;
    sc.topology.tiers = 3;
    sc.faults.churn = churn;
    const auto r = sim::run_simulation(sc);
    std::printf("  %-14s %9.1f%% %10.1f\n", churn.label().c_str(),
                100.0 * static_cast<double>(r.delivered) /
                    static_cast<double>(r.submitted),
                r.end_to_end_latency.mean() * 1000.0);
  }
  return 0;
}
