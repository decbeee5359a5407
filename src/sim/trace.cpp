#include "src/sim/trace.hpp"

#include <bit>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/token_codec.hpp"

namespace anonpath::sim {

namespace {

constexpr char magic[] = "anonpath-trace";

using stats::put_hex_double;

[[noreturn]] void bad(parse_error_kind kind, const std::string& what) {
  throw parse_error(kind, "trace", what);
}

[[noreturn]] void bad(const std::string& what) {
  bad(parse_error_kind::malformed, what);
}

std::string next_token(std::istream& is, const char* context) {
  std::string tok;
  if (!(is >> tok))
    bad(parse_error_kind::truncated,
        std::string("truncated stream reading ") + context);
  return tok;
}

double get_double(std::istream& is, const char* context) {
  std::uint64_t bits = 0;
  if (!stats::parse_hex64(next_token(is, context), bits))
    bad(std::string("malformed double for ") + context);
  return std::bit_cast<double>(bits);
}

std::uint64_t get_u64(std::istream& is, const char* context) {
  std::uint64_t v = 0;
  switch (stats::parse_u64(next_token(is, context), v)) {
    case stats::u64_parse::ok:
      return v;
    case stats::u64_parse::malformed:
      bad(std::string("malformed integer for ") + context);
    case stats::u64_parse::overflow:
      break;
  }
  bad(parse_error_kind::out_of_range,
      std::string("integer out of range for ") + context);
}

std::uint32_t get_u32(std::istream& is, const char* context) {
  const std::uint64_t v = get_u64(is, context);
  if (v > 0xFFFFFFFFull)
    bad(parse_error_kind::out_of_range,
        std::string("integer out of range for ") + context);
  return static_cast<std::uint32_t>(v);
}

void expect_keyword(std::istream& is, const char* keyword) {
  const std::string tok = next_token(is, keyword);
  if (tok != keyword)
    bad("expected '" + std::string(keyword) + "', found '" + tok + "'");
}

/// Untrusted counts never become allocations: reserve at most this many
/// slots up front and let push_back grow past it — a lying count then hits
/// "truncated stream" on the first missing entry instead of pre-allocating
/// gigabytes.
constexpr std::uint32_t max_reserve = 1u << 20;

/// The format is whitespace-delimited, so free-text fields (the strategy
/// label) must collapse to a single token on the wire.
std::string tokenize_label(const std::string& label) {
  std::string out = label.empty() ? std::string("Custom") : label;
  for (char& c : out)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  return out;
}

}  // namespace

void write_trace_config(const sim_config& c, std::ostream& os) {
  os << "sys " << c.sys.node_count << ' ' << c.sys.compromised_count << '\n';
  os << "compromised-config " << c.compromised.size();
  for (node_id id : c.compromised) os << ' ' << id;
  os << '\n';
  const auto& pmf = c.lengths.dense_pmf();
  os << "dist " << tokenize_label(c.lengths.label()) << ' ' << pmf.size();
  for (double p : pmf) {
    os << ' ';
    put_hex_double(os, p);
  }
  os << '\n';
  os << "mode "
     << (c.mode == routing_mode::source_routed ? "source_routed" : "hop_by_hop")
     << '\n';
  os << "forward ";
  put_hex_double(os, c.forward_prob);
  os << '\n';
  os << "messages " << c.message_count << '\n';
  os << "rate ";
  put_hex_double(os, c.arrival_rate);
  os << '\n';
  os << "latency ";
  put_hex_double(os, c.latency.base);
  os << ' ';
  put_hex_double(os, c.latency.jitter);
  os << ' ';
  put_hex_double(os, c.latency.processing);
  os << '\n';
  os << "drop ";
  put_hex_double(os, c.faults.drop_probability);
  os << '\n';
  os << "seed " << c.seed << '\n';
  os << "adversary " << adversary_kind_label(c.adversary.kind) << ' ';
  put_hex_double(os, c.adversary.coverage_fraction);
  os << ' ' << (c.adversary.receiver_compromised ? 1 : 0) << '\n';
  os << "threshold ";
  put_hex_double(os, c.identified_threshold);
  os << '\n';
  os << "collect " << (c.collect_posteriors ? 1 : 0) << '\n';
  // Session, topology and churn ride as optional extension lines, written
  // only when they differ from the historical defaults: every pre-extension
  // config still serializes byte-identically (the committed golden trace
  // pins this), and absent lines parse back to the defaults.
  if (c.session.enabled()) {
    os << "session " << c.session.rounds << ' ' << c.session.receiver_count
       << ' '
       << (c.session.receiver_law.kind == workload::popularity_kind::uniform
               ? "uniform"
               : "zipf")
       << ' ';
    put_hex_double(os, c.session.receiver_law.exponent);
    os << ' ' << c.session.target_sender << ' ' << c.session.partner << ' '
       << attack::attack_kind_label(c.session.attack) << '\n';
  }
  // Additive: the exact (historical) backend writes no line, so every
  // pre-streaming trace stays byte-identical.
  if (c.session.stream != workload::stream_backend::exact)
    os << "stream " << workload::stream_backend_label(c.session.stream)
       << '\n';
  if (c.topology.kind != net::topology_kind::complete) {
    os << "topology " << topology_kind_name(c.topology.kind) << ' '
       << c.topology.ring_k << ' ' << c.topology.degree << ' '
       << c.topology.graph_seed << ' ' << c.topology.tiers << ' ';
    put_hex_double(os, c.topology.trust_decay);
    os << '\n';
  }
  if (c.faults.churn.enabled()) {
    os << "churn ";
    put_hex_double(os, c.faults.churn.down_rate);
    os << ' ';
    put_hex_double(os, c.faults.churn.mean_downtime);
    os << '\n';
  }
  // Fault-plan and retry extensions, same additive discipline as the
  // sections above: absent for the historical defaults, so every
  // pre-fault-plan config still serializes byte-identically.
  if (!c.faults.outages.empty()) {
    os << "outages " << c.faults.outages.size() << '\n';
    for (const net::outage& o : c.faults.outages) {
      os << "E " << o.node << ' ';
      put_hex_double(os, o.start);
      os << ' ';
      put_hex_double(os, o.duration);
      os << '\n';
    }
  }
  if (c.faults.mix_failures.enabled()) {
    os << "mixfail " << c.faults.mix_failures.count << ' ';
    put_hex_double(os, c.faults.mix_failures.horizon);
    os << ' ';
    put_hex_double(os, c.faults.mix_failures.mean_duration);
    os << '\n';
  }
  if (c.retry.enabled()) {
    os << "retry " << c.retry.max_retries << ' ';
    put_hex_double(os, c.retry.timeout);
    os << ' ';
    put_hex_double(os, c.retry.backoff);
    os << ' ';
    put_hex_double(os, c.retry.max_timeout);
    os << '\n';
  }
  // Planned-routing extension: absent for the default walk model, so every
  // pre-routing config still serializes byte-identically.
  if (c.routing.planned())
    os << "routing kpaths " << c.routing.k << '\n';
}

void write_trace(const sim_trace& trace, std::ostream& os) {
  const sim_config& c = trace.config;
  os << magic << " v" << sim_trace::format_version << '\n';
  write_trace_config(c, os);
  os << "compromised " << trace.compromised.size();
  for (node_id id : trace.compromised) os << ' ' << id;
  os << '\n';
  // Written exactly when the retry policy is on (possibly with zero
  // realized retransmissions), so write(read(t)) stays byte-identical
  // both with and without the section.
  if (c.retry.enabled()) {
    os << "attempts " << trace.attempts.size() << '\n';
    for (const auto& [id, parent] : trace.attempts)
      os << "A " << id << ' ' << parent << '\n';
  }
  os << "events " << trace.events.size() << '\n';
  for (const adversary_event& e : trace.events) {
    switch (e.type) {
      case adversary_event::kind::origin:
        os << "O " << e.msg << ' ' << e.reporter << '\n';
        break;
      case adversary_event::kind::relay:
        os << "T " << e.msg << ' ';
        put_hex_double(os, e.at);
        os << ' ' << e.reporter << ' ' << e.predecessor << ' ' << e.successor
           << '\n';
        break;
      case adversary_event::kind::receipt:
        os << "R " << e.msg << ' ';
        put_hex_double(os, e.at);
        os << ' ' << e.predecessor << '\n';
        break;
    }
  }
  os << "truths " << trace.truths.size() << '\n';
  for (const message_truth& t : trace.truths) {
    os << "G " << t.msg << ' ' << t.outcome.origin << ' ';
    put_hex_double(os, t.outcome.sent_at);
    os << ' ';
    put_hex_double(os, t.outcome.delivered_at);
    os << ' ' << (t.outcome.delivered ? 1 : 0) << ' ' << t.outcome.hops
       << '\n';
  }
  os << "end\n";
}

sim_trace read_trace(std::istream& is) {
  sim_trace trace;
  sim_config& c = trace.config;

  const std::string head = next_token(is, "magic");
  if (head != magic)
    bad(parse_error_kind::mismatch,
        "not an anonpath trace (bad magic '" + head + "')");
  const std::string version = next_token(is, "version");
  const std::string want = "v" + std::to_string(sim_trace::format_version);
  if (version != want)
    bad(parse_error_kind::version_mismatch,
        "format version mismatch: file has '" + version +
            "', this build reads '" + want + "'");

  expect_keyword(is, "sys");
  c.sys.node_count = get_u32(is, "node count");
  c.sys.compromised_count = get_u32(is, "compromised count");
  if (!c.sys.valid())
    bad(parse_error_kind::out_of_range, "system parameters out of range");

  expect_keyword(is, "compromised-config");
  const std::uint32_t config_comp = get_u32(is, "configured compromised size");
  if (config_comp > c.sys.node_count)
    bad(parse_error_kind::out_of_range, "configured compromised size > N");
  if (config_comp != c.sys.compromised_count)
    bad(parse_error_kind::out_of_range,
        "configured compromised size does not match C");
  c.compromised.clear();
  c.compromised.reserve(std::min(config_comp, max_reserve));
  for (std::uint32_t i = 0; i < config_comp; ++i) {
    const node_id id = get_u32(is, "configured compromised id");
    if (id >= c.sys.node_count)
      bad(parse_error_kind::out_of_range,
          "configured compromised id out of range");
    c.compromised.push_back(id);
  }

  expect_keyword(is, "dist");
  const std::string dist_label = next_token(is, "distribution label");
  const std::uint32_t pmf_size = get_u32(is, "pmf size");
  // Support always fits simple paths, so a count past N is corruption, not
  // data — and must not become a giant allocation.
  if (pmf_size == 0) bad("empty length distribution");
  if (pmf_size > c.sys.node_count)
    bad(parse_error_kind::out_of_range, "pmf size > N");
  std::vector<double> pmf;
  pmf.reserve(std::min(pmf_size, max_reserve));
  stats::kahan_sum pmf_sum;  // same accumulator the ctor contract uses
  for (std::uint32_t i = 0; i < pmf_size; ++i) {
    const double p = get_double(is, "pmf entry");
    // Pre-validated here so hostile bytes surface as parse_error, never as
    // the distribution constructor's contract violation.
    if (!(std::isfinite(p) && p >= 0.0))
      bad(parse_error_kind::out_of_range, "pmf entry out of range");
    pmf_sum.add(p);
    pmf.push_back(p);
  }
  if (!(std::fabs(pmf_sum.value() - 1.0) < 1e-9))
    bad(parse_error_kind::out_of_range, "pmf does not sum to 1");
  c.lengths = path_length_distribution::from_pmf(std::move(pmf), dist_label);

  expect_keyword(is, "mode");
  const std::string mode = next_token(is, "mode");
  if (mode == "source_routed") c.mode = routing_mode::source_routed;
  else if (mode == "hop_by_hop") c.mode = routing_mode::hop_by_hop;
  else bad("unknown routing mode '" + mode + "'");

  expect_keyword(is, "forward");
  c.forward_prob = get_double(is, "forward probability");
  if (!(std::isfinite(c.forward_prob) && c.forward_prob >= 0.0 &&
        c.forward_prob <= 1.0))
    bad(parse_error_kind::out_of_range, "forward probability out of range");
  expect_keyword(is, "messages");
  c.message_count = get_u32(is, "message count");
  if (c.message_count == 0)
    bad(parse_error_kind::out_of_range, "message count must be positive");
  expect_keyword(is, "rate");
  c.arrival_rate = get_double(is, "arrival rate");
  if (!(std::isfinite(c.arrival_rate) && c.arrival_rate > 0.0))
    bad(parse_error_kind::out_of_range, "arrival rate out of range");
  expect_keyword(is, "latency");
  c.latency.base = get_double(is, "latency base");
  c.latency.jitter = get_double(is, "latency jitter");
  c.latency.processing = get_double(is, "latency processing");
  if (!c.latency.valid() || !std::isfinite(c.latency.base) ||
      !std::isfinite(c.latency.jitter) || !std::isfinite(c.latency.processing))
    bad(parse_error_kind::out_of_range, "latency parameters out of range");
  expect_keyword(is, "drop");
  c.faults.drop_probability = get_double(is, "drop probability");
  if (!(std::isfinite(c.faults.drop_probability) &&
        c.faults.drop_probability >= 0.0 && c.faults.drop_probability < 1.0))
    bad(parse_error_kind::out_of_range, "drop probability out of range");
  expect_keyword(is, "seed");
  c.seed = get_u64(is, "seed");

  expect_keyword(is, "adversary");
  const std::string kind = next_token(is, "adversary kind");
  if (kind == "full_coalition") c.adversary.kind = adversary_kind::full_coalition;
  else if (kind == "partial_coverage")
    c.adversary.kind = adversary_kind::partial_coverage;
  else if (kind == "timing_correlator")
    c.adversary.kind = adversary_kind::timing_correlator;
  else bad("unknown adversary kind '" + kind + "'");
  c.adversary.coverage_fraction = get_double(is, "coverage fraction");
  c.adversary.receiver_compromised = get_u32(is, "receiver flag") != 0;
  if (!c.adversary.valid() || !std::isfinite(c.adversary.coverage_fraction))
    bad(parse_error_kind::out_of_range, "adversary parameters out of range");

  expect_keyword(is, "threshold");
  c.identified_threshold = get_double(is, "identified threshold");
  if (!(std::isfinite(c.identified_threshold) &&
        c.identified_threshold >= 0.0 && c.identified_threshold <= 1.0))
    bad(parse_error_kind::out_of_range, "identified threshold out of range");
  expect_keyword(is, "collect");
  c.collect_posteriors = get_u32(is, "collect flag") != 0;

  // Optional extension lines (absent = historical defaults). The grammar
  // stays one-to-one with the writer: each section at most once, in writer
  // order, and the never-written defaults ("topology complete", churn rate
  // 0, empty outage list, retry budget 0) are rejected so write(read(t))
  // is byte-identical to any accepted t. Section order is pinned by rank —
  // a duplicate is just a rank that does not increase.
  const auto section_rank = [](const std::string& s) -> int {
    if (s == "session") return 0;
    if (s == "stream") return 1;
    if (s == "topology") return 2;
    if (s == "churn") return 3;
    if (s == "outages") return 4;
    if (s == "mixfail") return 5;
    if (s == "retry") return 6;
    if (s == "routing") return 7;
    return -1;
  };
  int last_rank = -1;
  std::string section = next_token(is, "compromised");
  while (section_rank(section) >= 0) {
    const int rank = section_rank(section);
    if (rank <= last_rank)
      bad("'" + section + "' section is duplicated or out of order");
    last_rank = rank;
    if (section == "session") {
      c.session.rounds = get_u32(is, "session rounds");
      c.session.receiver_count = get_u32(is, "session receiver count");
      const std::string law = next_token(is, "session receiver law");
      if (law == "uniform")
        c.session.receiver_law.kind = workload::popularity_kind::uniform;
      else if (law == "zipf")
        c.session.receiver_law.kind = workload::popularity_kind::zipf;
      else bad("unknown session receiver law '" + law + "'");
      c.session.receiver_law.exponent = get_double(is, "session law exponent");
      c.session.target_sender = get_u32(is, "session target sender");
      c.session.partner = get_u32(is, "session partner");
      const std::string atk = next_token(is, "session attack kind");
      const auto parsed = attack::parse_attack_kind(atk);
      // Canonical labels only (no CLI aliases like "bayes"): the writer
      // emits attack_kind_label, and write(read(t)) must be byte-identical
      // for any accepted t.
      if (!parsed || attack::attack_kind_label(*parsed) != atk)
        bad("unknown session attack kind '" + atk + "'");
      c.session.attack = *parsed;
      // The never-written default (rounds 0) is rejected so write(read(t))
      // stays byte-identical, same as topology/churn.
      if (!c.session.enabled())
        bad(parse_error_kind::out_of_range, "session rounds out of range");
    } else if (section == "stream") {
      const std::string backend = next_token(is, "stream backend");
      const auto parsed = workload::parse_stream_backend(backend);
      // The never-written default ("exact") is rejected so write(read(t))
      // stays byte-identical, same as the other extension sections.
      if (!parsed || *parsed == workload::stream_backend::exact)
        bad("unknown stream backend '" + backend + "'");
      c.session.stream = *parsed;
    } else if (section == "topology") {
      const std::string kind = next_token(is, "topology kind");
      if (kind == "ring") c.topology.kind = net::topology_kind::ring;
      else if (kind == "regular")
        c.topology.kind = net::topology_kind::random_regular;
      else if (kind == "tiered") c.topology.kind = net::topology_kind::tiered;
      else if (kind == "trust")
        c.topology.kind = net::topology_kind::trust_weighted;
      else bad("unknown topology kind '" + kind + "'");
      c.topology.ring_k = get_u32(is, "topology ring_k");
      c.topology.degree = get_u32(is, "topology degree");
      c.topology.graph_seed = get_u64(is, "topology graph seed");
      c.topology.tiers = get_u32(is, "topology tiers");
      c.topology.trust_decay = get_double(is, "topology trust decay");
      if (!c.topology.valid_for(c.sys.node_count))
        bad(parse_error_kind::out_of_range,
            "topology parameters out of range for N");
    } else if (section == "churn") {
      c.faults.churn.down_rate = get_double(is, "churn down rate");
      c.faults.churn.mean_downtime = get_double(is, "churn mean downtime");
      if (!std::isfinite(c.faults.churn.down_rate) ||
          !std::isfinite(c.faults.churn.mean_downtime) ||
          !c.faults.churn.valid() || !c.faults.churn.enabled())
        bad(parse_error_kind::out_of_range, "churn parameters out of range");
    } else if (section == "outages") {
      const std::uint32_t outage_count = get_u32(is, "outage count");
      if (outage_count == 0)
        bad(parse_error_kind::out_of_range, "empty outages section");
      c.faults.outages.reserve(std::min(outage_count, max_reserve));
      for (std::uint32_t i = 0; i < outage_count; ++i) {
        expect_keyword(is, "E");
        net::outage o;
        o.node = get_u32(is, "outage node");
        o.start = get_double(is, "outage start");
        o.duration = get_double(is, "outage duration");
        if (o.node >= c.sys.node_count)
          bad(parse_error_kind::out_of_range, "outage node out of range");
        if (!o.valid())
          bad(parse_error_kind::out_of_range, "outage interval out of range");
        c.faults.outages.push_back(o);
      }
    } else if (section == "mixfail") {
      c.faults.mix_failures.count = get_u32(is, "mix failure count");
      c.faults.mix_failures.horizon = get_double(is, "mix failure horizon");
      c.faults.mix_failures.mean_duration =
          get_double(is, "mix failure mean duration");
      if (!c.faults.mix_failures.enabled() || !c.faults.mix_failures.valid())
        bad(parse_error_kind::out_of_range,
            "mix failure parameters out of range");
    } else if (section == "retry") {
      c.retry.max_retries = get_u32(is, "retry budget");
      c.retry.timeout = get_double(is, "retry timeout");
      c.retry.backoff = get_double(is, "retry backoff");
      c.retry.max_timeout = get_double(is, "retry timeout cap");
      if (!c.retry.enabled() || !c.retry.valid())
        bad(parse_error_kind::out_of_range, "retry parameters out of range");
    } else {  // routing
      // Only the non-default kind is ever written ("walk" is rejected so
      // write(read(t)) stays byte-identical).
      const std::string route_kind = next_token(is, "routing kind");
      if (route_kind != "kpaths")
        bad("unknown routing kind '" + route_kind + "'");
      c.routing.kind = net::route_select::kpaths;
      c.routing.k = get_u32(is, "routing k");
      if (!c.routing.valid())
        bad(parse_error_kind::out_of_range, "routing k out of range");
    }
    section = next_token(is, "compromised");
  }
  if (section != "compromised")
    bad("expected 'compromised', found '" + section + "'");
  // The fields are each in range; whether they combine into a config the
  // simulator can run is the one rule run_core enforces, so a trace that
  // breaks it is invalid input, not an engine-internal contract violation.
  if (const char* problem = config_problem(c))
    bad(parse_error_kind::out_of_range,
        std::string("config cannot run: ") + problem);
  const std::uint32_t effective_comp = get_u32(is, "effective compromised size");
  if (effective_comp > c.sys.node_count)
    bad(parse_error_kind::out_of_range, "effective compromised size > N");
  trace.compromised.reserve(std::min(effective_comp, max_reserve));
  for (std::uint32_t i = 0; i < effective_comp; ++i) {
    const node_id id = get_u32(is, "effective compromised id");
    if (id >= c.sys.node_count)
      bad(parse_error_kind::out_of_range, "compromised id out of range");
    trace.compromised.push_back(id);
  }

  // The attempt map rides exactly when the retry policy is on: ids are
  // consecutive from message_count + 1 (as the simulator assigns them, so
  // the rewrite is byte-stable and replay's id-indexed adversary log stays
  // dense) and point back into the original 1..message_count range.
  if (c.retry.enabled()) {
    expect_keyword(is, "attempts");
    const std::uint32_t attempt_count = get_u32(is, "attempt count");
    std::uint64_t last_attempt = c.message_count;
    for (std::uint32_t i = 0; i < attempt_count; ++i) {
      expect_keyword(is, "A");
      const std::uint64_t id = get_u64(is, "attempt id");
      const std::uint64_t parent = get_u64(is, "attempt parent");
      if (id != last_attempt + 1)
        bad(parse_error_kind::out_of_range,
            "attempt ids must run consecutively past the message count");
      if (parent < 1 || parent > c.message_count)
        bad(parse_error_kind::out_of_range, "attempt parent out of range");
      last_attempt = id;
      trace.attempts.emplace(id, parent);
    }
  }

  expect_keyword(is, "events");
  const std::uint32_t event_count = get_u32(is, "event count");
  // Grow incrementally: a corrupted count then hits "truncated stream" on
  // the first missing entry instead of pre-allocating gigabytes.
  trace.events.reserve(std::min(event_count, max_reserve));
  // Node ids inside events index posterior-engine arrays of size N during
  // replay, so every one is range-checked here — hostile bytes must never
  // become an out-of-bounds index downstream.
  const auto check_node = [&](node_id v, const char* what) {
    if (v >= c.sys.node_count)
      bad(parse_error_kind::out_of_range, std::string(what) + " out of range");
  };
  const auto check_msg = [&](std::uint64_t msg) {
    if (msg >= 1 && msg <= c.message_count) return;
    if (trace.attempts.find(msg) != trace.attempts.end()) return;
    bad(parse_error_kind::out_of_range, "event message id out of range");
  };
  for (std::uint32_t i = 0; i < event_count; ++i) {
    adversary_event e;
    const std::string tag = next_token(is, "event tag");
    e.msg = get_u64(is, "event message id");
    check_msg(e.msg);
    if (tag == "O") {
      e.type = adversary_event::kind::origin;
      e.reporter = get_u32(is, "origin sender");
      check_node(e.reporter, "origin sender");
    } else if (tag == "T") {
      e.type = adversary_event::kind::relay;
      e.at = get_double(is, "relay capture time");
      e.reporter = get_u32(is, "relay reporter");
      e.predecessor = get_u32(is, "relay predecessor");
      e.successor = get_u32(is, "relay successor");
      check_node(e.reporter, "relay reporter");
      check_node(e.predecessor, "relay predecessor");
      if (e.successor != receiver_node)
        check_node(e.successor, "relay successor");
    } else if (tag == "R") {
      e.type = adversary_event::kind::receipt;
      e.at = get_double(is, "receipt time");
      e.predecessor = get_u32(is, "receipt predecessor");
      check_node(e.predecessor, "receipt predecessor");
    } else {
      bad("unknown event tag '" + tag + "'");
    }
    trace.events.push_back(e);
  }

  expect_keyword(is, "truths");
  const std::uint32_t truth_count = get_u32(is, "truth count");
  if (truth_count > c.message_count)
    bad(parse_error_kind::out_of_range, "truth count > message count");
  // Session-attack scoring consumes exactly one truth per message; accept
  // only traces that satisfy its contract.
  if (c.session.enabled() && c.session.attack != attack::attack_kind::none &&
      truth_count != c.message_count)
    bad(parse_error_kind::out_of_range,
        "session scoring requires one truth per message");
  trace.truths.reserve(std::min(truth_count, max_reserve));
  std::uint64_t last_truth = 0;
  for (std::uint32_t i = 0; i < truth_count; ++i) {
    message_truth t;
    expect_keyword(is, "G");
    t.msg = get_u64(is, "truth message id");
    // Strictly ascending, like the writer emits: rejects duplicates in
    // O(1) and keeps write(read(t)) byte-identical.
    if (t.msg <= last_truth || t.msg > c.message_count)
      bad(parse_error_kind::out_of_range, "truth message id out of range");
    last_truth = t.msg;
    t.outcome.origin = get_u32(is, "truth origin");
    check_node(t.outcome.origin, "truth origin");
    t.outcome.sent_at = get_double(is, "truth sent time");
    t.outcome.delivered_at = get_double(is, "truth delivery time");
    t.outcome.delivered = get_u32(is, "truth delivered flag") != 0;
    t.outcome.hops = get_u32(is, "truth hops");
    trace.truths.push_back(t);
  }

  expect_keyword(is, "end");
  return trace;
}

sim_trace capture_trace(const sim_config& config) {
  sim_trace trace;
  trace.config = config;
  detail::core_result core = detail::run_core(config, &trace.events);
  trace.compromised = core.model->compromised_ids();
  trace.truths.reserve(core.outcomes.size());
  for (const auto& [id, outcome] : core.outcomes)
    trace.truths.push_back(message_truth{id, outcome});
  trace.attempts = std::move(core.attempt_parent);
  return trace;
}

namespace {

/// Rebuilds the adversary model a trace captured and feeds it the recorded
/// event stream: post-run state is reproduced exactly, so scoring sees
/// byte-identical observations.
std::unique_ptr<adversary_model> rebuild_model(const sim_trace& trace) {
  ANONPATH_EXPECTS(trace.config.sys.valid());
  std::vector<bool> flags(trace.config.sys.node_count, false);
  for (node_id id : trace.compromised) {
    ANONPATH_EXPECTS(id < flags.size());
    flags[id] = true;
  }
  auto model = make_adversary_model(trace.config.adversary, std::move(flags),
                                    trace.config.latency);
  for (const adversary_event& e : trace.events) {
    switch (e.type) {
      case adversary_event::kind::origin:
        model->note_origin(e.msg, e.reporter);
        break;
      case adversary_event::kind::relay:
        model->note_relay(e.msg, e.at, e.reporter, e.predecessor, e.successor);
        break;
      case adversary_event::kind::receipt:
        model->note_receipt(e.msg, e.at, e.predecessor);
        break;
    }
  }
  return model;
}

sim_report replay_impl(const sim_trace& trace, const posterior_fn* engine) {
  const auto model = rebuild_model(trace);
  std::map<std::uint64_t, message_outcome> outcomes;
  for (const message_truth& t : trace.truths) outcomes.emplace(t.msg, t.outcome);
  return detail::score_run(trace.config, *model, outcomes, engine, nullptr,
                           &trace.attempts);
}

}  // namespace

sim_report replay_trace(const sim_trace& trace) {
  return replay_impl(trace, nullptr);
}

sim_report replay_trace(const sim_trace& trace, const posterior_fn& engine) {
  ANONPATH_EXPECTS(static_cast<bool>(engine));
  return replay_impl(trace, &engine);
}

}  // namespace anonpath::sim
