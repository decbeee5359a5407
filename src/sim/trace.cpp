#include "src/sim/trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "src/stats/kahan.hpp"
#include "src/stats/token_codec.hpp"

namespace anonpath::sim {

namespace {

constexpr char magic[] = "anonpath-trace";

[[noreturn]] void bad(parse_error_kind kind, const std::string& what) {
  throw parse_error(kind, "trace", what);
}

/// Untrusted counts never become allocations: reserve at most this many
/// slots up front and let insertion grow past it — a lying count then hits
/// "truncated stream" on the first missing entry instead of pre-allocating
/// gigabytes.
constexpr std::uint32_t max_reserve = 1u << 20;

/// The bound of a list whose length only the input limits.
constexpr std::uint32_t any_count = std::numeric_limits<std::uint32_t>::max();

/// The format is whitespace-delimited, so free-text fields (the strategy
/// label) must collapse to a single token on the wire.
std::string tokenize_label(const std::string& label) {
  std::string out = label.empty() ? std::string("Custom") : label;
  for (char& c : out)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  return out;
}

const char* mode_name(routing_mode mode) noexcept {
  return mode == routing_mode::source_routed ? "source_routed" : "hop_by_hop";
}

const char* law_name(workload::popularity_kind kind) noexcept {
  return kind == workload::popularity_kind::uniform ? "uniform" : "zipf";
}

const char* route_name(net::route_select kind) noexcept {
  return kind == net::route_select::kpaths ? "kpaths" : "walk";
}

const char* event_tag(adversary_event::kind kind) noexcept {
  switch (kind) {
    case adversary_event::kind::origin: return "O";
    case adversary_event::kind::relay: return "T";
    case adversary_event::kind::receipt: return "R";
  }
  return "?";
}

/// Renders each field trace_body visits as one token: lines start with a
/// keyword, tokens are separated by one space, and every line ends in '\n'
/// (finish() ends the last).
class trace_writer {
 public:
  explicit trace_writer(std::ostream& os) : os_(os) {}

  void line() {
    if (!first_) os_ << '\n';
    fresh_ = true;
  }
  void key(const char* keyword) {
    line();
    put() << keyword;
  }
  void header() {
    key(magic);
    put() << 'v' << sim_trace::format_version;
  }
  void finish() { os_ << '\n'; }

  template <typename T>
  void number(T v, const char*) {
    put() << v;
  }
  void node(node_id v, std::uint32_t, const char*) { put() << v; }
  void flag(bool v, const char*) { put() << (v ? '1' : '0'); }
  void f64(double v, const char*) { stats::put_hex_double(put(), v); }
  template <typename E, typename Name>
  void pick(E v, const char*, std::initializer_list<E>, Name name) {
    put() << name(v);
  }
  template <typename C, typename Each>
  void list(const C& items, std::uint32_t, const char*, Each each) {
    put() << items.size();
    for (const auto& item : items) each(item);
  }
  void lengths(const path_length_distribution& d, std::uint32_t) {
    put() << tokenize_label(d.label());
    list(d.dense_pmf(), 0, "", [&](double p) { f64(p, ""); });
  }
  template <typename Present, typename Body>
  void section(const char* keyword, Present present, Body body) {
    if (!present()) return;
    key(keyword);
    body();
  }
  void check(bool, const char*, const char* = "") {}

 private:
  std::ostream& put() {
    if (!fresh_) os_ << ' ';
    fresh_ = first_ = false;
    return os_;
  }

  std::ostream& os_;
  bool first_ = true;  ///< nothing written yet
  bool fresh_ = true;  ///< the current line has no token yet
};

template <typename C>
struct element {
  using type = typename C::value_type;
};
template <typename K, typename V>
struct element<std::map<K, V>> {
  using type = std::pair<K, V>;
};

/// Parses each field trace_body visits from an untrusted stream. A token
/// must be the writer's rendering of its field (canonical decimal, flags
/// 0 or 1, 16 hex digits per double, the writer's label of an enum); any
/// other input throws parse_error. Optional sections are recognized by a
/// one-token lookahead.
class trace_reader {
 public:
  explicit trace_reader(std::istream& is) : is_(is) {}

  void line() {}
  void key(const char* keyword) {
    const std::string tok = take(keyword);
    if (tok != keyword)
      bad(parse_error_kind::malformed,
          "expected '" + std::string(keyword) + "', found '" + tok + "'");
  }
  void header() {
    const std::string head = take("magic");
    if (head != magic)
      bad(parse_error_kind::mismatch,
          "not an anonpath trace (bad magic '" + head + "')");
    const std::string version = take("version");
    std::string want = "v";
    want += std::to_string(sim_trace::format_version);
    if (version != want)
      bad(parse_error_kind::version_mismatch,
          "format version mismatch: file has '" + version +
              "', this build reads '" + want + "'");
  }
  void finish() {
    std::string extra;
    if (is_ >> extra)
      bad(parse_error_kind::malformed, "data after 'end': '" + extra + "'");
  }

  template <typename T>
  void number(T& v, const char* what) {
    const std::string tok = take(what);
    std::uint64_t x = 0;
    const stats::u64_parse parsed = stats::parse_u64(tok, x);
    if (parsed == stats::u64_parse::malformed ||
        (tok.size() > 1 && tok[0] == '0'))
      bad(parse_error_kind::malformed,
          std::string("malformed integer for ") + what);
    if (parsed == stats::u64_parse::overflow ||
        x > std::numeric_limits<T>::max())
      bad(parse_error_kind::out_of_range,
          std::string("integer out of range for ") + what);
    v = static_cast<T>(x);
  }
  /// A node id indexes arrays of size `n` downstream.
  void node(node_id& v, std::uint32_t n, const char* what) {
    number(v, what);
    check(v < n, what, " out of range");
  }
  void flag(bool& v, const char* what) {
    const std::string tok = take(what);
    if (tok != "0" && tok != "1")
      bad(parse_error_kind::malformed,
          std::string("malformed flag for ") + what);
    v = tok == "1";
  }
  void f64(double& v, const char* what) {
    std::uint64_t bits = 0;
    if (!stats::parse_hex64(take(what), bits))
      bad(parse_error_kind::malformed,
          std::string("malformed double for ") + what);
    v = std::bit_cast<double>(bits);
  }
  template <typename E, typename Name>
  void pick(E& v, const char* what, std::initializer_list<E> values,
            Name name) {
    const std::string tok = take(what);
    for (const E value : values) {
      if (tok == name(value)) {
        v = value;
        return;
      }
    }
    bad(parse_error_kind::malformed,
        "unknown " + std::string(what) + " '" + tok + "'");
  }
  /// A count of at most `bound`, then that many elements.
  template <typename C, typename Each>
  void list(C& items, std::uint32_t bound, const char* what, Each each) {
    std::uint32_t count = 0;
    number(count, what);
    check(count <= bound, what, " out of range");
    items.clear();
    if constexpr (requires { items.reserve(count); })
      items.reserve(std::min(count, max_reserve));
    for (std::uint32_t i = 0; i < count; ++i) {
      typename element<C>::type item{};
      each(item);
      items.insert(items.end(), std::move(item));
    }
  }
  /// Pre-validated here so hostile bytes surface as parse_error, never as
  /// the distribution constructor's contract violation.
  void lengths(path_length_distribution& d, std::uint32_t max_size) {
    const std::string label = take("distribution label");
    std::vector<double> pmf;
    stats::kahan_sum sum;  // same accumulator the ctor contract uses
    list(pmf, max_size, "pmf size", [&](double& p) {
      f64(p, "pmf entry");
      check(std::isfinite(p) && p >= 0.0, "pmf entry out of range");
      sum.add(p);
    });
    if (pmf.empty())
      bad(parse_error_kind::malformed, "empty length distribution");
    check(std::fabs(sum.value() - 1.0) < 1e-9, "pmf does not sum to 1");
    d = path_length_distribution::from_pmf(std::move(pmf), label);
  }
  /// The writer leaves a section out exactly when `present()` is false, so
  /// one that holds the defaults is refused.
  template <typename Present, typename Body>
  void section(const char* keyword, Present present, Body body) {
    if (peek(keyword) != keyword) return;
    next_.clear();
    body();
    if (!present())
      bad(parse_error_kind::out_of_range,
          "'" + std::string(keyword) + "' section holds the defaults");
  }
  void check(bool ok, const char* what, const char* detail = "") {
    if (!ok) bad(parse_error_kind::out_of_range, std::string(what) + detail);
  }

 private:
  const std::string& peek(const char* what) {
    if (next_.empty() && !(is_ >> next_))
      bad(parse_error_kind::truncated,
          std::string("truncated stream reading ") + what);
    return next_;
  }
  std::string take(const char* what) {
    peek(what);
    return std::exchange(next_, std::string());
  }

  std::istream& is_;
  std::string next_;  ///< the lookahead token; empty when none is held
};

/// The config block: every line and field in the order written, each
/// declared once for both trace_writer (`Config` const) and trace_reader.
/// Range rules live in config_problem; the checks here are the ones it
/// lacks.
template <typename Io, typename Config>
void config_body(Io& io, Config& c) {
  io.key("sys");
  io.number(c.sys.node_count, "node count");
  io.number(c.sys.compromised_count, "compromised count");
  const std::uint32_t n = c.sys.node_count;
  io.key("compromised-config");
  io.list(c.compromised, n, "configured compromised size",
          [&](auto& id) { io.node(id, n, "configured compromised id"); });
  io.key("dist");
  io.lengths(c.lengths, n);
  io.key("mode");
  io.pick(c.mode, "routing mode",
          {routing_mode::source_routed, routing_mode::hop_by_hop}, mode_name);
  io.key("forward");
  io.f64(c.forward_prob, "forward probability");
  io.check(c.forward_prob >= 0.0 && c.forward_prob <= 1.0,
           "forward probability out of range");
  io.key("messages");
  io.number(c.message_count, "message count");
  io.key("rate");
  io.f64(c.arrival_rate, "arrival rate");
  io.check(std::isfinite(c.arrival_rate), "arrival rate out of range");
  io.key("latency");
  io.f64(c.latency.base, "latency base");
  io.f64(c.latency.jitter, "latency jitter");
  io.f64(c.latency.processing, "latency processing");
  io.check(c.latency.valid() && std::isfinite(c.latency.base) &&
               std::isfinite(c.latency.jitter) &&
               std::isfinite(c.latency.processing),
           "latency parameters out of range");
  io.key("drop");
  io.f64(c.faults.drop_probability, "drop probability");
  io.key("seed");
  io.number(c.seed, "seed");
  io.key("adversary");
  io.pick(c.adversary.kind, "adversary kind",
          {adversary_kind::full_coalition, adversary_kind::partial_coverage,
           adversary_kind::timing_correlator},
          adversary_kind_label);
  io.f64(c.adversary.coverage_fraction, "coverage fraction");
  io.flag(c.adversary.receiver_compromised, "receiver flag");
  io.key("threshold");
  io.f64(c.identified_threshold, "identified threshold");
  io.check(c.identified_threshold >= 0.0 && c.identified_threshold <= 1.0,
           "identified threshold out of range");
  io.key("collect");
  io.flag(c.collect_posteriors, "collect flag");

  // Optional sections, each written only when it differs from the
  // historical defaults, so every older config still serializes
  // byte-identically (the committed golden trace pins this) and an absent
  // section reads back as the defaults. A default-only enum label ("exact",
  // "complete", "walk") is no value of its section.
  io.section("session", [&] { return c.session.enabled(); }, [&] {
    io.number(c.session.rounds, "session rounds");
    io.number(c.session.receiver_count, "session receiver count");
    io.pick(c.session.receiver_law.kind, "session receiver law",
            {workload::popularity_kind::uniform,
             workload::popularity_kind::zipf},
            law_name);
    io.f64(c.session.receiver_law.exponent, "session law exponent");
    io.number(c.session.target_sender, "session target sender");
    io.number(c.session.partner, "session partner");
    io.pick(c.session.attack, "session attack kind",
            {attack::attack_kind::none, attack::attack_kind::intersection,
             attack::attack_kind::sda, attack::attack_kind::sequential_bayes},
            attack::attack_kind_label);
  });
  io.section(
      "stream",
      [&] { return c.session.stream != workload::stream_backend::exact; },
      [&] {
        io.pick(c.session.stream, "stream backend",
                {workload::stream_backend::sketch},
                workload::stream_backend_label);
      });
  io.section(
      "topology",
      [&] { return c.topology.kind != net::topology_kind::complete; },
      [&] {
        io.pick(c.topology.kind, "topology kind",
                {net::topology_kind::ring, net::topology_kind::random_regular,
                 net::topology_kind::tiered,
                 net::topology_kind::trust_weighted},
                net::topology_kind_name);
        io.number(c.topology.ring_k, "topology ring_k");
        io.number(c.topology.degree, "topology degree");
        io.number(c.topology.graph_seed, "topology graph seed");
        io.number(c.topology.tiers, "topology tiers");
        io.f64(c.topology.trust_decay, "topology trust decay");
      });
  io.section("churn", [&] { return c.faults.churn.enabled(); }, [&] {
    io.f64(c.faults.churn.down_rate, "churn down rate");
    io.f64(c.faults.churn.mean_downtime, "churn mean downtime");
    io.check(std::isfinite(c.faults.churn.down_rate) &&
                 std::isfinite(c.faults.churn.mean_downtime),
             "churn parameters out of range");
  });
  io.section("outages", [&] { return !c.faults.outages.empty(); }, [&] {
    io.list(c.faults.outages, any_count, "outage count", [&](auto& o) {
      io.key("E");
      io.number(o.node, "outage node");
      io.f64(o.start, "outage start");
      io.f64(o.duration, "outage duration");
    });
  });
  io.section("mixfail", [&] { return c.faults.mix_failures.enabled(); }, [&] {
    io.number(c.faults.mix_failures.count, "mix failure count");
    io.f64(c.faults.mix_failures.horizon, "mix failure horizon");
    io.f64(c.faults.mix_failures.mean_duration, "mix failure mean duration");
  });
  io.section("retry", [&] { return c.retry.enabled(); }, [&] {
    io.number(c.retry.max_retries, "retry budget");
    io.f64(c.retry.timeout, "retry timeout");
    io.f64(c.retry.backoff, "retry backoff");
    io.f64(c.retry.max_timeout, "retry timeout cap");
  });
  io.section("routing", [&] { return c.routing.planned(); }, [&] {
    io.pick(c.routing.kind, "routing kind", {net::route_select::kpaths},
            route_name);
    io.number(c.routing.k, "routing k");
  });
}

/// The whole trace: header, config block, then the captured run. Ids are
/// checked where they become indices or keys downstream.
template <typename Io, typename Trace>
void trace_body(Io& io, Trace& t) {
  auto& c = t.config;
  io.header();
  config_body(io, c);
  // The fields are each well-formed; whether they combine into a config
  // the simulator can run is the one rule run_core enforces, so a trace
  // that breaks it is invalid input, not an engine-internal contract
  // violation.
  const char* problem = config_problem(c);
  io.check(problem == nullptr, "config cannot run: ", problem);
  const std::uint32_t n = c.sys.node_count;
  io.key("compromised");
  io.list(t.compromised, n, "effective compromised size",
          [&](auto& id) { io.node(id, n, "compromised id"); });

  // Written exactly when the retry policy is on (possibly empty). Ids run
  // consecutively from message_count + 1, as the simulator assigns them,
  // so replay's id-indexed adversary log stays dense, and point back into
  // the original 1..message_count range.
  if (c.retry.enabled()) {
    io.key("attempts");
    std::uint64_t last = c.message_count;
    io.list(t.attempts, any_count, "attempt count", [&](auto& a) {
      io.key("A");
      io.number(a.first, "attempt id");
      io.number(a.second, "attempt parent");
      io.check(a.first == last + 1,
               "attempt ids must run consecutively past the message count");
      io.check(a.second >= 1 && a.second <= c.message_count,
               "attempt parent out of range");
      last = a.first;
    });
  }

  io.key("events");
  io.list(t.events, any_count, "event count", [&](auto& e) {
    io.line();
    io.pick(e.type, "event tag",
            {adversary_event::kind::origin, adversary_event::kind::relay,
             adversary_event::kind::receipt},
            event_tag);
    io.number(e.msg, "event message id");
    io.check((e.msg >= 1 && e.msg <= c.message_count) ||
                 t.attempts.contains(e.msg),
             "event message id out of range");
    switch (e.type) {
      case adversary_event::kind::origin:
        io.node(e.reporter, n, "origin sender");
        break;
      case adversary_event::kind::relay:
        io.f64(e.at, "relay capture time");
        io.node(e.reporter, n, "relay reporter");
        io.node(e.predecessor, n, "relay predecessor");
        io.number(e.successor, "relay successor");
        io.check(e.successor == receiver_node || e.successor < n,
                 "relay successor out of range");
        break;
      case adversary_event::kind::receipt:
        io.f64(e.at, "receipt time");
        io.node(e.predecessor, n, "receipt predecessor");
        break;
    }
  });

  io.key("truths");
  // Strictly ascending, as the writer emits them: rejects duplicates in
  // O(1).
  std::uint64_t last = 0;
  io.list(t.truths, c.message_count, "truth count", [&](auto& g) {
    io.key("G");
    io.number(g.msg, "truth message id");
    io.check(g.msg > last && g.msg <= c.message_count,
             "truth message id out of range");
    last = g.msg;
    io.node(g.outcome.origin, n, "truth origin");
    io.f64(g.outcome.sent_at, "truth sent time");
    io.f64(g.outcome.delivered_at, "truth delivery time");
    io.flag(g.outcome.delivered, "truth delivered flag");
    io.number(g.outcome.hops, "truth hops");
  });
  // Session-attack scoring consumes exactly one truth per message.
  io.check(!c.session.enabled() ||
               c.session.attack == attack::attack_kind::none ||
               t.truths.size() == c.message_count,
           "session scoring requires one truth per message");
  io.key("end");
}

}  // namespace

void write_trace_config(const sim_config& config, std::ostream& os) {
  trace_writer io(os);
  config_body(io, config);
  io.finish();
}

void write_trace(const sim_trace& trace, std::ostream& os) {
  trace_writer io(os);
  trace_body(io, trace);
  io.finish();
}

sim_trace read_trace(std::istream& is) {
  sim_trace trace;
  trace_reader io(is);
  trace_body(io, trace);
  io.finish();
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
