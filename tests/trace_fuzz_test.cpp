// Corrupted-corpus hardening for the trace parser. read_trace consumes
// untrusted bytes; its contract (trace.hpp) is that ANY input either parses
// to a trace satisfying replay's preconditions or throws anonpath::
// parse_error — never a contract_violation (that exception means a
// programming error inside this repo), never a crash, never an unbounded
// allocation — and that it accepts only the writer's rendering, so an
// accepted mutant re-serializes to its own tokens. The corpus is generated
// deterministically from three seeds: the committed golden trace, a
// synthetic trace exercising the fault sections (churn, outages, mix
// failures, retry, attempts), and one with a sketch-backed session on a
// planned ring (session, stream, topology, routing).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/trace.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "tests/fuzz_mutations.hpp"

namespace anonpath {
namespace {

std::string golden_text() {
  const std::string path =
      std::string(ANONPATH_TEST_DATA_DIR) + "/golden/trace_v1.trace";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string synthetic_text() {
  sim::sim_config cfg;
  cfg.sys = {12, 2};
  cfg.compromised = spread_compromised(12, 2);
  cfg.lengths = path_length_distribution::uniform(1, 4);
  cfg.message_count = 25;
  cfg.arrival_rate = 50.0;
  cfg.seed = 3;
  cfg.faults.drop_probability = 0.25;
  cfg.faults.churn = {0.2, 0.5};
  cfg.faults.outages = {{4, 0.05, 0.2}};
  cfg.faults.mix_failures = {2, 0.0, 0.3};
  cfg.retry = {2, 0.1, 2.0, 1.0};
  std::ostringstream os;
  sim::write_trace(sim::capture_trace(cfg), os);
  return os.str();
}

std::string session_route_text() {
  sim::sim_config cfg;
  cfg.sys = {12, 2};
  cfg.compromised = spread_compromised(12, 2);
  cfg.lengths = path_length_distribution::uniform(1, 4);
  cfg.message_count = 24;
  cfg.seed = 5;
  cfg.session.rounds = 4;
  cfg.session.receiver_count = 6;
  cfg.session.partner = sim::canonical_partner(6);
  cfg.session.target_sender = 1;
  cfg.session.attack = attack::attack_kind::sda;
  cfg.session.stream = workload::stream_backend::sketch;
  cfg.topology.kind = net::topology_kind::ring;
  cfg.topology.ring_k = 2;
  cfg.routing = {net::route_select::kpaths, 2};
  std::ostringstream os;
  sim::write_trace(sim::capture_trace(cfg), os);
  return os.str();
}

std::vector<std::string> tokens_of(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> tokens;
  for (std::string tok; is >> tok;) tokens.push_back(tok);
  return tokens;
}

/// The property under test: one corrupted input neither crashes nor leaks a
/// contract violation. Successful parses hold a config the simulator can
/// run and write back to the same tokens, and some are fed to replay — the
/// parser promised the result satisfies replay's preconditions.
void expect_graceful(const std::string& text, const std::string& what,
                     int* replays_left) {
  try {
    std::istringstream is(text);
    const sim::sim_trace trace = sim::read_trace(is);
    const char* problem = sim::config_problem(trace.config);
    EXPECT_TRUE(problem == nullptr)
        << what << ": accepted a config that cannot run: " << problem;
    std::ostringstream rewritten;
    sim::write_trace(trace, rewritten);
    EXPECT_TRUE(tokens_of(rewritten.str()) == tokens_of(text))
        << what << ": accepted a token the writer never renders";
    if (replays_left != nullptr && *replays_left > 0) {
      --*replays_left;
      (void)sim::replay_trace(trace);
    }
  } catch (const parse_error&) {
    // The documented outcome for bad input.
  } catch (const contract_violation& e) {
    FAIL() << what << ": contract violation escaped the parser: " << e.what();
  } catch (const std::exception& e) {
    FAIL() << what << ": unexpected exception type: " << e.what();
  }
}

void fuzz_corpus(const std::string& base, const char* tag) {
  ASSERT_GT(fuzz::split_lines(base).size(), 10u);
  // Structural (line-level) mutants that still parse are also replayed,
  // up to a budget.
  int replays_left = 40;
  fuzz::for_each_mutant(
      base, tag,
      [&](const std::string& text, const std::string& what, bool line_level) {
        expect_graceful(text, what, line_level ? &replays_left : nullptr);
      });
}

TEST(TraceFuzz, GoldenCorpusNeverCrashesTheParser) {
  fuzz_corpus(golden_text(), "golden");
}

TEST(TraceFuzz, FaultAndRetryCorpusNeverCrashesTheParser) {
  fuzz_corpus(synthetic_text(), "synthetic");
}

TEST(TraceFuzz, SessionAndRoutingCorpusNeverCrashesTheParser) {
  fuzz_corpus(session_route_text(), "session-route");
}

TEST(TraceFuzz, HostileCountsAreRejectedWithoutAllocating) {
  // A forged section count advertising ~4e9 entries must be rejected by
  // validation or by the incremental-growth rule (reserve is capped; a
  // lying count hits "truncated stream"/"unknown tag" on the first missing
  // entry). The malloc itself cannot be observed portably; what is pinned
  // is that the parse returns promptly with parse_error instead of OOMing.
  const std::string base = golden_text();
  const struct {
    const char* needle;
    const char* forged;
  } cases[] = {
      {"compromised-config 2 0 8", "compromised-config 4294967295 0 8"},
      {"dist U(1,5) 6", "dist U(1,5) 4294967295"},
      {"events 66", "events 4294967295"},
      {"events 66", "events 18446744073709551615"},
      {"truths 40", "truths 4294967295"},
      {"truths 40", "truths 18446744073709551615"},
  };
  for (const auto& c : cases) {
    const std::size_t at = base.find(c.needle);
    ASSERT_NE(at, std::string::npos) << c.needle;
    std::string forged = base;
    forged.replace(at, std::string(c.needle).size(), c.forged);
    std::istringstream is(forged);
    EXPECT_THROW((void)sim::read_trace(is), parse_error) << c.needle;
  }
}

TEST(TraceFuzz, SparseAttemptIdsAreRejected) {
  // Retransmission ids run consecutively from messages + 1, as the
  // simulator assigns them; a gap — above all a far-off id — would make
  // replay's id-indexed adversary log span ids no run produced.
  const std::string base = synthetic_text();
  const std::size_t at = base.find("\nA 26 ");
  ASSERT_NE(at, std::string::npos) << "the fault corpus retransmits nothing";
  for (const char* forged : {"\nA 27 ", "\nA 9223372036854775807 "}) {
    std::string text = base;
    text.replace(at, 6, forged);
    std::istringstream is(text);
    try {
      (void)sim::read_trace(is);
      ADD_FAILURE() << "accepted attempt id in '" << forged << "'";
    } catch (const parse_error& e) {
      EXPECT_EQ(e.kind(), parse_error_kind::out_of_range) << e.what();
    }
  }
}

TEST(TraceFuzz, TrustDecayThatUnderflowsAtNIsRejected) {
  // decay^(N/2 - 1) underflows to 0 for 1e-70 at N = 12: the graph would
  // have zero-weight edges, so the topology line is out of range for N.
  sim::sim_config cfg;
  cfg.sys = {12, 2};
  cfg.compromised = spread_compromised(12, 2);
  cfg.lengths = path_length_distribution::uniform(1, 4);
  cfg.message_count = 10;
  cfg.topology.kind = net::topology_kind::trust_weighted;
  cfg.topology.trust_decay = 0.5;
  const auto topology_line = [](const sim::sim_config& c) {
    std::ostringstream os;
    sim::write_trace_config(c, os);
    const std::string text = os.str();
    const std::size_t at = text.find("\ntopology ");
    return text.substr(at, text.find('\n', at + 1) - at);
  };
  std::ostringstream os;
  sim::write_trace(sim::capture_trace(cfg), os);
  std::string text = os.str();
  const std::string valid = topology_line(cfg);
  cfg.topology.trust_decay = 1e-70;
  const std::size_t at = text.find(valid);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, valid.size(), topology_line(cfg));
  std::istringstream is(text);
  try {
    (void)sim::read_trace(is);
    ADD_FAILURE() << "accepted a trust decay that underflows at N";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.kind(), parse_error_kind::out_of_range) << e.what();
  }
}

TEST(TraceFuzz, ParseErrorsCarryTheTaxonomy) {
  const auto kind_of = [](const std::string& text) {
    std::istringstream is(text);
    try {
      (void)sim::read_trace(is);
    } catch (const parse_error& e) {
      EXPECT_EQ(e.source(), "trace");
      return e.kind();
    }
    ADD_FAILURE() << "parse unexpectedly succeeded";
    return parse_error_kind::io;
  };
  EXPECT_EQ(kind_of("not-a-trace v1\n"), parse_error_kind::mismatch);
  EXPECT_EQ(kind_of("anonpath-trace v2\n"), parse_error_kind::version_mismatch);
  EXPECT_EQ(kind_of("anonpath-trace v1\nsys 16"), parse_error_kind::truncated);
  const std::string base = golden_text();
  std::string mangled = base;
  mangled.replace(mangled.find("messages 40"), 11, "messages 0x");
  EXPECT_EQ(kind_of(mangled), parse_error_kind::malformed);
}

}  // namespace
}  // namespace anonpath
