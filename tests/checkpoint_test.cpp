// Campaign checkpoint/resume: the harness-recovery half of the fault layer.
// The pinned contract is bit-identity — a campaign killed at ANY point and
// resumed from its journal renders the exact CSV bytes of an uninterrupted
// run, at any thread count — plus loud scope/corruption rejection and the
// per-cell error isolation that keeps one bad cell from killing a sweep.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "src/sim/campaign.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/stats/error.hpp"

namespace anonpath {
namespace {

sim::campaign_grid small_grid() {
  sim::campaign_grid grid;
  grid.node_counts = {16, 24};
  grid.compromised_counts = {1, 2};
  grid.lengths = {path_length_distribution::fixed(3)};
  grid.drop_probabilities = {0.0, 0.15};
  grid.retries = {sim::retry_policy{}, sim::retry_policy{2, 0.2, 2.0, 5.0}};
  grid.message_count = 120;
  return grid;  // 16 cells
}

std::string render(const sim::campaign_result& result) {
  std::ostringstream os;
  sim::write_csv(result, os);
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A scratch file path unique to the current test.
std::string scratch_path(const char* tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "anonpath_" + info->name() + "_" + tag +
         ".ckpt";
}

/// A two-N grid whose every axis reaches the config block: sessions are on
/// in some cells (so the session axes and law count), off in others (so
/// hop-by-hop routing stays feasible).
sim::campaign_grid scope_grid() {
  sim::campaign_grid grid;
  grid.node_counts = {20, 24};
  grid.compromised_counts = {2};
  grid.populations = {0, 20};
  grid.session_rounds = {0, 10};
  grid.attacks = {attack::attack_kind::none, attack::attack_kind::sda};
  grid.message_count = 60;
  return grid;
}

TEST(CampaignScope, EverySingleFieldPerturbationMovesTheScope) {
  using G = sim::campaign_grid;
  using C = sim::campaign_config;
  using grid_edit = void (*)(G&);
  using config_edit = void (*)(C&);
  const std::pair<const char*, grid_edit> grid_edits[] = {
      // The 16 axes.
      {"node_counts", [](G& g) { g.node_counts[1] = 25; }},
      {"compromised_counts", [](G& g) { g.compromised_counts = {3}; }},
      {"lengths",
       [](G& g) { g.lengths = {path_length_distribution::fixed(4)}; }},
      {"modes", [](G& g) { g.modes = {routing_mode::hop_by_hop}; }},
      {"drop_probabilities", [](G& g) { g.drop_probabilities = {0.1}; }},
      {"arrival_rates", [](G& g) { g.arrival_rates = {40.0}; }},
      {"adversaries",
       [](G& g) { g.adversaries[0].receiver_compromised = false; }},
      {"topologies",
       [](G& g) { g.topologies[0].kind = net::topology_kind::tiered; }},
      {"routings", [](G& g) {
         g.routings = {net::routing_config{net::route_select::kpaths, 3}};
       }},
      {"churns", [](G& g) { g.churns = {net::churn_config{0.2, 0.5}}; }},
      {"mix_failures",
       [](G& g) { g.mix_failures = {sim::mix_failure_config{2, 0.0, 0.3}}; }},
      {"retries",
       [](G& g) { g.retries = {sim::retry_policy{2, 0.1, 2.0, 1.0}}; }},
      {"populations", [](G& g) { g.populations[1] = 30; }},
      {"session_rounds", [](G& g) { g.session_rounds[1] = 12; }},
      {"attacks",
       [](G& g) { g.attacks[1] = attack::attack_kind::sequential_bayes; }},
      {"streams", [](G& g) {
         g.streams = {workload::stream_backend::exact,
                      workload::stream_backend::sketch};
       }},
      // The 6 shared settings.
      {"message_count", [](G& g) { g.message_count = 61; }},
      {"forward_prob", [](G& g) { g.forward_prob = 0.7; }},
      {"latency", [](G& g) { g.latency.jitter *= 2.0; }},
      {"identified_threshold", [](G& g) { g.identified_threshold = 0.95; }},
      {"session_receiver_law", [](G& g) {
         g.session_receiver_law.kind = workload::popularity_kind::zipf;
       }},
      {"fault_outages", [](G& g) { g.fault_outages = {{1, 0.1, 0.2}}; }},
  };
  // The 3 run parameters.
  const std::pair<const char*, config_edit> config_edits[] = {
      {"replicas", [](C& c) { c.replicas = 3; }},
      {"master_seed", [](C& c) { c.master_seed = 2; }},
      {"via_trace", [](C& c) { c.via_trace = true; }},
  };

  const sim::campaign_grid grid = scope_grid();
  sim::campaign_config config;
  config.replicas = 2;
  const std::uint64_t base = sim::campaign_scope(grid, config);
  EXPECT_EQ(base, sim::campaign_scope(grid, config));  // deterministic

  std::map<std::uint64_t, std::string> seen{{base, "base"}};
  const auto expect_fresh = [&](const char* field, std::uint64_t scope) {
    const auto [at, fresh] = seen.emplace(scope, field);
    EXPECT_TRUE(fresh) << field << " shares its scope with " << at->second;
  };
  for (const auto& [field, edit] : grid_edits) {
    sim::campaign_grid changed = grid;
    edit(changed);
    ASSERT_FALSE(sim::expand_grid(changed).empty()) << field;
    expect_fresh(field, sim::campaign_scope(changed, config));
  }
  for (const auto& [field, edit] : config_edits) {
    sim::campaign_config changed = config;
    edit(changed);
    expect_fresh(field, sim::campaign_scope(grid, changed));
  }
  EXPECT_EQ(seen.size(), 26u);
}

TEST(CampaignScope, InfeasibleAxisValuesLeaveTheScopeAlone) {
  // C == N and a length that cannot fit N only add cells expand_grid
  // drops: the cell list, the CSV and the journal are those of the base
  // grid, so the journal stays resumable.
  const sim::campaign_grid grid = scope_grid();
  sim::campaign_config config;
  config.replicas = 2;
  sim::campaign_grid padded = grid;
  padded.compromised_counts = {2, 24};
  padded.lengths.push_back(path_length_distribution::fixed(30));
  EXPECT_GT(padded.cell_count(), grid.cell_count());
  EXPECT_EQ(sim::expand_grid(padded).size(), sim::expand_grid(grid).size());
  EXPECT_EQ(sim::campaign_scope(padded, config),
            sim::campaign_scope(grid, config));
}

TEST(Checkpoint, CellRecordsRoundTripBitExactly) {
  sim::campaign_cell cell;
  cell.replicas = 4;
  cell.submitted = 480;
  cell.delivered = 399;
  cell.delivered_fraction.add(0.831);
  cell.delivered_fraction.add(0.8315);
  cell.latency_seconds.add(0.1234567891234);
  cell.entropy_bits.add(3.0);
  cell.entropy_bits.add(3.5);
  cell.retransmit_rate.add(0.25);

  sim::campaign_cell errored;
  errored.replicas = 4;
  errored.error = "precondition failed: something, with a comma";

  std::ostringstream os;
  sim::write_checkpoint_header(os, 0xdeadbeefcafef00dULL);
  sim::append_checkpoint_cell(os, 0, cell);
  sim::append_checkpoint_cell(os, 1, errored);

  std::istringstream is(os.str());
  const auto cells = sim::read_checkpoint(is, 0xdeadbeefcafef00dULL, 4, 10);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].submitted, cell.submitted);
  EXPECT_EQ(cells[0].delivered, cell.delivered);
  EXPECT_EQ(cells[0].delivered_fraction.count(), 2u);
  EXPECT_EQ(cells[0].delivered_fraction.mean(),
            cell.delivered_fraction.mean());
  EXPECT_EQ(cells[0].delivered_fraction.std_error(),
            cell.delivered_fraction.std_error());
  EXPECT_EQ(cells[0].latency_seconds.mean(), cell.latency_seconds.mean());
  EXPECT_EQ(cells[0].entropy_bits.m2(), cell.entropy_bits.m2());
  EXPECT_EQ(cells[0].retransmit_rate.mean(), 0.25);
  EXPECT_TRUE(cells[0].error.empty());
  EXPECT_EQ(cells[1].error, errored.error);
}

parse_error_kind read_failure_kind(const std::string& text,
                                   std::uint64_t scope,
                                   std::uint64_t max_cells) {
  std::istringstream is(text);
  try {
    (void)sim::read_checkpoint(is, scope, 1, max_cells);
  } catch (const parse_error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "read_checkpoint unexpectedly succeeded";
  return parse_error_kind::io;
}

TEST(Checkpoint, RejectsForeignAndCorruptJournals) {
  sim::campaign_cell one_replica;
  one_replica.replicas = 1;
  std::ostringstream os;
  sim::write_checkpoint_header(os, 1);
  sim::append_checkpoint_cell(os, 0, one_replica);
  sim::append_checkpoint_cell(os, 1, one_replica);
  const std::string text = os.str();
  {
    std::istringstream is(text);
    EXPECT_EQ(sim::read_checkpoint(is, 1, 1, 10).size(), 2u);
  }

  EXPECT_EQ(read_failure_kind(text, 2, 10), parse_error_kind::mismatch);
  EXPECT_EQ(read_failure_kind("anonpath-trace v1\n", 1, 10),
            parse_error_kind::mismatch);
  EXPECT_EQ(read_failure_kind("anonpath-checkpoint v9\nscope whatever\n", 1,
                              10),
            parse_error_kind::version_mismatch);
  // A v1 journal (the hand-kept scope encoding) is refused, not reread.
  std::string v1 = text;
  v1.replace(v1.find(" v2\n"), 4, " v1\n");
  EXPECT_EQ(read_failure_kind(v1, 1, 10), parse_error_kind::version_mismatch);
  // A mangled NON-final record is corruption, not a kill point.
  std::string mangled = text;
  mangled.replace(mangled.find("cell 0"), 6, "cell x");
  EXPECT_EQ(read_failure_kind(mangled, 1, 10), parse_error_kind::malformed);
  // More records than the grid has cells: a foreign or stale journal.
  EXPECT_EQ(read_failure_kind(text, 1, 1), parse_error_kind::mismatch);
  {
    // Empty stream = killed before the header: zero progress, no error.
    std::istringstream is("");
    EXPECT_TRUE(sim::read_checkpoint(is, 1, 1, 10).empty());
  }
}

/// Replaces token `t` of line `line` (both 0-based) of a journal.
std::string with_token(const std::string& journal, std::size_t line,
                       std::size_t t, const std::string& sub) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < line; ++i) begin = journal.find('\n', begin) + 1;
  for (std::size_t i = 0; i < t; ++i) begin = journal.find(' ', begin) + 1;
  const std::size_t end = journal.find_first_of(" \n", begin);
  return journal.substr(0, begin) + sub + journal.substr(end);
}

TEST(Checkpoint, RecordsMustCarryTheCampaignReplicaCount) {
  // `campaign --n 20 --c 1,2 --dist F:3 --messages 50 --replicas 4 --seed 3
  // --checkpoint j.ckpt`, then `cell 0 4 ...` edited to `cell 0 9 ...` and
  // resumed: the edited record must not reach the CSV's replicas column.
  sim::campaign_grid grid;
  grid.node_counts = {20};
  grid.compromised_counts = {1, 2};
  grid.message_count = 50;
  sim::campaign_config config;
  config.replicas = 4;
  config.master_seed = 3;
  config.checkpoint_path = scratch_path("replicas");
  const std::string clean_csv = render(sim::run_campaign(grid, config));
  const std::string journal = slurp(config.checkpoint_path);
  ASSERT_EQ(journal.find("cell 0 4 "), journal.find("\ncell ") + 1);

  sim::campaign_config resume = config;
  resume.resume = true;
  const auto resume_from = [&](const std::string& text) {
    std::ofstream(config.checkpoint_path, std::ios::binary) << text;
    return render(sim::run_campaign(grid, resume));
  };
  const auto resume_kind = [&](const std::string& text) {
    try {
      (void)resume_from(text);
    } catch (const parse_error& e) {
      return e.kind();
    }
    ADD_FAILURE() << "resume accepted a foreign record";
    return parse_error_kind::io;
  };
  // Record 0 is line 2, its replica count token 2 and its first summary
  // count token 5; record 1 is the final line.
  EXPECT_EQ(resume_kind(with_token(journal, 2, 2, "9")),
            parse_error_kind::malformed);
  EXPECT_EQ(resume_kind(with_token(journal, 2, 2, "3")),
            parse_error_kind::malformed);
  EXPECT_EQ(resume_kind(with_token(journal, 2, 5, "5")),
            parse_error_kind::malformed);
  // On the final line the same edit is the kill point: that cell reruns.
  EXPECT_EQ(resume_from(with_token(journal, 3, 2, "9")), clean_csv);
  EXPECT_EQ(resume_from(with_token(journal, 3, 5, "5")), clean_csv);

  // The merge path reads records under the same rule.
  std::istringstream is(with_token(journal, 2, 2, "9"));
  EXPECT_THROW((void)sim::read_shard_checkpoint(
                   is, sim::campaign_scope(grid, config), 4, 2),
               parse_error);
  std::remove(config.checkpoint_path.c_str());
}

TEST(Checkpoint, KillPointSweepResumesBitIdentically) {
  const sim::campaign_grid grid = small_grid();
  sim::campaign_config config;
  config.replicas = 3;
  config.master_seed = 77;
  config.threads = 1;
  config.checkpoint_path = scratch_path("clean");

  const auto clean = sim::run_campaign(grid, config);
  const std::string clean_csv = render(clean);
  const std::string journal = slurp(config.checkpoint_path);
  ASSERT_EQ(clean.cells.size(), 16u);

  // Kill points: before any cell, after the first, mid-grid, mid-append of
  // the final record, and after everything. Each truncated journal must
  // resume to the same CSV bytes — on one thread and on eight.
  std::size_t header_end = journal.find('\n');
  header_end = journal.find('\n', header_end + 1) + 1;
  std::vector<std::size_t> kill_points = {header_end};
  std::size_t pos = header_end;
  for (int cells = 0; cells < 15; ++cells) pos = journal.find('\n', pos) + 1;
  kill_points.push_back(journal.find('\n', header_end) + 1);   // cell 0 done
  kill_points.push_back(pos);                                  // 15 of 16
  kill_points.push_back(journal.size() - 7);                   // torn record
  kill_points.push_back(journal.size());                       // complete

  int tag = 0;
  for (std::size_t kill : kill_points) {
    for (unsigned threads : {1u, 8u}) {
      sim::campaign_config resume_config = config;
      resume_config.threads = threads;
      resume_config.resume = true;
      resume_config.checkpoint_path =
          scratch_path(("k" + std::to_string(tag++)).c_str());
      {
        std::ofstream out(resume_config.checkpoint_path, std::ios::binary);
        out << journal.substr(0, kill);
      }
      const auto resumed = sim::run_campaign(grid, resume_config);
      EXPECT_EQ(render(resumed), clean_csv)
          << "kill at byte " << kill << ", " << threads << " thread(s)";
      // And the rewritten journal is complete again: a second resume does
      // zero work and still reproduces the bytes.
      sim::campaign_config again = resume_config;
      again.threads = 1;
      EXPECT_EQ(render(sim::run_campaign(grid, again)), clean_csv);
      std::remove(resume_config.checkpoint_path.c_str());
    }
  }
  std::remove(config.checkpoint_path.c_str());
}

TEST(Checkpoint, ThreadCountInvarianceWithoutJournal) {
  const sim::campaign_grid grid = small_grid();
  sim::campaign_config config;
  config.replicas = 2;
  config.master_seed = 5;
  config.threads = 1;
  const std::string serial = render(sim::run_campaign(grid, config));
  config.threads = 8;
  EXPECT_EQ(render(sim::run_campaign(grid, config)), serial);
}

TEST(Checkpoint, MissingJournalDegradesToFreshStart) {
  const sim::campaign_grid grid = small_grid();
  sim::campaign_config config;
  config.replicas = 1;
  config.checkpoint_path = scratch_path("absent");
  config.resume = true;
  std::remove(config.checkpoint_path.c_str());
  const auto result = sim::run_campaign(grid, config);
  EXPECT_EQ(result.cells.size(), 16u);
  std::remove(config.checkpoint_path.c_str());
}

TEST(Checkpoint, ErrorCellsSurviveTheJournal) {
  // A fault plan naming node 20 fails every N=16 cell but none of the
  // N=24 cells; the error rows must flow through checkpoint + resume into
  // byte-identical CSV (error column included).
  sim::campaign_grid grid = small_grid();
  grid.fault_outages = {{20, 0.0, 5.0}};
  sim::campaign_config config;
  config.replicas = 2;
  config.checkpoint_path = scratch_path("err");

  const auto clean = sim::run_campaign(grid, config);
  const std::string clean_csv = render(clean);
  std::size_t errored = 0;
  for (const auto& cell : clean.cells)
    if (!cell.error.empty()) ++errored;
  EXPECT_EQ(errored, 8u);  // every N=16 cell
  EXPECT_NE(clean_csv.find(",error"), std::string::npos);

  const std::string journal = slurp(config.checkpoint_path);
  sim::campaign_config resumed = config;
  resumed.resume = true;
  {  // keep half the journal: 2 header lines + 5 records
    std::size_t pos = 0;
    for (int lines = 0; lines < 7; ++lines) pos = journal.find('\n', pos) + 1;
    std::ofstream out(config.checkpoint_path, std::ios::binary);
    out << journal.substr(0, pos);
  }
  EXPECT_EQ(render(sim::run_campaign(grid, resumed)), clean_csv);
  std::remove(config.checkpoint_path.c_str());
}

}  // namespace
}  // namespace anonpath
