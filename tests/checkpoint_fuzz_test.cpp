// Corrupted-corpus hardening for the checkpoint journal parsers. Journals
// are untrusted input on resume and merge; the contract (checkpoint.hpp) is
// that ANY bytes either read back as cells or throw anonpath::parse_error —
// never a contract_violation, never a crash. The corpus is the trace fuzz
// suite's mutation generator run over real journals: one unsharded, and
// each journal of a 3-shard split of the same campaign.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/sim/campaign.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/stats/contract.hpp"
#include "src/stats/error.hpp"
#include "tests/fuzz_mutations.hpp"

namespace anonpath {
namespace {

/// 16 cells: a retry axis (retransmit summaries) and a fault plan naming
/// node 20, which fails every N=16 cell (error records).
sim::campaign_grid fuzz_grid() {
  sim::campaign_grid grid;
  grid.node_counts = {16, 24};
  grid.compromised_counts = {1, 2};
  grid.drop_probabilities = {0.0, 0.15};
  grid.retries = {sim::retry_policy{}, sim::retry_policy{2, 0.2, 2.0, 5.0}};
  grid.fault_outages = {{20, 0.0, 5.0}};
  grid.message_count = 60;
  return grid;
}

std::string journal_of(const sim::campaign_grid& grid,
                       sim::campaign_config config) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  config.checkpoint_path = ::testing::TempDir() + "anonpath_" +
                           info->name() + "_" +
                           std::to_string(config.shard_index) + ".ckpt";
  (void)sim::run_campaign(grid, config);
  std::ifstream in(config.checkpoint_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::remove(config.checkpoint_path.c_str());
  return buf.str();
}

/// Feeds every mutant of `journal` to both readers: the resume reader for
/// shard `shard_index` of `shard_count`, and the merge reader.
void fuzz_journal(const std::string& journal, const std::string& tag,
                  std::uint64_t scope, std::uint32_t replicas,
                  std::uint64_t cell_total, std::uint32_t shard_index,
                  std::uint32_t shard_count) {
  ASSERT_GT(fuzz::split_lines(journal).size(), 6u) << tag;
  const std::uint64_t max_cells =
      sim::shard_cell_count(cell_total, shard_index, shard_count);
  std::size_t mutants = 0;
  fuzz::for_each_mutant(
      journal, tag, [&](const std::string& text, const std::string& what,
                        bool /*line_level*/) {
        ++mutants;
        const auto expect_graceful = [&](const char* reader, auto&& read) {
          std::istringstream is(text);
          try {
            read(is);
          } catch (const parse_error&) {
            // The documented outcome for bad input.
          } catch (const contract_violation& e) {
            ADD_FAILURE() << what << " (" << reader
                          << "): contract violation escaped: " << e.what();
          } catch (const std::exception& e) {
            ADD_FAILURE() << what << " (" << reader
                          << "): unexpected exception type: " << e.what();
          }
        };
        expect_graceful("read_checkpoint", [&](std::istream& is) {
          const auto cells = sim::read_checkpoint(
              is, scope, replicas, max_cells, shard_index, shard_count);
          EXPECT_LE(cells.size(), max_cells) << what;
        });
        expect_graceful("read_shard_checkpoint", [&](std::istream& is) {
          const auto shard =
              sim::read_shard_checkpoint(is, scope, replicas, cell_total);
          EXPECT_LT(shard.shard_index, shard.shard_count) << what;
          EXPECT_LE(shard.cells.size(),
                    sim::shard_cell_count(cell_total, shard.shard_index,
                                          shard.shard_count))
              << what;
        });
      });
  EXPECT_GT(mutants, 1000u) << tag;
}

TEST(CheckpointFuzz, UnshardedJournalNeverCrashesTheReaders) {
  const sim::campaign_grid grid = fuzz_grid();
  sim::campaign_config config;
  config.replicas = 2;
  const std::string journal = journal_of(grid, config);
  ASSERT_NE(journal.find(" 1 precondition failed"), std::string::npos);
  fuzz_journal(journal, "unsharded", sim::campaign_scope(grid, config),
               config.replicas, sim::expand_grid(grid).size(), 0, 1);
}

TEST(CheckpointFuzz, ShardJournalsNeverCrashTheReaders) {
  const sim::campaign_grid grid = fuzz_grid();
  const std::uint64_t cell_total = sim::expand_grid(grid).size();
  sim::campaign_config config;
  config.replicas = 2;
  config.shard_count = 3;
  const std::uint64_t scope = sim::campaign_scope(grid, config);
  for (std::uint32_t i = 0; i < config.shard_count; ++i) {
    config.shard_index = i;
    fuzz_journal(journal_of(grid, config), "shard " + std::to_string(i),
                 scope, config.replicas, cell_total, i, config.shard_count);
  }
}

}  // namespace
}  // namespace anonpath
