// Negative-parse matrix for the anonpath CLI's numeric flags. Every value
// below used to slip through atoi/atoll (garbage parsing as 0, "4x" as 4)
// or strtod without an end check; the checked parsers must refuse each with
// a nonzero exit and a diagnostic on stderr. Runs the real binary — the
// build exports its path via ANONPATH_CLI_BINARY; without it (library-only
// builds) the suite skips.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/jsonl.hpp"

namespace {

std::string cli_binary() {
#ifdef ANONPATH_CLI_BINARY
  return ANONPATH_CLI_BINARY;
#else
  return {};
#endif
}

struct run_result {
  int exit_code = -1;
  std::string stderr_text;
};

/// Runs the CLI with the given argument string, stdout discarded, stderr
/// captured to a temp file. The file name carries the pid and a counter:
/// ctest runs the CliParse cases as concurrent processes sharing TempDir,
/// and a shared name would let one case clobber another's capture.
run_result run_cli(const std::string& args) {
  static int serial = 0;
  const std::string err_path = ::testing::TempDir() + "anonpath_cli_stderr." +
                               std::to_string(::getpid()) + "." +
                               std::to_string(serial++) + ".txt";
  const std::string cmd =
      "'" + cli_binary() + "' " + args + " >/dev/null 2>'" + err_path + "'";
  const int status = std::system(cmd.c_str());
  run_result r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream err(err_path);
  std::ostringstream text;
  text << err.rdbuf();
  r.stderr_text = text.str();
  std::remove(err_path.c_str());
  return r;
}

class CliParse : public ::testing::Test {
 protected:
  void SetUp() override {
    if (cli_binary().empty())
      GTEST_SKIP() << "ANONPATH_CLI_BINARY not set (CLI not built)";
  }
};

TEST_F(CliParse, NumericFlagMatrixRejectsBadValues) {
  // Every numeric flag x {garbage, trailing junk, negative, overflow}.
  // The command does not matter — values are checked at flag-parse time,
  // before command dispatch — but each flag rides a command that accepts
  // it so a future parse-order change cannot quietly skip the check.
  struct flag_case {
    const char* command;  // command line up to the flag under test
    const char* flag;
  };
  const std::vector<flag_case> flags = {
      {"simulate --n 20 --c 2", "--messages"},
      {"simulate --n 20 --c 2", "--seed"},
      {"campaign --n 20 --c 2", "--replicas"},
      {"campaign --n 20 --c 2", "--threads"},
      {"estimate --n 50 --c 2", "--samples"},
      {"estimate --n 50 --c 2", "--shards"},
      {"plan --n 100", "--source"},
      {"plan --n 100", "--routes"},
      {"estimate --c 2", "--n"},
      {"estimate --n 50", "--c"},
  };
  const std::vector<const char*> bad_values = {
      "foo",                     // pure garbage (atoi returned 0)
      "4x",                      // trailing junk (atoi returned 4)
      "-1",                      // negative into an unsigned flag
      "99999999999999999999999"  // out of range for every width
  };
  for (const auto& f : flags) {
    for (const char* value : bad_values) {
      const std::string args = std::string(f.command) + " " + f.flag + " '" +
                               value + "'";
      const run_result r = run_cli(args);
      EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
      EXPECT_FALSE(r.stderr_text.empty())
          << "no stderr diagnostic: anonpath " << args;
    }
  }
}

TEST_F(CliParse, FloatFlagsRejectJunkTails) {
  // strtod parses a numeric prefix; the end-pointer check must refuse what
  // it leaves behind, plus overflow and non-finite spellings.
  for (const char* value : {"foo", "2.5x", "1e", ".", "1e999", "inf", "nan"}) {
    const run_result r =
        run_cli(std::string("optimize --n 100 --mean '") + value + "'");
    EXPECT_NE(r.exit_code, 0) << "--mean accepted '" << value << "'";
    EXPECT_FALSE(r.stderr_text.empty());
  }
  // --rate is a comma-list axis with its own per-element end check.
  for (const char* value : {"foo", "50x", "50,"}) {
    const run_result r = run_cli(
        std::string("simulate --n 20 --c 2 --rate '") + value + "'");
    EXPECT_NE(r.exit_code, 0) << "--rate accepted '" << value << "'";
    EXPECT_FALSE(r.stderr_text.empty());
  }
}

TEST_F(CliParse, ZeroWhereItIsMeaningless) {
  // 0 parses fine but is rejected by the range checks — the old atoi bug
  // made garbage indistinguishable from an explicit 0, so both must fail.
  for (const char* args :
       {"simulate --n 20 --c 2 --messages 0",
        "campaign --n 20 --c 2 --replicas 0",
        "optimize --n 50 --c 2 --samples 0", "plan --n 100 --routes 0"}) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty());
  }
}

TEST_F(CliParse, RoutingFlagValidation) {
  for (const char* args :
       {"simulate --n 20 --c 2 --routing bogus",
        "simulate --n 20 --c 2 --routing kpaths:0",
        "simulate --n 20 --c 2 --routing kpaths:65",
        "simulate --n 20 --c 2 --routing kpaths:4x",
        // kpaths needs source routing and a non-timing adversary.
        "simulate --n 20 --c 2 --mode hop_by_hop --routing kpaths",
        "simulate --n 20 --c 2 --adversary timing --routing kpaths",
        // estimate/replay are clique-analytic surfaces: no planned routes.
        "estimate --n 50 --c 2 --routing kpaths"}) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty());
  }
}

TEST_F(CliParse, StreamFlagValidation) {
  for (const char* args : {
           // unknown backend label
           "simulate --n 20 --c 2 --stream dense",
           "attack --users 200 --rounds 30 --attack sda --stream dense",
           // sketch state exists for the counting attack (sda) only
           "attack --users 200 --rounds 30 --attack bayes --stream sketch",
           "attack --users 200 --rounds 30 --attack intersection "
           "--stream sketch",
           "simulate --n 20 --c 2 --messages 30 --population 100 --rounds 30 "
           "--attack intersection --stream sketch",
           // simulate/attack take one backend, not an axis list
           "simulate --n 20 --c 2 --messages 30 --population 100 --rounds 30 "
           "--attack sda --stream exact,sketch",
           "attack --users 200 --rounds 30 --attack sda --stream exact,sketch",
           // --stream without a session to back it
           "simulate --n 20 --c 2 --messages 30 --stream sketch",
           // a sketch axis needs sda on the --attack axis
           "campaign --n 16 --c 1 --messages 30 --replicas 1 --population 100 "
           "--rounds 30 --attack intersection --stream sketch",
           // commands with no disclosure accumulator at all
           "estimate --n 50 --c 2 --stream exact",
           "plan --n 100 --stream sketch",
       }) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty())
        << "no stderr diagnostic: anonpath " << args;
  }
  // Positive controls: the sketch backend on its intended surfaces.
  EXPECT_EQ(run_cli("attack --users 200 --rounds 30 --attack sda "
                    "--stream sketch")
                .exit_code,
            0);
  EXPECT_EQ(run_cli("simulate --n 20 --c 2 --messages 30 --population 100 "
                    "--rounds 30 --attack sda --stream sketch --seed 5")
                .exit_code,
            0);
}

TEST_F(CliParse, ShardAndMergeFlagValidation) {
  const std::string grid = "--n 16,24 --c 1,2 --messages 40 --replicas 1";
  const std::vector<std::string> cases = {
           // --shard spec must be i/n with i < n, n >= 1.
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard foo",
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 3",
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 3/3",
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 1/0",
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 1/2x",
           // a shard run without a journal has no output to merge.
           "campaign " + grid + " --shard 0/2",
           // more shards than cells: some shards would be empty.
           "campaign " + grid + " --checkpoint /tmp/x.ckpt --shard 0/64",
           // --shard/--input belong to campaign/merge only.
           "simulate --n 20 --c 2 --shard 0/2",
           "estimate --n 50 --c 2 --input /tmp/x.ckpt",
           "merge " + grid,  // no --input
           "merge " + grid + " --input /tmp/x.ckpt --shard 0/2",
           "merge " + grid + " --input /tmp/x.ckpt --resume",
       };
  for (const std::string& args : cases) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty())
        << "no stderr diagnostic: anonpath " << args;
  }
}

TEST_F(CliParse, ShardedCampaignMergesToUnshardedCsv) {
  // End-to-end through the real binary: 3 shard runs + merge reproduce the
  // unsharded CSV byte for byte, and a merge missing a shard exits nonzero.
  const std::string dir = ::testing::TempDir();
  const std::string grid =
      "--n 16,24 --c 1,2 --messages 40 --replicas 1 --seed 11";
  const std::string clean_csv = dir + "anonpath_cli_clean.csv";
  ASSERT_EQ(std::system(("'" + cli_binary() + "' campaign " + grid + " > '" +
                         clean_csv + "' 2>/dev/null")
                            .c_str()),
            0);
  std::string inputs;
  for (int i = 0; i < 3; ++i) {
    const std::string ckpt =
        dir + "anonpath_cli_shard" + std::to_string(i) + ".ckpt";
    inputs += " --input '" + ckpt + "'";
    EXPECT_EQ(run_cli("campaign " + grid + " --shard " + std::to_string(i) +
                      "/3 --checkpoint '" + ckpt + "'")
                  .exit_code,
              0);
  }
  const std::string merged_csv = dir + "anonpath_cli_merged.csv";
  ASSERT_EQ(std::system(("'" + cli_binary() + "' merge " + grid + inputs +
                         " > '" + merged_csv + "' 2>/dev/null")
                            .c_str()),
            0);
  std::ifstream a(clean_csv), b(merged_csv);
  std::ostringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
  // Drop shard 1 from the input list: the merge must refuse, not emit a
  // CSV with silently absent cells.
  const run_result partial = run_cli(
      "merge " + grid + " --input '" + dir + "anonpath_cli_shard0.ckpt' " +
      "--input '" + dir + "anonpath_cli_shard2.ckpt'");
  EXPECT_NE(partial.exit_code, 0);
  EXPECT_NE(partial.stderr_text.find("missing shard"), std::string::npos)
      << partial.stderr_text;
  for (int i = 0; i < 3; ++i)
    std::remove(
        (dir + "anonpath_cli_shard" + std::to_string(i) + ".ckpt").c_str());
  std::remove(clean_csv.c_str());
  std::remove(merged_csv.c_str());
}

TEST_F(CliParse, ObsFlagValidation) {
  for (const char* args : {
           // --metrics/--progress instrument the run-shaped commands only;
           // the pure-analytic and trace surfaces must refuse loudly.
           "degree --n 50 --c 2 --metrics /tmp/m.jsonl",
           "estimate --n 50 --c 2 --metrics /tmp/m.jsonl",
           "optimize --n 50 --progress",
           "figures --progress",
           "capture --n 16 --c 1 --messages 10 --metrics /tmp/m.jsonl",
           "replay --in /tmp/x.trace --progress",
           // a value is required, and an empty one is an empty path.
           "simulate --n 20 --c 2 --metrics",
           "simulate --n 20 --c 2 --metrics=",
       }) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty())
        << "no stderr diagnostic: anonpath " << args;
  }
  // Positive controls: both spellings write a parseable snapshot, and
  // --progress emits its greppable heartbeat on stderr.
  const std::string dir = ::testing::TempDir();
  const std::string metrics = dir + "anonpath_cli_metrics.jsonl";
  std::remove(metrics.c_str());
  EXPECT_EQ(run_cli("simulate --n 12 --c 2 --messages 20 --seed 3 "
                    "--metrics '" + metrics + "'")
                .exit_code,
            0);
  {
    std::ifstream in(metrics);
    std::string header;
    ASSERT_TRUE(std::getline(in, header)) << "metrics file missing or empty";
    EXPECT_NE(header.find("\"format\":\"anonpath-metrics\""),
              std::string::npos)
        << header;
  }
  std::remove(metrics.c_str());
  const run_result progress = run_cli(
      "campaign --n 16 --c 1 --messages 20 --replicas 2 --progress "
      "--metrics='" + metrics + "'");
  EXPECT_EQ(progress.exit_code, 0);
  EXPECT_NE(progress.stderr_text.find("# progress: campaign cells"),
            std::string::npos)
      << progress.stderr_text;
  std::remove(metrics.c_str());
}

TEST_F(CliParse, AttackMetricsTraceHasASingleRoot) {
  // Every phase of 'attack' (the exact session, the sharded cross-checks,
  // the sketch session) nests under one attack.run root, so the trace
  // accounts for the whole command.
  const std::string metrics = ::testing::TempDir() + "anonpath_attack." +
                              std::to_string(::getpid()) + ".jsonl";
  for (const std::string stream : {"exact", "sketch"}) {
    std::remove(metrics.c_str());
    ASSERT_EQ(run_cli("attack --users 2000 --rounds 60 --attack sda "
                      "--threads 2 --stream " + stream + " --metrics '" +
                      metrics + "'")
                  .exit_code,
              0)
        << stream;
    const anonpath::obs::metrics_document doc =
        anonpath::obs::read_metrics_file(metrics);
    std::vector<std::string> roots;
    std::vector<std::string> children;
    for (const anonpath::obs::span_record& span : doc.spans)
      (span.parent == 0 ? roots : children).push_back(span.name);
    EXPECT_EQ(roots, std::vector<std::string>{"attack.run"}) << stream;
    const std::vector<std::string> expected =
        stream == "exact"
            ? std::vector<std::string>{"attack.crosscheck"}
            : std::vector<std::string>{"attack.crosscheck", "attack.ingest",
                                       "attack.crosscheck"};
    EXPECT_EQ(children, expected) << stream;
    for (const anonpath::obs::span_record& span : doc.spans)
      if (span.parent != 0) EXPECT_EQ(span.parent, 1u) << span.name;
  }
  std::remove(metrics.c_str());
}

TEST_F(CliParse, PlanMetricsTraceHasASingleRoot) {
  // Every phase of 'plan' nests under one plan.run root, named like
  // perfbench's per-layer net metrics; --progress ticks through the kpaths
  // loop, not only the shortest-route loop.
  const std::string metrics = ::testing::TempDir() + "anonpath_plan." +
                              std::to_string(::getpid()) + ".jsonl";
  std::remove(metrics.c_str());
  const run_result run = run_cli(
      "plan --n 300 --topology regular:4 --csr --components --routes 12 "
      "--routing kpaths:3 --progress --metrics '" + metrics + "'");
  ASSERT_EQ(run.exit_code, 0) << run.stderr_text;
  EXPECT_NE(run.stderr_text.find("# progress: plan kpaths(3) routes 12/12"),
            std::string::npos)
      << run.stderr_text;
  const anonpath::obs::metrics_document doc =
      anonpath::obs::read_metrics_file(metrics);
  std::vector<std::string> roots;
  std::vector<std::string> children;
  for (const anonpath::obs::span_record& span : doc.spans) {
    (span.parent == 0 ? roots : children).push_back(span.name);
    if (span.parent != 0) {
      EXPECT_EQ(span.parent, 1u) << span.name;
    }
  }
  EXPECT_EQ(roots, std::vector<std::string>{"plan.run"});
  EXPECT_EQ(children,
            (std::vector<std::string>{"net.build", "net.components",
                                      "net.dijkstra", "net.yen"}));
  std::remove(metrics.c_str());
}

TEST_F(CliParse, WriteFailuresExitNonzeroWithDiagnostic) {
  // Output that cannot land must never yield exit 0. /dev/full accepts the
  // open and fails the flush (ENOSPC); a pipe whose reader is gone raises
  // EPIPE. Both are checked at exit via the stream/stdout state. Skip where
  // /dev/full does not fail writes (non-Linux).
  if (std::system("sh -c 'echo x > /dev/full' 2>/dev/null") == 0)
    GTEST_SKIP() << "/dev/full does not reject writes here";
  struct io_case {
    const char* tag;
    std::string cmd;
  };
  const std::string base =
      "'" + cli_binary() + "' campaign --n 16 --c 1 --messages 30";
  const std::vector<io_case> cases = {
      {"csv to full disk", base + " > /dev/full"},
      // The trace (~160K) overflows the 64K pipe buffer, so the writer is
      // guaranteed to hit EPIPE once `true` exits — a short CSV piped to a
      // fast-exiting reader can legitimately land in the buffer and win.
      {"closed pipe",
       "set -o pipefail; '" + cli_binary() +
           "' capture --n 16 --c 1 --messages 2000 | true"},
      {"checkpoint on full disk", base + " --checkpoint /dev/full >/dev/null"},
      {"trace on full disk",
       "'" + cli_binary() +
           "' capture --n 16 --c 1 --messages 30 --out /dev/full >/dev/null"},
      // --metrics writes are checked like any result-bearing output: a
      // snapshot that cannot land must fail the run, not vanish quietly.
      {"metrics on full disk", base + " --metrics /dev/full >/dev/null"},
      {"simulate metrics on full disk",
       "'" + cli_binary() +
           "' simulate --n 16 --c 1 --messages 30 --metrics /dev/full "
           ">/dev/null"},
      {"metrics to unwritable dir",
       base + " --metrics /nonexistent-dir/m.jsonl >/dev/null"},
  };
  for (const auto& c : cases) {
    static int serial = 0;
    const std::string err_path = ::testing::TempDir() +
                                 "anonpath_cli_io_stderr." +
                                 std::to_string(serial++) + ".txt";
    const std::string cmd =
        "bash -c \"" + c.cmd + "\" 2>'" + err_path + "'";
    const int status = std::system(cmd.c_str());
    const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    EXPECT_NE(rc, 0) << c.tag << " exited 0";
    std::ifstream err(err_path);
    std::ostringstream text;
    text << err.rdbuf();
    EXPECT_NE(text.str().find("error"), std::string::npos)
        << c.tag << ": no stderr diagnostic, got: " << text.str();
    std::remove(err_path.c_str());
  }
}

TEST_F(CliParse, PositiveControls) {
  // The matrix proves rejection; these prove the runner and the happy path
  // still work, so a binary that exits nonzero on everything cannot pass.
  EXPECT_EQ(run_cli("estimate --n 50 --c 2 --samples 20000").exit_code, 0);
  EXPECT_EQ(
      run_cli("simulate --n 12 --c 2 --messages 20 --seed 3").exit_code, 0);
  EXPECT_EQ(run_cli("plan --n 200 --topology regular:4 --csr --routes 10 "
                    "--routing kpaths:2")
                .exit_code,
            0);
}

}  // namespace
