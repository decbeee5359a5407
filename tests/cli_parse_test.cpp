// Parse matrices for the anonpath CLI. Numeric values that used to slip
// through atoi/atoll (garbage parsing as 0, "4x" as 4) or strtod without an
// end check must be refused with a nonzero exit and a diagnostic on stderr;
// flags a command does not read, repeats and off-grid lists are usage
// errors (exit 2), checked against the per-command flag lists the usage
// text prints from the CLI's flag table. Runs the real binary — the build
// exports its path via ANONPATH_CLI_BINARY; without it (library-only
// builds) the suite skips.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
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
    // simulate does not read --rate at all; campaign parses the value.
    const run_result grid = run_cli(
        std::string("campaign --n 16 --c 1 --messages 10 --rate '") + value +
        "'");
    EXPECT_EQ(grid.exit_code, 2) << "campaign --rate '" << value << "'";
    EXPECT_NE(grid.stderr_text.find("error: "), std::string::npos);
  }
  // Values the flag parsers used to take unchecked: a threshold outside
  // [0, 1] (capture wrote a trace its own replay rejects), non-finite
  // thresholds, rates and popularity exponents. Each is a usage error.
  for (const char* args : {
           "capture --n 16 --c 1 --messages 10 --out /dev/null "
           "--threshold 7",
           "simulate --n 16 --c 1 --messages 10 --threshold nan",
           "simulate --n 16 --c 1 --messages 10 --threshold -0.5",
           "campaign --n 16 --c 1 --messages 10 --replicas 1 --threshold 1.5",
           "campaign --n 16 --c 1 --messages 10 --replicas 1 --rate inf",
           "campaign --n 16 --c 1 --messages 10 --replicas 1 --rate 50,nan",
           "attack --users 200 --rounds 30 --attack sda "
           "--receiver-law zipf:inf",
           "attack --users 200 --rounds 30 --attack sda --sender-law zipf:nan",
           "simulate --n 16 --c 1 --messages 30 --population 10 --rounds 5 "
           "--receiver-law zipf:inf",
           "attack --users 200 --rounds 30 --attack sda --send-rate nan",
       }) {
    const run_result r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << "anonpath " << args;
    EXPECT_NE(r.stderr_text.find("error: "), std::string::npos)
        << "no usage diagnostic: anonpath " << args;
  }
}

TEST_F(CliParse, DistSpecsAreCheckedBeforeConstruction) {
  // Negative lengths used to wrap into a huge allocation (std::bad_alloc),
  // inverted or out-of-range shapes tripped a library precondition, and
  // non-integer lengths truncated silently. All exited 134 or ran the
  // wrong strategy; each is a usage error now.
  for (const char* spec : {"F:-1", "U:5,2", "G:2,1,4", "G:-0.1,1,4",
                           "G:0.5,4,1", "P:nan,5", "P:0,5", "P:-1,5",
                           "P:inf,5", "P:1000,5", "F:abc", "F:2.7", "F:1e20",
                           "F:", "U:1", "U:1,2,3", "X:3", "F3", "U:1,,3"}) {
    const std::string args =
        std::string("degree --n 50 --dist '") + spec + "'";
    const run_result r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << "anonpath " << args;
    EXPECT_NE(r.stderr_text.find("error: "), std::string::npos)
        << "no usage diagnostic: anonpath " << args;
  }
  // Positive control: every family still parses.
  for (const char* spec : {"F:0", "F:5", "U:2,14", "G:0.5,1,20", "G:0,3,3",
                           "P:3.5,20"}) {
    EXPECT_EQ(run_cli(std::string("degree --n 50 --dist '") + spec + "'")
                  .exit_code,
              0)
        << spec;
  }
}

TEST_F(CliParse, ZeroWhereItIsMeaningless) {
  // 0 parses fine but is rejected by the range checks — the old atoi bug
  // made garbage indistinguishable from an explicit 0, so both must fail.
  for (const char* args :
       {"simulate --n 20 --c 2 --messages 0",
        "campaign --n 20 --c 2 --replicas 0",
        "optimize --n 50 --c 2 --samples 0", "plan --n 100 --routes 0",
        // optimize reads neither --c nor --samples, so the row above is
        // refused before the value is looked at; estimate reads both.
        "estimate --n 50 --c 2 --samples 0"}) {
    const run_result r = run_cli(args);
    EXPECT_NE(r.exit_code, 0) << "accepted: anonpath " << args;
    EXPECT_FALSE(r.stderr_text.empty());
  }
}

TEST_F(CliParse, SimulateAndCaptureRefuseWhatOneRunCannotHonour) {
  // One run takes one config. Each of these used to run something other
  // than what was asked: a --dist longer than N-1 hops tripped an engine
  // precondition (exit 1), --rate/--replicas were silently dropped, and a
  // comma-list axis ran only its first value. All are usage errors (exit 2)
  // now, for both commands.
  for (const char* command : {"simulate", "capture --out /dev/null"}) {
    for (const char* flags : {
             "--n 10 --dist F:10",
             "--n 6 --c 1 --dist U:1,6",
             "--n 20 --c 2 --rate 10",
             "--n 20 --c 2 --replicas 4",
             "--n 10,20 --c 2",
             "--n 20 --c 1,2",
             "--n 20 --c 2 --dist F:2 --dist F:3",
             "--n 20 --c 2 --drop 0,0.1",
             "--n 20 --c 2 --adversary full,timing",
             "--n 20 --c 2 --topology complete,ring:2",
             "--n 20 --c 2 --churn 0,0.5:0.5",
         }) {
      const std::string args =
          std::string(command) + " " + flags + " --messages 20";
      const run_result r = run_cli(args);
      EXPECT_EQ(r.exit_code, 2) << "anonpath " << args;
      EXPECT_NE(r.stderr_text.find("error: "), std::string::npos)
          << "no usage diagnostic: anonpath " << args;
    }
  }
  // Positive control: the longest simple path still runs.
  EXPECT_EQ(run_cli("simulate --n 10 --c 1 --dist F:9 --messages 20")
                .exit_code,
            0);
}

TEST_F(CliParse, EveryRunnabilityRuleIsAUsageError) {
  // One argv per rule a config must keep to run, plus the flag-level
  // checks in front of it. None may reach the simulator's own
  // precondition (exit 1): each is a usage error naming what is wrong.
  struct rule_case {
    const char* flags;
    const char* names;  // part of the diagnostic; null for flag checks
    bool campaign = true;  // false: a grid applies it at run time
  };
  const std::vector<rule_case> cases = {
      {"--n 0", "N >= 2"},
      {"--n 1 --c 0 --dist F:0", "N >= 2"},
      {"--n 20 --c 25", "C < N"},
      {"--n 20 --c 20", "C < N"},
      {"--n 20 --c 20 --population 5 --rounds 5 --attack sda", "C < N"},
      {"--n 10 --dist F:10", "path lengths <= N-1"},
      {"--n 20 --crash 25:0:1", "outage nodes < N", false},
      {"--n 20 --population 10 --rounds 5 --mode crowds",
       "sessions need source"},
      {"--n 20 --mode crowds --routing kpaths", "kpaths routing needs"},
      {"--n 20 --adversary timing --routing kpaths",
       "kpaths routing excludes"},
      {"--n 10 --topology ring:5", "topology parameters fit N"},
      {"--n 3000 --c 2 --topology trust:0.5", "topology parameters fit N"},
      {"--n 20 --topology ring:2 --adversary timing",
       "restricted topology excludes"},
      {"--n 20 --adversary partial:1.5", nullptr},
      {"--n 20 --drop 1", nullptr},
      {"--n 20 --population 1 --rounds 5", nullptr},
      {"--n 20 --population 10 --rounds 40", nullptr},
      {"--n 20 --population 10", nullptr},
      {"--n 20 --attack sda", nullptr},
      {"--n 20 --population 10 --rounds 5 --attack intersection "
       "--stream sketch",
       nullptr},
      {"--n 20 --receiver-law zipf:1", nullptr},
  };
  for (const char* command :
       {"simulate --messages 30", "capture --out /dev/null --messages 30",
        "campaign --replicas 1 --messages 30"}) {
    const bool grid = std::string(command).rfind("campaign", 0) == 0;
    for (const rule_case& c : cases) {
      if (grid && !c.campaign) continue;
      const std::string args = std::string(command) + " " + c.flags;
      const run_result r = run_cli(args);
      EXPECT_EQ(r.exit_code, 2) << "anonpath " << args;
      EXPECT_NE(r.stderr_text.find("error: "), std::string::npos)
          << "anonpath " << args;
      EXPECT_EQ(r.stderr_text.find("precondition failed"), std::string::npos)
          << "anonpath " << args << "\n" << r.stderr_text;
      if (c.names != nullptr)
        EXPECT_NE(r.stderr_text.find(c.names), std::string::npos)
            << "anonpath " << args << "\n" << r.stderr_text;
    }
  }
  // plan builds the graph on its own and asks the same topology rule.
  const run_result plan =
      run_cli("plan --n 5000 --topology trust:0.5 --routes 5");
  EXPECT_EQ(plan.exit_code, 2);
  EXPECT_NE(plan.stderr_text.find("--topology parameters out of range"),
            std::string::npos)
      << plan.stderr_text;
  // Subnormal weights are positive: 0.001^107 still builds and runs.
  EXPECT_EQ(run_cli("simulate --n 216 --c 2 --topology trust:0.001 "
                    "--messages 30")
                .exit_code,
            0);
}

TEST_F(CliParse, AnalyticCommandsRefuseWhatTheirEnginesCannotScore) {
  // Each of these once reached a library precondition (exit 1), or, for
  // C = N, scored a system with no honest node. Each is a usage error
  // naming its rule now.
  struct rule_case {
    const char* args;
    const char* names;  // part of the diagnostic
  };
  const std::vector<rule_case> cases = {
      {"estimate --n 20 --c 25 --samples 10", "C < N"},
      {"estimate --n 20 --c 20 --samples 10", "C < N"},
      {"estimate --n 1", "N >= 2"},
      {"estimate --n 2 --c 1 --samples 10", "path lengths <= N-1"},
      {"estimate --n 5 --dist F:9 --samples 10", "path lengths <= N-1"},
      {"degree --n 0", "N >= 5"},
      {"degree --n 2 --dist F:1", "N >= 5"},
      {"degree --n 5 --dist F:9", "path lengths <= N-1"},
      {"figures --n 2", "N >= 5"},
      {"optimize --n 1", "N >= 5"},
      {"optimize --n 10 --mean 20", "0 <= mean <= N-1"},
      {"optimize --n 10 --mean -1", "0 <= mean <= N-1"},
  };
  for (const rule_case& c : cases) {
    const run_result r = run_cli(c.args);
    EXPECT_EQ(r.exit_code, 2) << "anonpath " << c.args;
    EXPECT_NE(r.stderr_text.find("error: "), std::string::npos)
        << "anonpath " << c.args;
    EXPECT_EQ(r.stderr_text.find("precondition failed"), std::string::npos)
        << "anonpath " << c.args << "\n" << r.stderr_text;
    EXPECT_NE(r.stderr_text.find(c.names), std::string::npos)
        << "anonpath " << c.args << "\n" << r.stderr_text;
  }
  // Positive controls: each rule's boundary still runs, and a walk on a
  // graph may be longer than a simple path.
  for (const char* args :
       {"estimate --n 20 --c 19 --samples 10", "degree --n 5 --dist F:4",
        "optimize --n 5 --mean 4", "optimize --n 5 --mean 0", "figures --n 5",
        "estimate --n 8 --dist F:9 --topology ring:2 --samples 10"})
    EXPECT_EQ(run_cli(args).exit_code, 0) << "anonpath " << args;
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
  // 'attack' runs its engines (the exact one, plus the sketch one with
  // --stream sketch) in one pass over the rounds, one attack.ingest span
  // nested under the attack.run root. The conformance cross-checks live in
  // streaming_test, not in the command.
  const std::string metrics = ::testing::TempDir() + "anonpath_attack." +
                              std::to_string(::getpid()) + ".jsonl";
  for (const std::string stream : {"exact", "sketch"}) {
    std::remove(metrics.c_str());
    const run_result r =
        run_cli("attack --users 2000 --rounds 60 --attack sda "
                "--threads 2 --stream " + stream + " --metrics '" + metrics +
                "'");
    ASSERT_EQ(r.exit_code, 0) << stream;
    EXPECT_EQ(r.stderr_text.find("cross-check"), std::string::npos)
        << r.stderr_text;
    const anonpath::obs::metrics_document doc =
        anonpath::obs::read_metrics_file(metrics);
    std::vector<std::string> roots;
    std::vector<std::string> children;
    for (const anonpath::obs::span_record& span : doc.spans)
      (span.parent == 0 ? roots : children).push_back(span.name);
    EXPECT_EQ(roots, std::vector<std::string>{"attack.run"}) << stream;
    EXPECT_EQ(children, std::vector<std::string>{"attack.ingest"}) << stream;
    for (const anonpath::obs::span_record& span : doc.spans) {
      if (span.parent != 0) {
        EXPECT_EQ(span.parent, 1u) << span.name;
      }
    }
  }
  std::remove(metrics.c_str());
}

TEST_F(CliParse, CampaignMetricsTraceHasASingleRoot) {
  // Grid expansion, the cell runs and the CSV rendering nest under one
  // campaign.run root, and the instrumented CSV is byte-identical to an
  // uninstrumented run's.
  const std::string stem = ::testing::TempDir() + "anonpath_campaign." +
                           std::to_string(::getpid());
  const std::string metrics = stem + ".jsonl";
  const std::string plain_csv = stem + ".plain.csv";
  const std::string traced_csv = stem + ".traced.csv";
  std::remove(metrics.c_str());
  const std::string run = "'" + cli_binary() +
                          "' campaign --n 16,24 --c 1,2 --dist F:3 "
                          "--mode onion,crowds --messages 40 --replicas 2 "
                          "--seed 5 --threads 2";
  ASSERT_EQ(std::system((run + " > '" + plain_csv + "' 2>/dev/null").c_str()),
            0);
  ASSERT_EQ(std::system((run + " --metrics '" + metrics + "' > '" +
                         traced_csv + "' 2>/dev/null")
                            .c_str()),
            0);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_FALSE(slurp(plain_csv).empty());
  EXPECT_EQ(slurp(traced_csv), slurp(plain_csv));
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
  EXPECT_EQ(roots, std::vector<std::string>{"campaign.run"});
  EXPECT_EQ(children,
            (std::vector<std::string>{"campaign.grid", "campaign.cells",
                                      "campaign.write"}));
  for (const std::string& path : {metrics, plain_csv, traced_csv})
    std::remove(path.c_str());
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

/// Each command's flags as the usage text lists them (the text is generated
/// from the CLI's flag table): "  <command>  <help>" followed by indented
/// lines of flag names, up to the first blank line.
std::map<std::string, std::set<std::string>> flags_by_command() {
  const run_result r = run_cli("");
  std::map<std::string, std::set<std::string>> out;
  std::istringstream in(r.stderr_text);
  std::string line, current;
  std::getline(in, line);  // "usage: ..."
  std::getline(in, line);  // blank
  while (std::getline(in, line) && !line.empty()) {
    std::istringstream words(line);
    std::string word;
    words >> word;
    if (word.rfind("--", 0) != 0) {
      current = word;
      out[current];
      continue;
    }
    do out[current].insert(word);
    while (words >> word);
  }
  return out;
}

/// The flag spellings in an argument string ("--metrics=x" counts as
/// --metrics).
std::set<std::string> flags_in(const std::string& args) {
  std::set<std::string> out;
  std::istringstream words(args);
  std::string word;
  while (words >> word)
    if (word.rfind("--", 0) == 0) out.insert(word.substr(0, word.find('=')));
  return out;
}

TEST_F(CliParse, FlagsACommandIgnoresAreRefused) {
  // Each of these exited 0 while ignoring part of the request: a flag the
  // command never reads, or a list where the command runs one value.
  for (const char* args : {
           "replay --in t.trace --n 999 --seed 42 --dist F:2 "
           "--topology ring:2",
           "replay --in t.trace --n 999",
           "simulate --n 20 --c 2 --messages 20 --out x.trace",
           "degree --c 9 --samples 5",
           "degree --n 50 --c 9",
           "degree --n 50 --samples 5",
           "plan --c 5 --mode crowds --adversary timing",
           "plan --n 100 --c 5",
           "plan --n 100 --mode crowds",
           "plan --n 100 --adversary timing",
           "attack --users 200 --rounds 30 --attack sda --samples 4 "
           "--out foo --in bar",
           "attack --users 200 --rounds 30 --attack sda --samples 4",
           "attack --users 200 --rounds 30 --attack sda --out foo",
           "attack --users 200 --rounds 30 --attack sda --in bar",
           "campaign --n 16 --c 1 --messages 20 --breakdown --mean 2",
           "campaign --n 16 --c 1 --messages 20 --breakdown",
           "campaign --n 16 --c 1 --messages 20 --mean 2",
           "estimate --n 50,80",
           "plan --topology regular:4,ring:2",
           "merge --n 16 --c 1 --input x.ckpt --threads 8",
           "simulate --n 20 --c 2 --users 5",
           "figures --seed 1",
           // Accepted at one value and refused at another before; a flag
           // either applies to a command or it does not.
           "degree --n 50 --topology complete",
           "degree --n 50 --churn 0",
           "optimize --n 50 --topology complete",
           "figures --n 20 --churn 0",
           "attack --users 200 --rounds 30 --attack sda --topology complete",
           "estimate --n 50 --churn 0",
           "plan --n 100 --churn 0",
       }) {
    const run_result r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << "anonpath " << args;
    EXPECT_NE(r.stderr_text.find("error: "), std::string::npos)
        << "no usage diagnostic: anonpath " << args;
  }
  // And every cell of the table in the refusing direction: each flag the
  // usage text does not list for a command is refused on that command,
  // before its value is looked at.
  const auto table = flags_by_command();
  ASSERT_EQ(table.size(), 11u);
  std::set<std::string> all;
  for (const auto& [command, flags] : table)
    all.insert(flags.begin(), flags.end());
  ASSERT_EQ(all.size(), 46u);
  for (const auto& [command, flags] : table)
    for (const std::string& flag : all) {
      if (flags.count(flag) != 0) continue;
      const std::string args = command + " " + flag + " 1";
      const run_result r = run_cli(args);
      EXPECT_EQ(r.exit_code, 2) << "anonpath " << args;
      EXPECT_NE(r.stderr_text.find("does not apply to '" + command + "'"),
                std::string::npos)
          << "anonpath " << args << ": " << r.stderr_text.substr(0, 200);
    }
}

TEST_F(CliParse, RepeatsAndOffGridListsAreRefused) {
  for (const char* args : {
           // A flag that does not repeat, given twice.
           "degree --n 50 --breakdown --breakdown",
           "simulate --n 20 --c 2 --messages 20 --seed 1 --seed 2",
           "campaign --n 16 --c 1 --messages 20 --replicas 1 --replicas 2",
           "plan --n 100 --routes 5 --routes 6",
           "simulate --n 20 --c 2 --messages 20 --metrics a --metrics=b",
           // An axis repeated, or given a list, off campaign/merge.
           "estimate --n 50 --n 60",
           "simulate --n 20 --c 2 --messages 20 --mode onion --mode crowds",
           "attack --users 200 --rounds 30,40 --attack sda",
           "attack --users 200 --rounds 30 --attack sda --attack bayes",
           "plan --n 100 --routing kpaths:2 --routing walk",
           "capture --n 20 --c 2 --messages 20 --retry 0,1",
       }) {
    const run_result r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << "anonpath " << args;
    EXPECT_NE(r.stderr_text.find("error: "), std::string::npos)
        << "no usage diagnostic: anonpath " << args;
  }
  // An unknown command exits 2 before any flag is read.
  const run_result unknown = run_cli("frobnicate --no-such-flag");
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_NE(unknown.stderr_text.find("unknown command frobnicate"),
            std::string::npos)
      << unknown.stderr_text;
  // Positive controls: axes repeat and take lists on campaign; --crash
  // repeats everywhere.
  EXPECT_EQ(run_cli("campaign --n 16 --n 20 --c 1,2 --messages 20 "
                    "--replicas 1 --mode onion --mode crowds")
                .exit_code,
            0);
  EXPECT_EQ(run_cli("simulate --n 20 --c 2 --messages 20 --crash 3:0:1 "
                    "--crash 4:0:1,5:1:1")
                .exit_code,
            0);
}

TEST_F(CliParse, EveryCommandAcceptsEveryFlagItReads) {
  // One invocation per command passing every flag the usage text lists for
  // it, so the table cannot drop a flag a command needs; the flag sets
  // must match the usage text exactly, so a flag added to the table needs
  // a row here too.
  const std::string dir = ::testing::TempDir() + "anonpath_every." +
                          std::to_string(::getpid()) + ".";
  const std::string sim =
      "--n 20 --c 2 --dist U:1,4 --mode onion --adversary full "
      "--topology complete --routing walk --churn 0 --messages 40 --seed 3 "
      "--drop 0.05 --retry 1:0.3 --mix-failures 0 --crash 3:0:1 "
      "--threshold 0.9 --population 10 --rounds 4 --attack sda "
      "--stream exact --receiver-law zipf:1.1";
  const std::string grid = sim + " --rate 50 --replicas 1";
  // The journal merge combines: a one-shard run with its metrics sibling.
  // (Not the campaign row below: --via-trace is part of a journal's scope,
  // and merge does not read it.)
  ASSERT_EQ(run_cli("campaign " + grid + " --shard 0/1 --checkpoint '" + dir +
                    "shard.ckpt' --metrics '" + dir + "shard.ckpt.metrics'")
                .exit_code,
            0);
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"degree", "--n 50 --dist F:3 --breakdown"},
      {"estimate",
       "--n 50 --c 2 --dist U:1,5 --topology complete --seed 3 --threads 2 "
       "--samples 2000 --shards 4"},
      {"optimize", "--n 50 --mean 4"},
      {"simulate",
       sim + " --metrics '" + dir + "sim.jsonl' --progress"},
      {"capture", sim + " --out '" + dir + "run.trace'"},
      {"replay", "--in '" + dir + "run.trace'"},
      {"campaign",
       grid + " --threads 2 --via-trace --checkpoint '" + dir +
           "campaign.ckpt' --resume --shard 0/1 --metrics='" + dir +
           "campaign.jsonl' --progress"},
      {"merge",
       grid + " --input '" + dir + "shard.ckpt' --checkpoint '" + dir +
           "merged.ckpt' --metrics '" + dir + "merged.jsonl' --progress"},
      {"attack",
       "--seed 3 --threshold 0.5 --population 200 --rounds 40 --attack sda "
       "--stream exact --receiver-law uniform --sender-law zipf:1.2 "
       "--users 300 --pairs 1 --round-size 8 --send-rate 0.9 --every 10 "
       "--threads 2 --metrics '" + dir + "attack.jsonl' --progress"},
      {"plan",
       "--n 200 --topology regular:4 --routing kpaths:2 --seed 3 --csr "
       "--components --source 1 --routes 5 --metrics '" + dir +
           "plan.jsonl' --progress"},
      {"figures", "--n 20"},
  };
  const auto table = flags_by_command();
  ASSERT_EQ(table.size(), rows.size());
  for (const auto& [command, args] : rows) {
    ASSERT_EQ(table.count(command), 1u) << command;
    EXPECT_EQ(flags_in(args), table.at(command)) << command;
    const run_result r = run_cli(command + " " + args);
    EXPECT_EQ(r.exit_code, 0) << "anonpath " << command << " " << args
                              << "\n" << r.stderr_text.substr(0, 400);
  }
  for (const char* file :
       {"shard.ckpt", "shard.ckpt.metrics", "sim.jsonl", "run.trace",
        "campaign.ckpt", "campaign.jsonl", "merged.ckpt", "merged.jsonl",
        "attack.jsonl", "plan.jsonl"})
    std::remove((dir + file).c_str());
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
