// The command-line argument parser behind obx_cli, and obx_cli's own
// answers to --help and to malformed command lines.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "common/cli.hpp"

namespace {

using obx::cli::Args;
using obx::cli::UsageError;

struct CliRun {
  int exit_code = -1;
  std::string out;  ///< stdout
  std::string err;  ///< stderr
};

std::string slurp(const std::string& path) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) text.append(buf, n);
    std::fclose(f);
  }
  std::remove(path.c_str());
  return text;
}

/// Runs obx_cli with `args` (shell words), capturing both streams.
CliRun obx_cli(const std::string& args) {
  const std::string base = ::testing::TempDir() + "obx_cli_test_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const int status = std::system((std::string(OBX_CLI_PATH) + " " + args + " >" + base +
                                  ".out 2>" + base + ".err")
                                     .c_str());
  CliRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = slurp(base + ".out");
  run.err = slurp(base + ".err");
  return run;
}

Args parse(std::initializer_list<const char*> argv,
           const std::set<std::string>& flags = {},
           const std::set<std::string>& known = {}) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args::parse(static_cast<int>(v.size()), v.data(), flags, known);
}

TEST(Cli, PositionalAndOptions) {
  const Args args = parse({"run", "fft", "--n", "64", "--p=128"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "fft");
  EXPECT_EQ(args.get_int("n", 0), 64);
  EXPECT_EQ(args.get_int("p", 0), 128);
}

TEST(Cli, Defaults) {
  const Args args = parse({"run"});
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.get_bool("missing"));
}

TEST(Cli, BooleanFlags) {
  const Args args = parse({"--overlap", "--n", "4"}, {"overlap"});
  EXPECT_TRUE(args.get_bool("overlap"));
  EXPECT_EQ(args.get_int("n", 0), 4);
  EXPECT_THROW(parse({"--overlap=yes"}, {"overlap"}), std::logic_error);
}

TEST(Cli, EqualsSyntax) {
  const Args args = parse({"--model=dmm", "--ratio=2.5"});
  EXPECT_EQ(args.get("model", ""), "dmm");
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0), 2.5);
}

TEST(Cli, Validation) {
  EXPECT_THROW(parse({"--n"}), std::logic_error);                       // missing value
  EXPECT_THROW(parse({"--n", "abc"}).get_int("n", 0), std::logic_error);
  EXPECT_THROW(parse({"--x", "1y"}).get_double("x", 0), std::logic_error);
  EXPECT_THROW(parse({"--bogus", "1"}, {}, {"n"}), std::logic_error);   // unknown
  EXPECT_NO_THROW(parse({"--n", "1"}, {}, {"n"}));
  // Every malformed command line is a UsageError, never an internal check.
  EXPECT_THROW(parse({"--n"}), UsageError);
  EXPECT_THROW(parse({"--bogus", "1"}, {}, {"n"}), UsageError);
  EXPECT_THROW(parse({"--overlap=yes"}, {"overlap"}), UsageError);
  EXPECT_THROW(parse({"--n", "abc"}).get_int("n", 0), UsageError);
  EXPECT_THROW(parse({"--x", "1e999"}).get_double("x", 0), UsageError);
  EXPECT_THROW(parse({"--x", ""}).get_double("x", 0), UsageError);
}

TEST(ObxCli, HelpPrintsEveryCommandAndExitsZero) {
  const CliRun run = obx_cli("--help");
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("usage: obx_cli <command>"), std::string::npos) << run.out;
  for (const char* command : {"list", "run", "plan", "serve", "bench-net", "fuzz"}) {
    EXPECT_NE(run.out.find(std::string("\n  ") + command + " "), std::string::npos) << command;
  }
}

TEST(ObxCli, CommandHelpPrintsThatCommandsUsageAndExitsZero) {
  const CliRun run = obx_cli("plan --help");
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out.rfind("usage: obx_cli plan <algorithm>", 0), 0u) << run.out;
  EXPECT_NE(run.out.find("--arrangement-param"), std::string::npos);
  EXPECT_EQ(run.out.find("bench-net"), std::string::npos) << "printed every command";
}

TEST(ObxCli, UnknownOptionPrintsUsageAndFailsWithoutACheckTrace) {
  const CliRun run = obx_cli("plan tea --algo tea");
  EXPECT_NE(run.exit_code, 0);
  EXPECT_NE(run.err.find("unknown option --algo"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("usage: obx_cli plan"), std::string::npos) << run.err;
  EXPECT_EQ(run.err.find("OBX_CHECK"), std::string::npos) << run.err;
  EXPECT_EQ(run.err.find("logic_error"), std::string::npos) << run.err;
}

// The host runs one memory image: the arrangement is a model knob of
// `plan` and `time`, and `run` refuses it as a usage error.
TEST(ObxCli, RunRejectsAnArrangementAsAUsageError) {
  for (const char* flag : {"--arrangement row", "--arrangement-param 4"}) {
    const CliRun run = obx_cli(std::string("run prefix-sums --n 8 --p 4 ") + flag);
    EXPECT_EQ(run.exit_code, 2) << flag;
    EXPECT_NE(run.err.find("usage: obx_cli run"), std::string::npos) << run.err;
  }
  EXPECT_EQ(obx_cli("run prefix-sums --n 8 --p 4").exit_code, 0);
}

TEST(ObxCli, TunerFlagsAreUnknownOptions) {
  for (const char* flag : {"--tune", "--tune-trials 2", "--tune-lanes 8"}) {
    const CliRun run = obx_cli(std::string("plan prefix-sums ") + flag);
    EXPECT_EQ(run.exit_code, 2) << flag;
    EXPECT_NE(run.err.find("unknown option --tune"), std::string::npos) << run.err;
  }
}

TEST(ObxCli, UnknownAlgorithmIsAUsageErrorToo) {
  const CliRun run = obx_cli("run no-such-algorithm");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown algorithm 'no-such-algorithm'"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("usage: obx_cli run"), std::string::npos) << run.err;
  EXPECT_EQ(run.err.find("OBX_CHECK"), std::string::npos) << run.err;
}

TEST(Cli, NegativeNumbers) {
  const Args args = parse({"--n", "-5", "--x", "-2.5"});
  EXPECT_EQ(args.get_int("n", 0), -5);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0), -2.5);
}

}  // namespace
