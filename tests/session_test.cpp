// The advice-driven Session runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "advisor/session.hpp"
#include "algos/algorithm.hpp"
#include "bulk/core_pool.hpp"
#include "common/rng.hpp"
#include "plan/planner.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace obx;
using namespace obx::advisor;

struct Harness {
  trace::Program program;
  std::vector<Word> inputs;
  std::vector<Word> expected;
  std::size_t p;

  Harness(const std::string& name, std::size_t n, std::size_t lanes) : p(lanes) {
    const algos::Algorithm& algo = algos::find(name);
    program = algo.make_program(n);
    Rng rng(12);
    for (std::size_t j = 0; j < p; ++j) {
      const auto one = algo.make_input(n, rng);
      inputs.insert(inputs.end(), one.begin(), one.end());
      const auto ref = algo.reference(n, one);
      expected.insert(expected.end(), ref.begin(), ref.end());
    }
  }

  SessionReport run(const Session& session, std::vector<Word>& got) const {
    got.assign(expected.size(), Word{0});
    return session.run(
        program, p,
        [&](Lane j, std::span<Word> dst) {
          const Word* src = inputs.data() + j * program.input_words;
          std::copy(src, src + program.input_words, dst.begin());
        },
        [&](Lane j, std::span<const Word> out) {
          std::copy(out.begin(), out.end(),
                    got.begin() +
                        static_cast<std::ptrdiff_t>(j * program.output_words));
        });
  }
};

TEST(Session, ProducesCorrectOutputsWithDefaults) {
  const Harness h("bitonic-sort", 64, 50);
  std::vector<Word> got;
  const SessionReport report = h.run(Session(), got);
  EXPECT_EQ(got, h.expected);
  EXPECT_EQ(report.lanes, 50u);
  // p = 50 is not a width multiple, so column-wise warps straddle
  // transaction groups and the arrangement search flips to blocked.
  EXPECT_EQ(report.arrangement, bulk::Arrangement::kBlocked);
  EXPECT_GT(report.simulated_units, 0u);
  EXPECT_DOUBLE_EQ(report.host_seconds,
                   report.host_execute_seconds + report.host_callback_seconds);
}

TEST(Session, DefaultWorkersUseTheHostCores) {
  // Workers stay on auto, which the planner resolves to the host's cores.
  const SessionOptions defaults;
  EXPECT_EQ(defaults.plan.workers, 0u);
  const auto plan = plan::build_plan(algos::find("horner").make_program(8), defaults.plan);
  EXPECT_EQ(plan->workers(), bulk::default_worker_count());
  EXPECT_GE(plan->workers(), 1u);
}

TEST(Session, MemoryBudgetControlsBatching) {
  const Harness h("prefix-sums", 32, 40);
  // Per lane ~ 32+32+2+32 = 98 words; a 500-word budget forces ~5-lane
  // batches.
  SessionOptions options;
  options.memory_budget_words = 500;
  std::vector<Word> got;
  const SessionReport report = h.run(Session(options), got);
  EXPECT_EQ(got, h.expected);
  EXPECT_LE(report.batch_lanes, 5u);
  EXPECT_GE(report.batches, 8u);
}

TEST(Session, TinyBudgetStillRunsOneLaneBatches) {
  const Harness h("horner", 8, 7);
  SessionOptions options;
  options.memory_budget_words = 1;  // below one lane: clamps to 1 lane
  std::vector<Word> got;
  const SessionReport report = h.run(Session(options), got);
  EXPECT_EQ(got, h.expected);
  EXPECT_EQ(report.batch_lanes, 1u);
  EXPECT_EQ(report.batches, 7u);
}

TEST(Session, ForcedArrangementHonoured) {
  const Harness h("prefix-sums", 16, 20);
  SessionOptions options;
  options.plan.arrangement = bulk::Arrangement::kRowWise;
  std::vector<Word> got;
  const SessionReport report = h.run(Session(options), got);
  EXPECT_EQ(got, h.expected);
  EXPECT_EQ(report.arrangement, bulk::Arrangement::kRowWise);
}

TEST(Session, OptimiserEngagesOnNaiveCode) {
  // A naively recorded program: Session should shrink it and still produce
  // the right output.
  const std::size_t n = 32;
  trace::Recorder rec(2 * n);
  for (Addr i = 0; i + 1 < n; ++i) {
    auto s = rec.fload(i) + rec.fload(i + 1);
    rec.fstore(n + i, s);
  }
  const trace::Program naive = std::move(rec).finish("naive-pairs", n, n, n);

  Rng rng(5);
  const auto input = rng.words_f64(n, -10, 10);
  std::vector<Word> got(n, 0);
  const Session session;
  const SessionReport report = session.run(
      naive, 1,
      [&](Lane, std::span<Word> dst) { std::copy(input.begin(), input.end(), dst.begin()); },
      [&](Lane, std::span<const Word> out) {
        std::copy(out.begin(), out.end(), got.begin());
      });
  EXPECT_TRUE(report.optimised);
  EXPECT_LT(report.memory_steps_after, report.memory_steps_before);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double a = std::bit_cast<double>(input[i]);
    const double b = std::bit_cast<double>(input[i + 1]);
    EXPECT_EQ(std::bit_cast<double>(got[i]), a + b);
  }
}

TEST(Session, OptimiserCanBeDisabled) {
  const Harness h("prefix-sums", 16, 4);
  SessionOptions options;
  options.plan.optimise = false;
  std::vector<Word> got;
  const SessionReport report = h.run(Session(options), got);
  EXPECT_FALSE(report.optimised);
  EXPECT_EQ(report.memory_steps_before, report.memory_steps_after);
  EXPECT_EQ(got, h.expected);
}

TEST(Session, ReportSummaryReadable) {
  // A width-multiple lane count keeps the arrangement search on column-wise.
  const Harness h("fft", 64, 32);
  std::vector<Word> got;
  const SessionReport report = h.run(Session(), got);
  const std::string s = report.summary();
  EXPECT_NE(s.find("lanes"), std::string::npos);
  EXPECT_NE(s.find("column-wise"), std::string::npos);
  EXPECT_NE(s.find("simulated"), std::string::npos);
}

TEST(Session, Validation) {
  SessionOptions options;
  options.memory_budget_words = 0;
  EXPECT_THROW(Session{options}, std::logic_error);
  const Harness h("horner", 4, 2);
  std::vector<Word> got;
  EXPECT_THROW(Session().run(h.program, 0, nullptr, nullptr), std::logic_error);
}

}  // namespace
