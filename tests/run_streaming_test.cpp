// Memory-bounded plan-driven execution: plan::run_streaming.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "common/rng.hpp"
#include "plan/planner.hpp"

namespace {

using namespace obx;
using bulk::Arrangement;

struct Fixture {
  trace::Program program;
  std::vector<Word> inputs;   // lane-major
  std::vector<Word> expected; // lane-major outputs from the monolithic path
  std::size_t p;

  explicit Fixture(const std::string& name, std::size_t n, std::size_t lanes) : p(lanes) {
    const algos::Algorithm& algo = algos::find(name);
    program = algo.make_program(n);
    Rng rng(55);
    for (std::size_t j = 0; j < p; ++j) {
      const auto one = algo.make_input(n, rng);
      inputs.insert(inputs.end(), one.begin(), one.end());
    }
    expected = bulk::run_bulk(program, inputs, p, Arrangement::kColumnWise).flat;
  }

  std::shared_ptr<const plan::ExecutionPlan> plan(plan::PlanOptions options = {}) const {
    return plan::build_plan(program, options);
  }

  void fill(Lane j, std::span<Word> dst) const {
    const Word* src = inputs.data() + j * program.input_words;
    std::copy(src, src + program.input_words, dst.begin());
  }
};

TEST(RunStreaming, MatchesMonolithicRunAcrossBatchSizes) {
  const Fixture fx("prefix-sums", 16, 37);  // deliberately awkward p
  const auto plan = fx.plan();
  for (const std::size_t batch : {1u, 2u, 7u, 16u, 37u, 100u}) {
    std::vector<Word> got(fx.expected.size(), Word{0});
    std::vector<bool> seen(fx.p, false);
    const plan::StreamStats stats = plan::run_streaming(
        *plan, fx.p, batch, [&](Lane j, std::span<Word> dst) { fx.fill(j, dst); },
        [&](Lane j, std::span<const Word> out) {
          seen[j] = true;
          std::copy(out.begin(), out.end(),
                    got.begin() + static_cast<std::ptrdiff_t>(j * fx.program.output_words));
        });
    EXPECT_EQ(stats.batches, (fx.p + batch - 1) / batch) << "batch=" << batch;
    EXPECT_EQ(stats.lanes, fx.p);
    for (bool s : seen) EXPECT_TRUE(s);
    EXPECT_EQ(got, fx.expected) << "batch=" << batch;
  }
}

TEST(RunStreaming, RowWiseArrangementAgrees) {
  const Fixture fx("bitonic-sort", 32, 11);
  plan::PlanOptions options;
  options.arrangement = Arrangement::kRowWise;
  const auto plan = fx.plan(options);
  ASSERT_EQ(plan->arrangement(), Arrangement::kRowWise);
  std::vector<Word> got(fx.expected.size(), Word{0});
  plan::run_streaming(
      *plan, fx.p, 4, [&](Lane j, std::span<Word> dst) { fx.fill(j, dst); },
      [&](Lane j, std::span<const Word> out) {
        std::copy(out.begin(), out.end(),
                  got.begin() + static_cast<std::ptrdiff_t>(j * fx.program.output_words));
      });
  EXPECT_EQ(got, fx.expected);
}

TEST(RunStreaming, LanesVisitedInOrder) {
  const Fixture fx("horner", 8, 9);
  Lane next_fill = 0, next_consume = 0;
  plan::run_streaming(
      *fx.plan(), fx.p, 4,
      [&](Lane j, std::span<Word> dst) {
        EXPECT_EQ(j, next_fill++);
        fx.fill(j, dst);
      },
      [&](Lane j, std::span<const Word>) { EXPECT_EQ(j, next_consume++); });
  EXPECT_EQ(next_fill, fx.p);
  EXPECT_EQ(next_consume, fx.p);
}

TEST(RunStreaming, AttributesCallbackTimeSeparatelyFromExecution) {
  const Fixture fx("prefix-sums", 16, 8);
  const plan::StreamStats stats = plan::run_streaming(
      *fx.plan(), fx.p, 4,
      [&](Lane j, std::span<Word> dst) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        fx.fill(j, dst);
      },
      [&](Lane, std::span<const Word>) {});
  // 8 fill callbacks sleeping 1ms each: the slack must be attributed to
  // callback_seconds, not folded into the engine's execute_seconds.
  EXPECT_GE(stats.callback_seconds, 0.008);
  EXPECT_GE(stats.execute_seconds, 0.0);
  EXPECT_LT(stats.execute_seconds, stats.callback_seconds);
}

TEST(RunStreaming, Validation) {
  const Fixture fx("horner", 4, 2);
  const auto plan = fx.plan();
  const auto fill = [&](Lane j, std::span<Word> dst) { fx.fill(j, dst); };
  const auto consume = [](Lane, std::span<const Word>) {};
  EXPECT_THROW(plan::run_streaming(*plan, 2, 0, fill, consume), std::logic_error);
  EXPECT_THROW(plan::run_streaming(*plan, 2, 4, nullptr, consume), std::logic_error);
}

}  // namespace
