// Lockstep host executor vs the scalar interpreter: bit-identical results on
// every arrangement, every algorithm, and with multi-threaded chunking.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"
#include "common/rng.hpp"
#include "trace/interpreter.hpp"

namespace {

using namespace obx;
using namespace obx::bulk;

std::vector<Word> flat_inputs(const algos::Algorithm& algo, std::size_t n, std::size_t p,
                              Rng& rng) {
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  return inputs;
}

using Case = std::tuple<std::string, Arrangement>;

class HostExecutorEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(HostExecutorEquivalence, MatchesInterpreterPerLane) {
  const auto& [name, arrangement] = GetParam();
  const algos::Algorithm& algo = algos::find(name);
  // Use a small-to-moderate size so the sweep stays fast.
  const std::size_t n = algo.test_sizes[algo.test_sizes.size() / 2];
  const std::size_t p = 13;  // deliberately not a multiple of any warp width
  const trace::Program program = algo.make_program(n);

  Rng rng(1234);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  Layout layout = arrangement == Arrangement::kBlocked
                      ? Layout::blocked(p, program.memory_words, 1)
                      : make_layout(program, p, arrangement);
  const HostBulkExecutor exec(layout);
  const HostRunResult run = exec.run(program, inputs);
  const std::vector<Word> outputs = exec.gather_outputs(program, run.memory);

  for (std::size_t j = 0; j < p; ++j) {
    const std::span<const Word> input(inputs.data() + j * program.input_words,
                                      program.input_words);
    const trace::InterpreterResult ref = trace::interpret(program, input);
    const auto expected = ref.output(program);
    for (std::size_t i = 0; i < program.output_words; ++i) {
      ASSERT_EQ(outputs[j * program.output_words + i], expected[i])
          << name << " lane " << j << " word " << i;
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& algo : algos::registry()) {
    cases.emplace_back(algo.name, Arrangement::kRowWise);
    cases.emplace_back(algo.name, Arrangement::kColumnWise);
    cases.emplace_back(algo.name, Arrangement::kBlocked);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAllArrangements, HostExecutorEquivalence,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<Case>& param_info) {
                           std::string name = std::get<0>(param_info.param) + "_" +
                                              to_string(std::get<1>(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(HostExecutor, MultiThreadedMatchesSingle) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 64;
  const std::size_t p = 32;
  const trace::Program program = algo.make_program(n);
  Rng rng(7);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const Layout layout = Layout::column_wise(p, program.memory_words);
  const HostBulkExecutor single(layout, HostBulkExecutor::Options{.workers = 1});
  const HostBulkExecutor multi(layout, HostBulkExecutor::Options{.workers = 4});
  const auto a = single.run(program, inputs);
  const auto b = multi.run(program, inputs);
  EXPECT_EQ(a.memory, b.memory);
}

TEST(HostExecutor, BlockedChunksAlignToBlocks) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 16;
  const std::size_t p = 24;
  const trace::Program program = algo.make_program(n);
  Rng rng(8);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const Layout layout = Layout::blocked(p, program.memory_words, 8);
  const HostBulkExecutor multi(layout, HostBulkExecutor::Options{.workers = 5});
  const HostBulkExecutor single(layout, HostBulkExecutor::Options{.workers = 1});
  EXPECT_EQ(multi.run(program, inputs).memory, single.run(program, inputs).memory);
}

// kAuto runs the compiled engine while the program fits the compile budget
// and degrades to the interpreter once it does not, with identical results.
TEST(HostExecutor, AutoBackendCompilesInBudgetAndFallsBackOverBudget) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 16;
  const std::size_t p = 9;
  trace::Program program = algo.make_program(n);
  Rng rng(10);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);
  const Layout layout = Layout::column_wise(p, program.memory_words);

  const HostRunResult fits =
      HostBulkExecutor(layout, HostBulkExecutor::Options{.backend = exec::Backend::kAuto})
          .run(program, inputs);
  EXPECT_EQ(fits.backend, exec::Backend::kCompiled);

  program.exec_cache = std::make_shared<trace::ExecCacheSlot>();
  const HostRunResult over =
      HostBulkExecutor(layout, HostBulkExecutor::Options{.backend = exec::Backend::kAuto,
                                                         .compile_budget_steps = 1})
          .run(program, inputs);
  EXPECT_EQ(over.backend, exec::Backend::kInterpreted);
  EXPECT_EQ(fits.memory, over.memory);
}

TEST(HostExecutor, RejectsMismatchedSizes) {
  const trace::Program program = algos::find("prefix-sums").make_program(8);
  const Layout wrong = Layout::column_wise(4, 9);
  EXPECT_THROW(HostBulkExecutor(wrong).run(program, std::vector<Word>(32)),
               std::logic_error);
  const Layout right = Layout::column_wise(4, 8);
  EXPECT_THROW(HostBulkExecutor(right).run(program, std::vector<Word>(31)),
               std::logic_error);
}

TEST(HostExecutor, ReportsPerInputStepCounts) {
  const trace::Program program = algos::find("prefix-sums").make_program(10);
  const std::size_t p = 4;
  Rng rng(9);
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::vector<Word> inputs = flat_inputs(algo, 10, p, rng);
  const HostBulkExecutor exec(Layout::column_wise(p, program.memory_words));
  const HostRunResult run = exec.run(program, inputs);
  EXPECT_EQ(run.counts.memory(), 20u);
  EXPECT_GE(run.seconds, 0.0);
}

TEST(RunBulk, ConvenienceApiMatchesArrangements) {
  const algos::Algorithm& algo = algos::find("bitonic-sort");
  const std::size_t n = 64;
  const std::size_t p = 6;
  const trace::Program program = algo.make_program(n);
  Rng rng(10);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const BulkOutputs row = run_bulk(program, inputs, p, Arrangement::kRowWise);
  const BulkOutputs col = run_bulk(program, inputs, p, Arrangement::kColumnWise);
  ASSERT_EQ(row.count(), p);
  ASSERT_EQ(col.count(), p);
  EXPECT_EQ(row.flat.size(), col.flat.size());
  for (std::size_t j = 0; j < p; ++j) {
    const auto a = row.output(j);
    const auto b = col.output(j);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

}  // namespace
