// plan::ExecutionPlan / Planner / PlanCache tests: fingerprint determinism,
// provenance, cache sharing of the compiled artifact, thread-safety, and
// bit-identical equivalence of plan-driven and direct execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/layout.hpp"
#include "common/rng.hpp"
#include "exec/backend.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "serve/service.hpp"
#include "trace/interpreter.hpp"

namespace {

using namespace obx;
using trace::Op;
using trace::Step;

constexpr std::size_t kCountingWords = 8;

Generator<Step> counting_steps() {
  for (std::size_t i = 0; i < kCountingWords; ++i) {
    co_yield Step::load(1, static_cast<Addr>(i));
    co_yield Step::alu(Op::kAddI, 0, 0, 1);
    co_yield Step::store(static_cast<Addr>(i), 0);
  }
}

/// A program whose stream factory counts its invocations, so tests can see
/// exactly how many times any layer drained the stream.
trace::Program counting_program(std::shared_ptr<std::atomic<int>> invocations) {
  trace::Program p;
  p.name = "counting";
  p.memory_words = kCountingWords;
  p.input_words = kCountingWords;
  p.output_offset = 0;
  p.output_words = kCountingWords;
  p.register_count = 2;
  p.stream = [invocations]() {
    ++*invocations;
    return counting_steps();
  };
  return p;
}

/// A program the peephole optimiser wins on: the load is forwarded from the
/// preceding store, after which the scratch store is dead.
trace::Program optimisable_program() {
  trace::Program p;
  p.name = "optimisable";
  p.memory_words = 3;
  p.input_words = 1;
  p.output_offset = 2;
  p.output_words = 1;
  p.register_count = 3;
  p.stream = [] {
    return []() -> Generator<Step> {
      co_yield Step::load(0, 0);
      co_yield Step::store(1, 0);     // scratch: dead once the load forwards
      co_yield Step::load(1, 1);      // forwarded from the store above
      co_yield Step::alu(Op::kAddI, 2, 0, 1);
      co_yield Step::store(2, 2);
    }();
  };
  return p;
}

std::vector<Word> lane_inputs(const algos::Algorithm& algo, std::size_t n,
                              std::size_t p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// Fingerprints.

TEST(PlanOptionsTest, FingerprintIsDeterministicAndKnobSensitive) {
  const plan::PlanOptions base;
  EXPECT_EQ(base.fingerprint(), plan::PlanOptions{}.fingerprint());

  plan::PlanOptions o = base;
  o.machine.width = 64;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.machine.latency = 100;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.reference_lanes = 512;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.optimise = false;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.tile_lanes = 32;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.workers = 4;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.arrangement = bulk::Arrangement::kRowWise;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o.arrangement = bulk::Arrangement::kColumnWise;
  const auto col = o.fingerprint();
  o.arrangement = bulk::Arrangement::kRowWise;
  EXPECT_NE(o.fingerprint(), col);
}

// The engine and the compile budget decide what a plan runs, so each must
// key the plan cache separately.
TEST(PlanOptionsTest, FingerprintSeparatesEnginesAndBudgets) {
  plan::PlanOptions o;
  EXPECT_EQ(o.backend, exec::Backend::kCompiled);
  const auto compiled_fp = o.fingerprint();
  o.backend = exec::Backend::kInterpreted;
  const auto interp_fp = o.fingerprint();
  EXPECT_NE(interp_fp, compiled_fp);
  o.backend = exec::Backend::kCompiled;
  o.compile_budget_steps += 1;
  EXPECT_NE(o.fingerprint(), compiled_fp);
}

TEST(PlannerTest, SameInputsProduceIdenticalPlans) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const plan::PlanOptions options;
  const auto a = plan::build_plan(algo.make_program(64), options);
  const auto b = plan::build_plan(algo.make_program(64), options);
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  EXPECT_EQ(a->arrangement(), b->arrangement());
  EXPECT_EQ(a->backend(), b->backend());
  EXPECT_EQ(a->provenance().resolved_tile_lanes, b->provenance().resolved_tile_lanes);
  EXPECT_EQ(a->describe(), b->describe());
  // Distinct plan objects, but the same decisions.
  EXPECT_NE(a.get(), b.get());
}

// ---------------------------------------------------------------------------
// Provenance and decisions.

TEST(PlannerTest, ProvenanceRecordsAdoptedOptimisation) {
  const auto plan = plan::build_plan(optimisable_program(), plan::PlanOptions{});
  const plan::PlanProvenance& prov = plan->provenance();
  EXPECT_TRUE(prov.optimise_attempted);
  EXPECT_TRUE(prov.optimised);
  EXPECT_LT(prov.after.total(), prov.before.total());
  EXPECT_FALSE(prov.passes.empty());
  EXPECT_EQ(plan->program().profile().total(), prov.after.total());

  // The optimised program still computes input + input.
  std::vector<Word> out;
  const std::vector<Word> inputs = {21};
  plan::run(*plan, inputs, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42u);
}

TEST(PlannerTest, DisabledOptimiserIsRecorded) {
  plan::PlanOptions options;
  options.optimise = false;
  const auto plan = plan::build_plan(optimisable_program(), options);
  EXPECT_FALSE(plan->provenance().optimise_attempted);
  EXPECT_FALSE(plan->provenance().optimised);
  EXPECT_EQ(plan->provenance().after.total(), plan->provenance().before.total());
}

TEST(PlannerTest, ForcedArrangementSkipsSimulationChoice) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  plan::PlanOptions options;
  options.arrangement = bulk::Arrangement::kRowWise;
  const auto plan = plan::build_plan(algo.make_program(64), options);
  EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kRowWise);
  EXPECT_TRUE(plan->provenance().arrangement_forced);
}

TEST(PlannerTest, DefaultBackendCompilesWhenTheProgramFits) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const auto compiled = plan::build_plan(algo.make_program(64), plan::PlanOptions{});
  // The default request (kCompiled) runs compiled while the program fits.
  EXPECT_EQ(compiled->backend(), exec::Backend::kCompiled);
  ASSERT_NE(compiled->compiled(), nullptr);
  EXPECT_GT(compiled->provenance().compiled_segments, 0u);
  EXPECT_GT(compiled->provenance().compiled_fused_ops, 0u);

  plan::PlanOptions interp;
  interp.backend = exec::Backend::kInterpreted;
  const auto plan = plan::build_plan(algo.make_program(64), interp);
  EXPECT_EQ(plan->backend(), exec::Backend::kInterpreted);
  EXPECT_EQ(plan->compiled(), nullptr);
}

TEST(PlannerTest, OverBudgetCompileFallsBackToInterpreterAndStaysCorrect) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  plan::PlanOptions options;
  options.optimise = false;
  options.compile_budget_steps = 4;  // 24-step stream: compile must abort
  const auto plan = plan::build_plan(counting_program(invocations), options);
  EXPECT_TRUE(plan->provenance().compile_attempted);
  EXPECT_FALSE(plan->provenance().compiled);
  EXPECT_EQ(plan->backend(), exec::Backend::kInterpreted);
  EXPECT_EQ(plan->compiled(), nullptr);

  const std::size_t p = 5;
  std::vector<Word> inputs(p * kCountingWords);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i * 7 + 3;
  std::vector<Word> out;
  const auto result = plan::run(*plan, inputs, p, &out);
  EXPECT_EQ(result.backend, exec::Backend::kInterpreted);
  for (std::size_t j = 0; j < p; ++j) {
    const trace::InterpreterResult ref = trace::interpret(
        plan->program(), std::span<const Word>(inputs.data() + j * kCountingWords,
                                               kCountingWords));
    for (std::size_t i = 0; i < kCountingWords; ++i) {
      ASSERT_EQ(out[j * kCountingWords + i], ref.memory[i]) << "lane " << j;
    }
  }
}

// The step profile already shows an over-budget stream; the planner must
// not drain and fuse it only to discard the result.  Same program, same
// options, budget one step under vs exactly at the stream length: the
// over-budget build drains exactly one fewer time (no compile drain) and
// leaves the compile memo untouched, with the same recorded provenance.
TEST(PlannerTest, OverBudgetStreamIsNeverDrainedForCompile) {
  constexpr std::size_t kSteps = kCountingWords * 3;
  plan::PlanOptions options;
  options.optimise = false;
  options.arrangement = bulk::Arrangement::kColumnWise;

  auto over_drains = std::make_shared<std::atomic<int>>(0);
  const trace::Program over_program = counting_program(over_drains);
  options.compile_budget_steps = kSteps - 1;
  const auto over = plan::build_plan(over_program, options);
  EXPECT_TRUE(over->provenance().compile_attempted);
  EXPECT_FALSE(over->provenance().compiled);
  EXPECT_EQ(over->backend(), exec::Backend::kInterpreted);
  EXPECT_NE(over->describe().find("compile     : fallback (over budget " +
                                  std::to_string(kSteps - 1) + ")"),
            std::string::npos);
  EXPECT_EQ(over_program.exec_cache->attempted_budget, 0u);  // never compiled

  auto fit_drains = std::make_shared<std::atomic<int>>(0);
  options.compile_budget_steps = kSteps;
  const auto fit = plan::build_plan(counting_program(fit_drains), options);
  EXPECT_TRUE(fit->provenance().compiled);
  EXPECT_EQ(over_drains->load() + 1, fit_drains->load());
}

// Running the over-budget plan must not resurrect the compile the planner
// skipped: the run drains only for its one interpreted chunk and the compile
// memo stays empty.
TEST(PlannerTest, OverBudgetPlanRunsWithoutACompileDrain) {
  constexpr std::size_t kSteps = kCountingWords * 3;
  plan::PlanOptions options;
  options.optimise = false;
  options.arrangement = bulk::Arrangement::kColumnWise;
  options.workers = 1;
  options.compile_budget_steps = kSteps - 1;
  auto drains = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(drains);
  const auto plan = plan::build_plan(program, options);
  ASSERT_EQ(plan->backend(), exec::Backend::kInterpreted);

  const std::size_t p = 6;
  std::vector<Word> inputs(p * kCountingWords);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i * 5 + 2;
  const int before = drains->load();
  const auto result = plan::run(*plan, inputs, p);
  EXPECT_EQ(result.backend, exec::Backend::kInterpreted);
  EXPECT_EQ(drains->load(), before + 1);
  EXPECT_EQ(program.exec_cache->artifact, nullptr);
  EXPECT_EQ(program.exec_cache->attempted_budget, 0u);
}

// Skipping the over-budget compile records nothing in the shared memo, so a
// later plan of the same program with a budget that fits compiles it, and
// the artifact it keeps is the memoised one.
TEST(PlannerTest, SkippedCompileLeavesTheMemoFreeForALargerBudget) {
  constexpr std::size_t kSteps = kCountingWords * 3;
  plan::PlanOptions options;
  options.optimise = false;
  options.arrangement = bulk::Arrangement::kColumnWise;
  auto drains = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(drains);

  options.compile_budget_steps = kSteps - 1;
  const auto over = plan::build_plan(program, options);
  EXPECT_FALSE(over->provenance().compiled);

  options.compile_budget_steps = kSteps;
  const auto fit = plan::build_plan(program, options);
  EXPECT_TRUE(fit->provenance().compiled);
  EXPECT_EQ(fit->backend(), exec::Backend::kCompiled);
  const int after_fit = drains->load();
  EXPECT_EQ(exec::CompiledProgram::get_or_compile(program, {.max_steps = kSteps}),
            fit->compiled());
  EXPECT_EQ(drains->load(), after_fit);  // memo hit, no re-drain
}

// A compiled backend request that is over budget falls back to the
// interpreter, and drains the stream no more often than a plan that asked
// for the interpreter outright.
TEST(PlannerTest, ExplicitCompiledBackendOverBudgetDrainsLikeTheInterpreter) {
  constexpr std::size_t kSteps = kCountingWords * 3;
  plan::PlanOptions options;
  options.optimise = false;
  options.arrangement = bulk::Arrangement::kColumnWise;

  auto interp_drains = std::make_shared<std::atomic<int>>(0);
  options.backend = exec::Backend::kInterpreted;
  const auto interp = plan::build_plan(counting_program(interp_drains), options);
  EXPECT_FALSE(interp->provenance().compile_attempted);
  EXPECT_EQ(interp->backend(), exec::Backend::kInterpreted);

  auto over_drains = std::make_shared<std::atomic<int>>(0);
  options.backend = exec::Backend::kCompiled;
  options.compile_budget_steps = kSteps - 1;
  const auto over = plan::build_plan(counting_program(over_drains), options);
  EXPECT_TRUE(over->provenance().compile_attempted);
  EXPECT_FALSE(over->provenance().compiled);
  EXPECT_EQ(over->backend(), exec::Backend::kInterpreted);
  EXPECT_EQ(over->compiled(), nullptr);
  EXPECT_EQ(over_drains->load(), interp_drains->load());
}

TEST(PlannerTest, UnitsMemoMatchesFreshSimulation) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const plan::PlanOptions options;
  const auto plan = plan::build_plan(algo.make_program(64), options);
  // The reference-occupancy estimate is pre-seeded; asking again (any number
  // of times, any occupancy) must be consistent.
  const TimeUnits at_ref = plan->units_for_lanes(options.reference_lanes);
  EXPECT_EQ(at_ref, plan->units_for_lanes(options.reference_lanes));
  EXPECT_GT(plan->units_for_lanes(1024), 0u);
  const auto& candidates = plan->provenance().candidates;
  const auto chosen = std::find_if(candidates.begin(), candidates.end(),
                                   [](const plan::ArrangementCandidate& c) { return c.chosen; });
  ASSERT_NE(chosen, candidates.end());
  EXPECT_EQ(at_ref, chosen->sim_units);
  for (const plan::ArrangementCandidate& c : candidates) EXPECT_LE(at_ref, c.sim_units);
}

TEST(PlannerTest, ResidentLanesForBudgetClampsToLanes) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const auto plan = plan::build_plan(algo.make_program(64), plan::PlanOptions{});
  EXPECT_EQ(plan->resident_lanes_for_budget(1, 100), 1u);  // floor: one lane
  EXPECT_EQ(plan->resident_lanes_for_budget(std::size_t{1} << 40, 100), 100u);
  const std::size_t mid = plan->resident_lanes_for_budget(1u << 16, 1u << 20);
  EXPECT_GE(mid, 1u);
  EXPECT_LE(mid, 1u << 20);
}

// ---------------------------------------------------------------------------
// PlanCache.

TEST(PlanCacheTest, HitReturnsIdenticalPlanAndCompiledArtifactWithoutRedrain) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(invocations);
  plan::PlanOptions options;
  options.optimise = false;  // keep the drain accounting minimal
  plan::PlanCache cache(options);

  const auto first = cache.get_or_build("counting", program);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->backend(), exec::Backend::kCompiled);
  const int drains_after_build = invocations->load();
  EXPECT_GT(drains_after_build, 0);

  // Hit: identical plan, identical shared compiled artifact, zero drains.
  const auto second = cache.get_or_build("counting", program);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(second->compiled().get(), first->compiled().get());
  EXPECT_EQ(invocations->load(), drains_after_build);

  // Executors running the plan's program share the same artifact through the
  // exec_cache slot — still no re-drain.
  const bulk::HostBulkExecutor exec(*first, 4);
  std::vector<Word> inputs(4 * kCountingWords, Word{2});
  const auto result = exec.run(first->program(), inputs);
  EXPECT_EQ(result.backend, exec::Backend::kCompiled);
  EXPECT_EQ(invocations->load(), drains_after_build);
}

TEST(PlanCacheTest, DistinctOptionsGetDistinctEntriesUnderOneId) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const trace::Program program = algo.make_program(32);
  plan::PlanCache cache;
  const auto col = cache.get_or_build("ps", program);
  plan::PlanOptions row;
  row.arrangement = bulk::Arrangement::kRowWise;
  const auto forced = cache.get_or_build("ps", program, row);
  EXPECT_NE(col.get(), forced.get());
  EXPECT_EQ(forced->arrangement(), bulk::Arrangement::kRowWise);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.ids(), std::vector<std::string>{"ps"});
  EXPECT_TRUE(cache.contains("ps"));
  EXPECT_TRUE(cache.contains("ps", row));
  EXPECT_EQ(cache.lookup("ps").get(), col.get());
  EXPECT_EQ(cache.lookup("absent"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, IdReuseForADifferentProgramThrows) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  plan::PlanCache cache;
  cache.get_or_build("id", algo.make_program(32));
  EXPECT_THROW(cache.get_or_build("id", algo.make_program(64)), std::logic_error);
}

TEST(PlanCacheTest, ConcurrentBuildsOfOneKeyCollapseToASingleBuild) {
  // Baseline: how many stream drains one solo build costs.
  auto solo_count = std::make_shared<std::atomic<int>>(0);
  plan::PlanCache solo;
  solo.get_or_build("counting", counting_program(solo_count));
  const int drains_per_build = solo_count->load();

  auto invocations = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(invocations);
  plan::PlanCache cache;
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const plan::ExecutionPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { plans[i] = cache.get_or_build("counting", program); });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_NE(plans[i], nullptr) << "thread " << i;
    EXPECT_EQ(plans[i].get(), plans[0].get()) << "thread " << i;
  }
  EXPECT_EQ(invocations->load(), drains_per_build);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Equivalence: plan-driven execution is bit-identical to the direct executor.

TEST(PlanEquivalenceTest, PlanDrivenRunMatchesDirectExecutorAcrossRegistry) {
  const std::size_t p = 5;
  for (const auto& algo : algos::registry()) {
    const std::size_t n = algo.test_sizes.front();
    const trace::Program program = algo.make_program(n);
    const std::vector<Word> inputs = lane_inputs(algo, n, p, /*seed=*/7);
    // Direct: the pre-plan executor surface on the unoptimised program.
    const bulk::HostBulkExecutor direct(p);
    const auto direct_run = direct.run(program, inputs);
    const std::vector<Word> expected = direct.gather_outputs(program, direct_run.memory);
    for (const auto arr :
         {bulk::Arrangement::kRowWise, bulk::Arrangement::kColumnWise}) {
      // Plan-driven: the forced arrangement is the model's, so it must not
      // change what the host computes.
      plan::PlanOptions options;
      options.arrangement = arr;
      const auto plan = plan::build_plan(program, options);
      std::vector<Word> out;
      plan::run(*plan, inputs, p, &out);
      ASSERT_EQ(out, expected) << algo.name << " " << to_string(arr);
    }
  }
}

TEST(PlanEquivalenceTest, StreamingRunMatchesMonolithicRun) {
  const algos::Algorithm& algo = algos::find("bitonic-sort");
  const std::size_t n = algo.test_sizes.front();
  const std::size_t p = 11;
  const trace::Program program = algo.make_program(n);
  const std::vector<Word> inputs = lane_inputs(algo, n, p, /*seed=*/11);
  const auto plan = plan::build_plan(program, plan::PlanOptions{});

  std::vector<Word> monolithic;
  plan::run(*plan, inputs, p, &monolithic);

  std::vector<Word> streamed(monolithic.size(), Word{0});
  const auto stats = plan::run_streaming(
      *plan, p, /*max_resident_lanes=*/3,
      [&](Lane j, std::span<Word> dst) {
        const std::size_t w = plan->input_words();
        std::copy_n(inputs.begin() + static_cast<std::ptrdiff_t>(j * w), w, dst.begin());
      },
      [&](Lane j, std::span<const Word> out) {
        std::copy(out.begin(), out.end(),
                  streamed.begin() + static_cast<std::ptrdiff_t>(j * plan->output_words()));
      });
  EXPECT_EQ(stats.batches, 4u);  // ceil(11 / 3)
  EXPECT_EQ(stats.lanes, p);
  EXPECT_EQ(streamed, monolithic);
}

TEST(PlanEquivalenceTest, PlanConstructedExecutorsMatchPlanRun) {
  const algos::Algorithm& algo = algos::find("horner");
  const std::size_t n = algo.test_sizes.front();
  const std::size_t p = 6;
  const trace::Program program = algo.make_program(n);
  const std::vector<Word> inputs = lane_inputs(algo, n, p, /*seed=*/23);
  const auto plan = plan::build_plan(program, plan::PlanOptions{});

  std::vector<Word> expected;
  plan::run(*plan, inputs, p, &expected);

  const bulk::HostBulkExecutor host(*plan, p);
  EXPECT_EQ(host.lanes(), p);
  const auto run = host.run(plan->program(), inputs);
  EXPECT_EQ(run.backend, plan->backend());
  EXPECT_EQ(host.gather_outputs(plan->program(), run.memory), expected);

  std::vector<Word> streamed(expected.size(), Word{0});
  const plan::StreamStats stats = plan::run_streaming(
      *plan, p, /*max_resident_lanes=*/4,
      [&](Lane j, std::span<Word> dst) {
        const std::size_t w = plan->input_words();
        std::copy_n(inputs.begin() + static_cast<std::ptrdiff_t>(j * w), w, dst.begin());
      },
      [&](Lane j, std::span<const Word> out) {
        std::copy(out.begin(), out.end(),
                  streamed.begin() + static_cast<std::ptrdiff_t>(j * plan->output_words()));
      });
  EXPECT_EQ(stats.batches, 2u);  // ceil(6 / 4)
  EXPECT_EQ(streamed, expected);
}

/// The fan-out crossover (bulk::kFanOutMinWork) both ways: a serving-sized
/// run stays on its calling thread, a paper-scale run still fans out.
TEST(PlanFanOutTest, SmallRunsStayInlineAndPaperScaleRunsFanOut) {
  plan::PlanOptions options;
  options.workers = 4;  // a fixed target, whatever the host's core count
  const algos::Algorithm& algo = algos::find("prefix-sums");

  // A 64-lane serving batch of prefix-sums n=256: about 49K lane-steps.
  const auto small = plan::Planner(options).build(algo.make_program(256));
  EXPECT_EQ(small->workers(), 4u);
  EXPECT_EQ(small->workers_for_lanes(64), 1u);
  const std::vector<Word> small_inputs(64 * small->input_words(), Word{1});
  const bulk::HostRunResult inline_run = plan::run(*small, small_inputs, 64);
  EXPECT_EQ(inline_run.sched.tasks, 1u);
  EXPECT_EQ(inline_run.sched.steals, 0u);

  // The bulk-registry size, prefix-sums n=1024 at p=4096: about 12.6M
  // lane-steps, far above the crossover.
  constexpr std::size_t kLanes = 4096;
  const auto big = plan::Planner(options).build(algo.make_program(1024));
  EXPECT_EQ(big->workers_for_lanes(kLanes), 4u);
  EXPECT_GE(std::uint64_t{kLanes} * big->provenance().after.total(), bulk::kFanOutMinWork);
  const std::vector<Word> big_inputs(kLanes * big->input_words(), Word{1});
  const bulk::HostRunResult fanned = plan::run(*big, big_inputs, kLanes);
  EXPECT_GT(fanned.sched.tasks, 1u) << "a paper-scale run must still fan out";
}

// The service plans every program with its own PlanOptions, at the
// occupancy it batches to: reference_lanes follows batcher.max_batch_lanes,
// every other knob passes through unchanged.
TEST(ServicePlanOptionsTest, PlansAtMaxBatchLanes) {
  serve::ServiceOptions options;
  options.batcher.max_batch_lanes = 1024;
  options.executors = 1;
  options.prepare.machine.width = 64;
  options.prepare.optimise_step_limit = 99;
  options.prepare.backend = exec::Backend::kInterpreted;
  options.prepare.workers = 3;
  serve::BulkService service(options);
  service.register_program("ps", algos::find("prefix-sums").make_program(64));
  const plan::ExecutionPlan& plan = service.programs().get("ps").plan();
  EXPECT_EQ(plan.options().reference_lanes, 1024u);
  EXPECT_EQ(plan.provenance().reference_lanes, 1024u);
  EXPECT_EQ(plan.options().machine.width, 64u);
  EXPECT_EQ(plan.options().optimise_step_limit, 99u);
  EXPECT_EQ(plan.backend(), exec::Backend::kInterpreted);
  EXPECT_EQ(plan.workers(), 3u);
  service.stop();
}

}  // namespace
