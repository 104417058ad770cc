// The Planner's arrangement search and measuring auto-tuner.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algos/algorithm.hpp"
#include "common/rng.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "umm/machine_config.hpp"

namespace {

using namespace obx;
using namespace obx::plan;

const ArrangementCandidate& chosen_of(const ExecutionPlan& plan) {
  const auto& cs = plan.provenance().candidates;
  const auto it =
      std::find_if(cs.begin(), cs.end(), [](const auto& c) { return c.chosen; });
  EXPECT_NE(it, cs.end());
  return *it;
}

TEST(PlanTuner, SearchesAllFourArrangements) {
  PlanOptions options;
  options.reference_lanes = 128;
  const auto plan =
      Planner(options).build(algos::find("prefix-sums").make_program(32));
  const auto& cs = plan->provenance().candidates;
  ASSERT_EQ(cs.size(), 4u);
  EXPECT_EQ(cs[0].arrangement, bulk::Arrangement::kColumnWise);
  EXPECT_EQ(cs[1].arrangement, bulk::Arrangement::kRowWise);
  EXPECT_EQ(cs[2].arrangement, bulk::Arrangement::kBlocked);
  EXPECT_EQ(cs[3].arrangement, bulk::Arrangement::kConflictFree);
  EXPECT_EQ(1, std::count_if(cs.begin(), cs.end(),
                             [](const auto& c) { return c.chosen; }));
  for (const auto& c : cs) {
    EXPECT_GT(c.sim_units, 0u) << c.name();
    EXPECT_EQ(c.measured_ns, 0u) << "tuner off: no measurements";
  }
  EXPECT_FALSE(plan->provenance().tuned);
  // Row-wise scatters each warp's accesses across groups: it costs more
  // than column-wise here.
  EXPECT_GT(cs[1].sim_units, cs[0].sim_units);
  // Default machine at a width-multiple occupancy: ties keep column-wise
  // (the Theorem 3 time-optimal layout).
  EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kColumnWise);
}

TEST(PlanTuner, SortsFlipToConflictFreeUnderConflictHeavyMachine) {
  // Under a machine whose shared tier serializes stride-1 warp accesses
  // (bank rows wider than one word) and whose transaction group is wider
  // than a warp, the padded conflict-free arrangement wins outright for the
  // sorting networks.
  PlanOptions options;
  options.machine = umm::conflict_heavy_example();
  options.reference_lanes = 256;
  for (const char* name : {"bitonic-sort", "odd-even-sort"}) {
    const auto plan = Planner(options).build(algos::find(name).make_program(64));
    EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kConflictFree) << name;
    EXPECT_EQ(plan->arrangement_param(),
              umm::conflict_free_stride(options.machine.shared))
        << name;
    EXPECT_GT(plan->provenance().margin_units, 0u) << name;
    const auto& best = chosen_of(*plan);
    for (const auto& c : plan->provenance().candidates) {
      if (!c.chosen) EXPECT_LT(best.sim_units, c.sim_units) << name << " vs " << c.name();
    }
  }
}

TEST(PlanTuner, ForcedArrangementRecordsSingleCandidate) {
  PlanOptions options;
  options.reference_lanes = 64;
  options.arrangement = bulk::Arrangement::kConflictFree;
  options.arrangement_param = 4;
  const auto plan = Planner(options).build(algos::find("horner").make_program(16));
  EXPECT_TRUE(plan->provenance().arrangement_forced);
  ASSERT_EQ(plan->provenance().candidates.size(), 1u);
  EXPECT_TRUE(plan->provenance().candidates[0].chosen);
  EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kConflictFree);
  EXPECT_EQ(plan->arrangement_param(), 4u);
  EXPECT_EQ(plan->provenance().margin_units, 0u);
}

TEST(PlanTuner, InjectedClockPostsMeasurementsAndOverridesThePrior) {
  // A deterministic injected clock makes the tuner's posterior fully
  // scripted: give every candidate 100ns except row-wise (10ns) and the
  // tuner must pick row-wise even though its simulated prior is the worst.
  PlanOptions options;
  options.reference_lanes = 64;
  options.tune.measure = true;
  options.tune.trials = 2;
  std::size_t calls = 0;
  options.tune.clock = [&calls]() -> std::uint64_t {
    // Candidate order is column, row, blocked, conflict-free; each candidate
    // makes trials*2 = 4 calls.  Calls 4..7 belong to row-wise.
    const std::size_t i = calls++;
    const std::uint64_t width = (i >= 4 && i < 8) ? 10 : 100;
    return (i / 2) * 1000 + (i % 2) * width;
  };
  const auto plan = Planner(options).build(algos::find("horner").make_program(16));
  EXPECT_EQ(calls, 16u);
  EXPECT_TRUE(plan->provenance().tuned);
  EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kRowWise);
  for (const auto& c : plan->provenance().candidates) {
    EXPECT_EQ(c.measured_ns,
              c.arrangement == bulk::Arrangement::kRowWise ? 10u : 100u)
        << c.name();
  }
  // Margin is in measured nanoseconds when the tuner decided.
  EXPECT_EQ(plan->provenance().margin_units, 90u);
}

TEST(PlanTuner, MeasuredRunsProduceAPlanThatStillExecutes) {
  // Real-clock tuning end to end: whatever wins must run bit-identically.
  const algos::Algorithm& algo = algos::find("bitonic-sort");
  const std::size_t n = 16;
  const std::size_t p = 48;
  const trace::Program program = algo.make_program(n);

  PlanOptions options;
  options.reference_lanes = p;
  options.tune.measure = true;
  options.tune.trials = 1;
  const auto plan = Planner(options).build(program);
  EXPECT_TRUE(plan->provenance().tuned);
  for (const auto& c : plan->provenance().candidates) {
    EXPECT_GT(c.measured_ns, 0u) << c.name();
  }

  Rng rng(7);
  std::vector<Word> inputs;
  std::vector<Word> expected;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
    const auto ref = algo.reference(n, one);
    expected.insert(expected.end(), ref.begin(), ref.end());
  }
  std::vector<Word> outputs;
  plan::run(*plan, inputs, p, &outputs);
  EXPECT_EQ(outputs, expected);
}

TEST(PlanTuner, ConflictFreePlanRunsBitIdentically) {
  const algos::Algorithm& algo = algos::find("odd-even-sort");
  const std::size_t n = 32;
  const std::size_t p = 40;
  PlanOptions options;
  options.machine = umm::conflict_heavy_example();
  options.reference_lanes = p;
  const auto plan = Planner(options).build(algo.make_program(n));
  ASSERT_EQ(plan->arrangement(), bulk::Arrangement::kConflictFree);

  Rng rng(3);
  std::vector<Word> inputs;
  std::vector<Word> expected;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
    const auto ref = algo.reference(n, one);
    expected.insert(expected.end(), ref.begin(), ref.end());
  }
  std::vector<Word> outputs;
  plan::run(*plan, inputs, p, &outputs);
  EXPECT_EQ(outputs, expected);
}

TEST(PlanTuner, PlanCacheMemoisesPerSharedTierAndTuneKnobs) {
  const trace::Program program = algos::find("prefix-sums").make_program(16);
  PlanCache cache;

  PlanOptions base;
  base.reference_lanes = 64;
  const auto a = cache.get_or_build("ps/16", program, base);
  EXPECT_EQ(cache.get_or_build("ps/16", program, base).get(), a.get());

  // A different shared tier is a different cache entry and fingerprint.
  PlanOptions shared = base;
  shared.machine = umm::conflict_heavy_example();
  const auto b = cache.get_or_build("ps/16", program, shared);
  EXPECT_NE(b.get(), a.get());
  EXPECT_NE(b->fingerprint(), a->fingerprint());
  EXPECT_NE(shared.fingerprint(), base.fingerprint());

  // So are the tuner knobs — but not the injected clock, which is an
  // observation channel rather than a decision.
  PlanOptions tuned = base;
  tuned.tune.measure = true;
  tuned.tune.trials = 1;
  EXPECT_NE(tuned.fingerprint(), base.fingerprint());
  PlanOptions clocked = tuned;
  std::uint64_t t = 0;
  clocked.tune.clock = [&t]() { return t += 5; };
  EXPECT_EQ(clocked.fingerprint(), tuned.fingerprint());

  PlanOptions param = base;
  param.arrangement = bulk::Arrangement::kBlocked;
  param.arrangement_param = 8;
  PlanOptions param2 = param;
  param2.arrangement_param = 16;
  EXPECT_NE(param.fingerprint(), param2.fingerprint());

  const auto c = cache.get_or_build("ps/16", program, tuned);
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(cache.get_or_build("ps/16", program, tuned).get(), c.get());
}

TEST(PlanTuner, Validation) {
  PlanOptions options;
  options.tune.trials = 0;
  EXPECT_THROW(Planner{options}, std::logic_error);
}

}  // namespace
