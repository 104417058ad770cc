// The Planner's arrangement search: the simulated UMM/DMM units of the four
// arrangements pick the layout the model prices, while the host always runs
// the column-wise image.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
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

TEST(PlanSearch, SearchesAllFourArrangements) {
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
  for (const auto& c : cs) EXPECT_GT(c.sim_units, 0u) << c.name();
  // Row-wise scatters each warp's accesses across groups: it costs more
  // than column-wise here.
  EXPECT_GT(cs[1].sim_units, cs[0].sim_units);
  // Default machine at a width-multiple occupancy: ties keep column-wise
  // (the Theorem 3 time-optimal layout).
  EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kColumnWise);
}

TEST(PlanSearch, SortsFlipToConflictFreeUnderConflictHeavyMachine) {
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
      if (!c.chosen) {
        EXPECT_LT(best.sim_units, c.sim_units) << name << " vs " << c.name();
      }
    }
  }
}

TEST(PlanSearch, ForcedArrangementRecordsSingleCandidate) {
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

std::vector<Word> lane_inputs(const algos::Algorithm& algo, std::size_t n, std::size_t p,
                              std::uint64_t seed, std::vector<Word>* expected) {
  Rng rng(seed);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
    const auto ref = algo.reference(n, one);
    expected->insert(expected->end(), ref.begin(), ref.end());
  }
  return inputs;
}

// When the model picks a padded layout — blocked(32) for bitonic n=64 at 50
// lanes on the default machine (p is not a block multiple), conflict-free(s)
// for the sorts on the conflict-heavy machine — the plan still reports the
// model's pick, while the host runs an unpadded column-wise image of p·n
// words whose outputs match the native reference.
TEST(PlanSearch, ModelPaddedLayoutStillRunsInAColumnWiseHostImage) {
  struct Case {
    const char* algo;
    std::size_t n;
    std::size_t p;
    umm::MachineConfig machine;
    bulk::Arrangement picked;
  };
  const Case cases[] = {
      {"bitonic-sort", 64, 50, PlanOptions{}.machine, bulk::Arrangement::kBlocked},
      {"odd-even-sort", 32, 40, umm::conflict_heavy_example(),
       bulk::Arrangement::kConflictFree},
  };
  for (const Case& c : cases) {
    const algos::Algorithm& algo = algos::find(c.algo);
    PlanOptions options;
    options.machine = c.machine;
    options.reference_lanes = c.p;
    const auto plan = Planner(options).build(algo.make_program(c.n));
    ASSERT_EQ(plan->arrangement(), c.picked) << c.algo;
    ASSERT_GT(plan->layout(c.p).total_words(), c.p * plan->program().memory_words)
        << c.algo << ": the model's layout is padded";

    std::vector<Word> expected;
    const std::vector<Word> inputs = lane_inputs(algo, c.n, c.p, 7, &expected);
    std::vector<Word> outputs;
    const bulk::HostRunResult run = plan::run(*plan, inputs, c.p, &outputs);
    EXPECT_EQ(run.memory.size(), c.p * plan->program().memory_words) << c.algo;
    EXPECT_EQ(outputs, expected) << c.algo;
  }
}

TEST(PlanSearch, ConflictFreePlanRunsBitIdentically) {
  const algos::Algorithm& algo = algos::find("odd-even-sort");
  const std::size_t n = 32;
  const std::size_t p = 40;
  PlanOptions options;
  options.machine = umm::conflict_heavy_example();
  options.reference_lanes = p;
  const auto plan = Planner(options).build(algo.make_program(n));
  ASSERT_EQ(plan->arrangement(), bulk::Arrangement::kConflictFree);

  std::vector<Word> expected;
  const std::vector<Word> inputs = lane_inputs(algo, n, p, 3, &expected);
  std::vector<Word> outputs;
  plan::run(*plan, inputs, p, &outputs);
  EXPECT_EQ(outputs, expected);
}

TEST(PlanSearch, PlanCacheMemoisesPerSharedTierAndArrangementKnobs) {
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

  // So is a forced arrangement and its parameter.
  PlanOptions param = base;
  param.arrangement = bulk::Arrangement::kBlocked;
  param.arrangement_param = 8;
  PlanOptions param2 = param;
  param2.arrangement_param = 16;
  EXPECT_NE(param.fingerprint(), param2.fingerprint());
  EXPECT_NE(param.fingerprint(), base.fingerprint());

  const auto c = cache.get_or_build("ps/16", program, param);
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(cache.get_or_build("ps/16", program, param).get(), c.get());
}

TEST(PlanSearch, Validation) {
  PlanOptions options;
  options.reference_lanes = 0;
  EXPECT_THROW(Planner{options}, std::logic_error);
}

}  // namespace
