// Compiled-backend equivalence fuzz: for every registry algorithm, all four
// arrangements (row, column, blocked, conflict-free), and awkward lane
// counts, the compiled lane-tiled backend must produce a bit-identical
// column-wise memory image to the interpreted backend, and both must match
// the scalar interpreter per lane.  The same sweep pins the compiled backend
// to the scalar SIMD tier and to the best tier this CPU/build supports and
// asserts those are bit-identical too — the lane-vectorization contract
// (including the float-op algorithms, whose lane-wise IEEE results must not
// change with vector width).  The host runs column-wise only; the
// arrangement axis is the UMM simulator's, whose arranged image must map
// word for word onto the host's.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/umm_executor.hpp"
#include "common/rng.hpp"
#include "common/simd_isa.hpp"
#include "exec/backend.hpp"
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

/// A block size that divides p, > 1 where possible, to make blocked layouts
/// non-degenerate.
std::size_t block_for(std::size_t p) {
  switch (p) {
    case 5: return 5;
    case 33: return 11;
    case 257: return 257;
    default: return 1;
  }
}

using Case = std::tuple<std::string, Arrangement, std::size_t>;

class ExecEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(ExecEquivalence, CompiledMatchesInterpretedAndInterpreter) {
  const auto& [name, arrangement, p] = GetParam();
  const algos::Algorithm& algo = algos::find(name);
  const std::size_t n = algo.test_sizes[algo.test_sizes.size() / 2];
  const trace::Program program = algo.make_program(n);

  Rng rng(0xE9u ^ (p * 977));
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const HostBulkExecutor interp(
      p, HostBulkExecutor::Options{.backend = exec::Backend::kInterpreted});
  // Two workers so compiled chunking × tiling is exercised alongside the
  // single-chunk interpreted reference.
  const HostBulkExecutor compiled(
      p, HostBulkExecutor::Options{.workers = 2, .backend = exec::Backend::kCompiled});

  const HostRunResult a = interp.run(program, inputs);
  const HostRunResult b = compiled.run(program, inputs);
  EXPECT_EQ(a.backend, exec::Backend::kInterpreted);
  ASSERT_EQ(b.backend, exec::Backend::kCompiled) << "program failed to compile";

  // Bit-identical memory images — stronger than comparing outputs.
  ASSERT_EQ(a.memory, b.memory) << name << " p=" << p;
  EXPECT_EQ(a.counts.total(), b.counts.total());
  EXPECT_EQ(a.counts.memory(), b.counts.memory());

  // SIMD tiers in one process: pin the compiled backend to kScalar and to
  // the widest supported tier; both must match the default run bit-for-bit.
  const HostBulkExecutor compiled_scalar(
      p, HostBulkExecutor::Options{.workers = 2,
                                   .backend = exec::Backend::kCompiled,
                                   .simd = SimdIsa::kScalar});
  const HostRunResult s = compiled_scalar.run(program, inputs);
  ASSERT_EQ(s.backend, exec::Backend::kCompiled);
  EXPECT_EQ(s.simd, SimdIsa::kScalar);
  ASSERT_EQ(s.memory, b.memory)
      << name << " p=" << p << ": scalar vs "
      << to_string(b.simd);
  const SimdIsa best = detect_simd_isa();
  if (best != SimdIsa::kScalar) {
    const HostBulkExecutor compiled_best(
        p, HostBulkExecutor::Options{.workers = 2,
                                     .backend = exec::Backend::kCompiled,
                                     .simd = best});
    const HostRunResult v = compiled_best.run(program, inputs);
    ASSERT_EQ(v.backend, exec::Backend::kCompiled);
    EXPECT_EQ(v.simd, best);
    ASSERT_EQ(v.memory, s.memory)
        << name << " p=" << p << ": " << to_string(best)
        << " vs scalar";
  }

  const std::vector<Word> outputs = compiled.gather_outputs(program, b.memory);
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

  // The arrangement is the model's: the UMM simulator runs the arranged
  // image (blocked with a p-dividing block, conflict-free with a non-trivial
  // pad stride of 3) and every word must land where the host's column-wise
  // image has it.
  const Layout layout =
      arrangement == Arrangement::kBlocked
          ? Layout::blocked(p, program.memory_words, block_for(p))
          : (arrangement == Arrangement::kConflictFree
                 ? Layout::conflict_free(p, program.memory_words, 3)
                 : make_layout(program, p, arrangement));
  const UmmBulkExecutor sim(umm::Model::kUmm, umm::MachineConfig{.width = 8, .latency = 5},
                            layout);
  const UmmRunResult sim_run = sim.run(program, inputs);
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t i = 0; i < program.memory_words; ++i) {
      ASSERT_EQ(sim_run.memory[layout.global(static_cast<Addr>(i), j)],
                b.memory[i * p + j])
          << name << " " << layout.name() << " p=" << p << " lane " << j << " word " << i;
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& algo : algos::registry()) {
    for (const Arrangement arrangement :
         {Arrangement::kRowWise, Arrangement::kColumnWise, Arrangement::kBlocked,
          Arrangement::kConflictFree}) {
      for (const std::size_t p : {1u, 5u, 33u, 257u}) {
        cases.emplace_back(algo.name, arrangement, p);
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsArrangementsLanes, ExecEquivalence,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<Case>& param_info) {
                           std::string name = std::get<0>(param_info.param) + "_" +
                                              to_string(std::get<1>(param_info.param)) +
                                              "_p" +
                                              std::to_string(std::get<2>(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Explicit tile sizes, including ones that do not divide p, must not change
// results (partial tiles take the remainder path).
TEST(ExecEquivalenceTiles, TileSizeIsPureTuning) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 32;
  const std::size_t p = 203;
  const trace::Program program = algo.make_program(n);
  Rng rng(77);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const HostRunResult ref =
      HostBulkExecutor(p, {.backend = exec::Backend::kInterpreted}).run(program, inputs);
  for (const std::size_t tile : {1u, 3u, 64u, 256u, 1024u}) {
    const HostRunResult got =
        HostBulkExecutor(p, {.backend = exec::Backend::kCompiled, .tile_lanes = tile})
            .run(program, inputs);
    ASSERT_EQ(got.backend, exec::Backend::kCompiled);
    ASSERT_EQ(ref.memory, got.memory) << "tile=" << tile;
  }
}

// Lane counts that are not multiples of any vector width: every tile ends in
// a scalar epilogue (for p < width the whole run is epilogue).  Uses a
// float-heavy algorithm so IEEE tail handling is what is being exercised.
TEST(ExecEquivalenceRaggedTail, OddLaneCountsMatchScalarTier) {
  const algos::Algorithm& algo = algos::find("convolution");
  const std::size_t n = algo.test_sizes.front();
  const trace::Program program = algo.make_program(n);
  for (const std::size_t p : {1u, 3u, 7u, 9u, 63u, 65u}) {
    Rng rng(0xA7u + p);
    const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);
    const HostRunResult scalar =
        HostBulkExecutor(p, {.backend = exec::Backend::kCompiled, .simd = SimdIsa::kScalar})
            .run(program, inputs);
    const HostRunResult best =
        HostBulkExecutor(p, {.backend = exec::Backend::kCompiled, .simd = detect_simd_isa()})
            .run(program, inputs);
    ASSERT_EQ(scalar.backend, exec::Backend::kCompiled);
    ASSERT_EQ(best.backend, exec::Backend::kCompiled);
    ASSERT_EQ(scalar.memory, best.memory)
        << "p=" << p << " tier=" << to_string(best.simd);
  }
}

// The tile-size rounding rule: requested sizes >= the vector width round
// down to a multiple of it; smaller requests are honoured; auto sizes are
// powers of two (multiples of every width); no tile exceeds the lane count.
TEST(ResolveTileLanes, RoundsToVectorWidthMultiples) {
  EXPECT_EQ(exec::resolve_tile_lanes(100, 4, 4096, 8), 96u);
  EXPECT_EQ(exec::resolve_tile_lanes(96, 4, 4096, 8), 96u);
  EXPECT_EQ(exec::resolve_tile_lanes(100, 4, 4096, 1), 100u);
  // Requests below the width are honoured as-is (pure scalar tail).
  EXPECT_EQ(exec::resolve_tile_lanes(3, 4, 4096, 8), 3u);
  // Auto tiles are powers of two regardless of width.
  const std::size_t auto_tile = exec::resolve_tile_lanes(0, 4, 4096, 8);
  EXPECT_EQ(auto_tile % 8, 0u);
  EXPECT_EQ(auto_tile, exec::resolve_tile_lanes(0, 4, 4096, 1));
  // Capped at the lane count, then rounded.
  EXPECT_EQ(exec::resolve_tile_lanes(0, 4, 50, 8), 48u);
}

// Degenerate inputs must always yield a valid (>= 1 lane) tile: a zero tile
// would turn the executor's tile loop into an infinite loop or a div-by-zero.
TEST(ResolveTileLanes, DegenerateInputsYieldAtLeastOneLane) {
  // Occupancy below every vector width.
  EXPECT_EQ(exec::resolve_tile_lanes(0, 4, 1, 8), 1u);
  EXPECT_EQ(exec::resolve_tile_lanes(100, 4, 1, 8), 1u);
  EXPECT_GE(exec::resolve_tile_lanes(0, 4, 3, 8), 1u);
  EXPECT_GE(exec::resolve_tile_lanes(7, 4, 3, 8), 1u);
  // No lanes at all.
  EXPECT_EQ(exec::resolve_tile_lanes(0, 4, 0, 8), 1u);
  // reg_count == 0 (a store-only or empty program).
  EXPECT_GE(exec::resolve_tile_lanes(0, 0, 64, 8), 1u);
  // Explicit requests of 1 survive vector-width rounding.
  EXPECT_EQ(exec::resolve_tile_lanes(1, 4, 64, 8), 1u);
  // Huge vector width relative to everything else.
  EXPECT_GE(exec::resolve_tile_lanes(2, 1, 2, 64), 1u);
}

}  // namespace
