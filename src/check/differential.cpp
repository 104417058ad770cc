#include "check/differential.hpp"

#include <sstream>

#include "common/check.hpp"
#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/umm_executor.hpp"
#include "plan/planner.hpp"
#include "trace/interpreter.hpp"

namespace obx::check {

namespace {

using bulk::Arrangement;

/// SIMD tiers this host/build can actually execute, narrowest first.
std::vector<SimdIsa> supported_tiers() {
  std::vector<SimdIsa> tiers;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (simd_isa_supported(isa)) tiers.push_back(isa);
  }
  return tiers;
}

/// Up to two interesting blocked arrangements for occupancy p: the smallest
/// nontrivial divisor (usually not a vector-width multiple — the ragged-tile
/// case) and the largest proper divisor.  p prime yields block = 1, which is
/// still a valid blocked layout (degenerates to row-wise addressing but runs
/// the blocked code paths).
std::vector<std::size_t> blocked_blocks(std::size_t p) {
  std::vector<std::size_t> blocks;
  if (p < 2) return blocks;
  std::size_t smallest = 0;
  for (std::size_t d = 2; d * d <= p; ++d) {
    if (p % d == 0) {
      smallest = d;
      break;
    }
  }
  if (smallest == 0) {
    blocks.push_back(1);  // p prime
    return blocks;
  }
  blocks.push_back(smallest);
  const std::size_t largest = p / smallest;
  if (largest != smallest) blocks.push_back(largest);
  return blocks;
}

/// First word where a run's memory image disagrees with the oracle's
/// lane-major images; `global(i, j)` maps canonical word i of lane j into
/// the run's image.
template <typename Global>
std::optional<Divergence> first_divergence(std::span<const Word> memory,
                                           std::span<const Word> oracle, std::size_t p,
                                           std::size_t n, const std::string& config,
                                           Global global) {
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const Word got = memory[global(i, j)];
      const Word expected = oracle[j * n + i];
      if (got != expected) {
        Divergence d;
        d.config = config;
        d.lane = j;
        d.word = i;
        d.expected = expected;
        d.got = got;
        return d;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string ExecConfig::name() const {
  std::ostringstream os;
  if (via_planner) {
    os << "planner";
    if (workers != 1) os << "/workers=" << workers;
    return os.str();
  }
  if (arrangement.has_value()) {
    os << "umm/";
    switch (*arrangement) {
      case Arrangement::kRowWise: os << "row"; break;
      case Arrangement::kColumnWise: os << "col"; break;
      case Arrangement::kBlocked: os << "blocked(" << block << ")"; break;
      case Arrangement::kConflictFree: os << "cf(" << block << ")"; break;
    }
    return os.str();
  }
  os << to_string(backend);
  if (backend != exec::Backend::kInterpreted) {
    os << "/" << obx::to_string(simd) << "/tile=" << tile_lanes;
    if (compile_budget_steps != 0) os << "/budget=" << compile_budget_steps;
  }
  if (workers != 1) os << "/workers=" << workers;
  return os.str();
}

std::string Divergence::to_string() const {
  std::ostringstream os;
  os << "divergence[" << config << "]";
  if (!detail.empty()) {
    os << " " << detail;
  } else {
    os << " lane=" << lane << " word=" << word << " expected=0x" << std::hex
       << expected << " got=0x" << got;
  }
  return os.str();
}

std::vector<ExecConfig> config_matrix(std::size_t p, std::size_t program_steps) {
  std::vector<ExecConfig> configs;
  const std::vector<SimdIsa> tiers = supported_tiers();

  // The host engines: interpreted, and compiled at every tier and tile.
  configs.push_back(ExecConfig{});
  for (const SimdIsa isa : tiers) {
    for (const std::size_t tile : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      ExecConfig c;
      c.backend = exec::Backend::kCompiled;
      c.simd = isa;
      c.tile_lanes = tile;
      configs.push_back(c);
    }
  }

  // Every arrangement's address map, on the UMM simulator.
  const auto simulated = [&](Arrangement arrangement, std::size_t block) {
    ExecConfig c;
    c.arrangement = arrangement;
    c.block = block;
    configs.push_back(c);
  };
  simulated(Arrangement::kRowWise, 0);
  simulated(Arrangement::kColumnWise, 0);
  simulated(Arrangement::kConflictFree, 2);
  simulated(Arrangement::kConflictFree, 4);
  for (const std::size_t b : blocked_blocks(p)) simulated(Arrangement::kBlocked, b);
  // Ragged blocked: a block that does not divide p pads the last block.
  if (p >= 3) simulated(Arrangement::kBlocked, p - 1);

  // Chunk-boundary seams: the widest tier, two workers — plus the
  // interpreted engine with two workers.
  if (p >= 2) {
    ExecConfig c;
    c.backend = exec::Backend::kCompiled;
    c.simd = tiers.back();
    c.workers = 2;
    configs.push_back(c);
    ExecConfig i;
    i.backend = exec::Backend::kInterpreted;
    i.workers = 2;
    configs.push_back(i);
  }

  // Steal-scheduler stress: oversubscribe the CorePool (8-way) with one-lane
  // tiles so nearly every task crosses the work-stealing deques, plus the
  // interpreted engine at the same width.  Any ordering- or
  // ownership-sensitivity in the steal loop shows up as a memory-image
  // divergence from the oracle.
  if (p >= 4) {
    ExecConfig steal;
    steal.backend = exec::Backend::kCompiled;
    steal.simd = tiers.back();
    steal.workers = 8;
    steal.tile_lanes = 1;
    configs.push_back(steal);
    ExecConfig isteal;
    isteal.backend = exec::Backend::kInterpreted;
    isteal.workers = 8;
    configs.push_back(isteal);
  }

  // The full planning path: the arrangement search picks the model's
  // layout; whatever it picks, the host run must match the oracle bit for
  // bit.
  ExecConfig planned;
  planned.via_planner = true;
  configs.push_back(planned);

  // Compile-budget straddles (fresh cache slots, see run_config): one step
  // under budget must fall back to the interpreter bit-identically; exactly
  // at budget must compile.
  if (program_steps >= 2) {
    ExecConfig under;
    under.backend = exec::Backend::kCompiled;
    under.simd = tiers.back();
    under.compile_budget_steps = program_steps - 1;
    under.expect_backend = exec::Backend::kInterpreted;
    configs.push_back(under);

    ExecConfig exact;
    exact.backend = exec::Backend::kCompiled;
    exact.simd = tiers.back();
    exact.compile_budget_steps = program_steps;
    exact.expect_backend = exec::Backend::kCompiled;
    configs.push_back(exact);
  }
  return configs;
}

std::vector<Word> oracle_memory(const trace::Program& program,
                                std::span<const Word> inputs, std::size_t p) {
  const std::size_t n = program.memory_words;
  std::vector<Word> memory(p * n);
  for (std::size_t j = 0; j < p; ++j) {
    const std::span<const Word> input =
        inputs.subspan(j * program.input_words, program.input_words);
    const trace::InterpreterResult ref = trace::interpret(program, input);
    std::copy(ref.memory.begin(), ref.memory.end(),
              memory.begin() + static_cast<std::ptrdiff_t>(j * n));
  }
  return memory;
}

std::optional<Divergence> run_config(const trace::Program& program,
                                     std::span<const Word> inputs, std::size_t p,
                                     std::span<const Word> oracle,
                                     const ExecConfig& config) {
  auto fail = [&](std::string detail) {
    Divergence d;
    d.config = config.name();
    d.detail = std::move(detail);
    return d;
  };

  const std::size_t n = program.memory_words;
  const auto column_wise = [p](std::size_t i, std::size_t j) { return i * p + j; };

  if (config.via_planner) {
    plan::PlanOptions po;
    po.reference_lanes = p;
    po.workers = config.workers;
    // The oracle is the unoptimised program's full memory image; keep the
    // optimiser out so scratch words stay comparable.
    po.optimise = false;
    bulk::HostRunResult run;
    try {
      run = plan::run(*plan::Planner(po).build(program), inputs, p);
    } catch (const std::exception& e) {
      return fail(std::string("threw: ") + e.what());
    }
    return first_divergence(run.memory, oracle, p, n, config.name(), column_wise);
  }

  if (config.arrangement.has_value()) {
    const bulk::Layout layout =
        bulk::make_layout(program, p, *config.arrangement, config.block);
    bulk::UmmRunResult run;
    try {
      run = bulk::UmmBulkExecutor(umm::Model::kUmm, umm::MachineConfig{}, layout)
                .run(program, inputs);
    } catch (const std::exception& e) {
      return fail(std::string("threw: ") + e.what());
    }
    return first_divergence(run.memory, oracle, p, n, config.name(),
                            [&layout](std::size_t i, std::size_t j) {
                              return layout.global(static_cast<Addr>(i), j);
                            });
  }

  // Budget-variant configs run against a private exec-cache slot: the
  // process-wide slot memoises the first successful compile, which would
  // otherwise hand a cached artifact to a config whose budget should refuse
  // to build one.
  trace::Program subject = program;
  if (config.compile_budget_steps != 0) {
    subject.exec_cache = std::make_shared<trace::ExecCacheSlot>();
  }

  bulk::HostBulkExecutor::Options options;
  options.workers = config.workers;
  options.backend = config.backend;
  options.tile_lanes = config.tile_lanes;
  if (config.compile_budget_steps != 0) {
    options.compile_budget_steps = config.compile_budget_steps;
  }
  if (config.backend != exec::Backend::kInterpreted) options.simd = config.simd;

  bulk::HostRunResult run;
  try {
    run = bulk::HostBulkExecutor(p, options).run(subject, inputs);
  } catch (const std::exception& e) {
    return fail(std::string("threw: ") + e.what());
  }

  if (config.expect_backend.has_value() && run.backend != *config.expect_backend) {
    return fail("expected backend " + exec::to_string(*config.expect_backend) +
                ", ran " + exec::to_string(run.backend));
  }

  // Compare the full final memory image lane by lane — not just the declared
  // output window — so a wrong scratch word is a failure too.
  return first_divergence(run.memory, oracle, p, n, config.name(), column_wise);
}

std::optional<Divergence> check_program(const trace::Program& program,
                                        std::span<const Word> inputs, std::size_t p,
                                        std::size_t* configs_run) {
  OBX_CHECK(inputs.size() == p * program.input_words,
            "inputs must be lane-major flat: p * input_words");
  const std::vector<Word> oracle = oracle_memory(program, inputs, p);
  const std::size_t steps = trace::TracedProgram::capture(program).steps().size();
  for (const ExecConfig& config : config_matrix(p, steps)) {
    if (configs_run != nullptr) ++*configs_run;
    if (auto d = run_config(program, inputs, p, oracle, config)) return d;
  }
  return std::nullopt;
}

std::vector<std::size_t> boundary_lane_counts() {
  // Straddle every vector width (2/4/8), the default blocked splits, and the
  // two-worker chunk seam.
  return {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65};
}

}  // namespace obx::check
