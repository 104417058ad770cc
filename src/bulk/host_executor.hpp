// Lockstep host execution of a bulk oblivious program.
//
// This is the functional analogue of the paper's CUDA kernels: every step of
// the oblivious program is applied across all p lanes before the next step
// begins (per worker chunk), with a register file stored lane-major
// (structure-of-arrays) so ALU steps and column-wise memory steps run over
// contiguous memory and vectorise.  Results are bit-identical to running the
// scalar interpreter p times.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/layout.hpp"
#include "exec/backend.hpp"
#include "trace/program.hpp"

namespace obx::plan {
class ExecutionPlan;
}

namespace obx::bulk {

struct HostRunResult {
  /// Final arranged global memory (p·n words), 64-byte aligned for the
  /// vectorized kernels.  Compares equal to a plain std::vector<Word> with
  /// the same contents (see common/aligned.hpp).
  aligned_vector<Word> memory;
  trace::StepCounts counts;   ///< steps in one program stream (per input)
  /// Engine that actually ran: kCompiled when the fused lane-tiled backend
  /// did, kInterpreted when the program exceeded the compile budget (or the
  /// interpreter was requested).
  exec::Backend backend = exec::Backend::kInterpreted;
  /// SIMD tier the lockstep loop ran at (Options::simd if set — compiled
  /// backend only — else the process-wide active_simd_isa()).
  SimdIsa simd = SimdIsa::kScalar;
  /// What the CorePool scheduler did for this run (scatter + lockstep
  /// regions): tile tasks, cross-thread steals, submitter parks.  For
  /// workers <= 1 runs each region executes inline on the caller and counts
  /// as one task (so tasks is the region count), while steals and parks
  /// stay zero — the pool's worker threads are never touched.
  SchedulerStats sched;
};

class HostBulkExecutor {
 public:
  /// Compatibility shim over the planning layer: an Options struct carries
  /// exactly the decisions plan::ExecutionPlan::host_options() emits for a
  /// one-off plan.  New code should plan once (plan::Planner / PlanCache)
  /// and use the plan-driven constructor below.
  struct Options {
    /// Parallelism target per bulk run: lane tiles are executed by up to
    /// this many threads of the shared bulk::CorePool (the caller counts as
    /// one).  1 = run inline on the caller; 0 = auto (default_worker_count).
    unsigned workers = 1;
    /// Lockstep engine.  kCompiled compiles the step stream once per
    /// (program, process) and runs fused lane-tiled kernels, falling back to
    /// the interpreter when the program exceeds compile_budget_steps.
    exec::Backend backend = exec::Backend::kCompiled;
    std::size_t tile_lanes = 0;  ///< compiled lane-tile size; 0 = auto (fit L1)
    std::size_t compile_budget_steps = exec::kDefaultCompileBudget;
    /// SIMD tier for the compiled backend's lane-vectorized kernels.
    /// Unset = the process-wide active_simd_isa() (OBX_SIMD-overridable).
    /// Setting it pins this executor's runs to one tier regardless of the
    /// environment — every tier is bit-identical, so this is pure tuning
    /// (and how tests compare scalar against vector in one process).  The
    /// interpreted backend ignores it: its ALU sweeps go through
    /// trace::bulk_alu, whose tier is latched process-wide.
    std::optional<SimdIsa> simd{};
  };

  explicit HostBulkExecutor(Layout layout);
  HostBulkExecutor(Layout layout, Options options);

  /// Plan-driven construction: arrangement, backend, tile size, compile
  /// budget and worker count all come from the plan, sized for `lanes`
  /// lanes.  run() must be given plan.program() (the plan's optimised
  /// program) — or use plan::run(), which cannot get the pairing wrong.
  /// Defined in src/plan/plan.cpp (bulk/ sits below plan/ and must not link
  /// upward): link obx_plan (or obx::obx).
  HostBulkExecutor(const plan::ExecutionPlan& plan, std::size_t lanes);

  /// Runs `program` on p inputs given lane-major flat: input j occupies
  /// inputs[j*program.input_words ... ).  Requires program.memory_words ==
  /// layout.words_per_input() and inputs.size() == p * program.input_words.
  /// The program's stream factory must be safe to invoke concurrently.
  HostRunResult run(const trace::Program& program, std::span<const Word> inputs) const;

  /// Extracts each lane's declared output region from a run's final memory,
  /// returned lane-major flat (p * output_words).
  std::vector<Word> gather_outputs(const trace::Program& program,
                                   std::span<const Word> memory) const;

  /// As above, writing into `out` (resized to p * output_words) so repeated
  /// runs — e.g. plan::run_streaming batches — reuse one allocation.
  void gather_outputs(const trace::Program& program, std::span<const Word> memory,
                      std::vector<Word>& out) const;

  const Layout& layout() const { return layout_; }

 private:
  void run_chunk(const trace::Program& program, std::span<Word> memory, Lane lane_begin,
                 Lane lane_end, trace::StepCounts* counts) const;

  Layout layout_;
  Options options_;
};

}  // namespace obx::bulk
