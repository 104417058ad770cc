// ExecutionPlan: the one place where input-independent execution decisions
// are made and remembered.
//
// Theorem 2's win comes from paying per-program costs once and amortising
// them over every lane of every bulk run.  Before this layer, three call
// sites re-derived the same decisions with drifting defaults — the serving
// layer's PreparedProgram (optimise + arrange + eager compile), the
// advisor's Session (optimise + characterise + arrange + batch sizing), and
// the executor option structs (backend, tile size, compile budget).  A plan
// captures all of it, immutably:
//
//   - the optimised trace::Program (or the original when the optimiser is
//     disabled, the program is too long to capture, or no pass won),
//   - the shared exec::CompiledProgram artifact (also memoised through the
//     program's exec_cache slot, so executors pick it up for free),
//   - the chosen bulk::Arrangement (a search over row / column / blocked /
//     conflict-free: simulated DMM+UMM units as the prior at a reference
//     occupancy, optional bounded micro-measurements as the posterior —
//     unless forced),
//   - the lane-tile knob, resolved backend, and worker count,
//   - a memoised per-occupancy simulated-UMM-units estimate, and
//   - a provenance record of which passes and decisions fired.
//
// Plans are built by plan::Planner (see planner.hpp), shared as
// shared_ptr<const ExecutionPlan>, and cached process-wide by plan::PlanCache
// (see plan_cache.hpp).  Executors consume them directly:
//
//   auto plan = plan::Planner(options).build(program);
//   bulk::HostBulkExecutor exec(*plan, p);            // plan-driven
//   auto result = exec.run(plan->program(), inputs);  // always the plan's
//                                                     // (optimised) program
//
// or through the plan::run / plan::run_streaming conveniences below, which
// cannot get the program/plan pairing wrong.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/layout.hpp"
#include "exec/backend.hpp"
#include "exec/compiled_program.hpp"
#include "opt/optimizer.hpp"
#include "trace/program.hpp"
#include "umm/machine_config.hpp"

namespace obx::plan {

/// Every input-independent knob of the optimise → compile → arrange → tile
/// decision path — the one options struct: the serving layer
/// (serve::ServiceOptions::prepare) and the Session
/// (advisor::SessionOptions::plan) carry a PlanOptions rather than copies of
/// its fields.
struct PlanOptions {
  /// Machine the arrangement choice and simulated-units estimates target.
  umm::MachineConfig machine{.width = 32, .latency = 200};

  /// Occupancy the arrangement decision (and the tile-size provenance) is
  /// evaluated at.  Use the occupancy the caller is tuned for: the service
  /// passes its max_batch_lanes, the Session passes the full lane count p.
  std::size_t reference_lanes = 256;

  /// Run the peephole optimiser (skipped automatically for programs longer
  /// than optimise_step_limit; the optimised program is adopted only when it
  /// actually removed steps).
  bool optimise = true;
  std::size_t optimise_step_limit = std::size_t{1} << 22;

  /// Requested lockstep engine.  kCompiled compiles for the fused
  /// lane-tiled backend at plan-build time, so no run ever pays the one-time
  /// stream drain; a program over compile_budget_steps falls back to the
  /// interpreter, recorded in the provenance (see ExecutionPlan::backend()).
  /// kInterpreted skips the compile.
  exec::Backend backend = exec::Backend::kCompiled;
  std::size_t compile_budget_steps = exec::kDefaultCompileBudget;

  /// Compiled lane-tile size; 0 = auto (fit the register tile in L1).
  std::size_t tile_lanes = 0;

  /// Host threads per bulk run; 0 = auto (bulk::default_worker_count() at
  /// executor construction, so the knob — and plan fingerprints — stay
  /// machine-independent).
  unsigned workers = 0;

  /// Force an arrangement instead of searching.  All four arrangements are
  /// plannable; kBlocked / kConflictFree take their parameter from
  /// arrangement_param.
  std::optional<bulk::Arrangement> arrangement;

  /// Parameter of a forced kBlocked (block size) or kConflictFree (pad
  /// stride) arrangement; 0 = auto (machine width for blocked, the shared
  /// tier's conflict-free stride for conflict-free).  Ignored by
  /// row-/column-wise.
  std::size_t arrangement_param = 0;

  /// The measuring arrangement auto-tuner: when the search is not forced,
  /// real micro-measurements of each candidate refine the simulated prior.
  struct TuneOptions {
    /// Run each candidate arrangement for real (bounded trials on all-zero
    /// inputs — valid because the programs are oblivious) and let the best
    /// measured time pick the winner; the simulated units stay recorded as
    /// the prior.  Off by default: simulation alone decides.
    bool measure = false;
    std::size_t trials = 3;  ///< micro-measurement runs per candidate (min is kept)
    std::size_t lanes = 0;   ///< occupancy measured at; 0 = reference_lanes
    /// Injected monotonic nanosecond clock for deterministic tests; null =
    /// std::chrono::steady_clock.  NOT part of the fingerprint (a clock is
    /// an observation channel, not a decision knob).
    std::function<std::uint64_t()> clock{};
  };
  TuneOptions tune{};

  /// Deterministic 64-bit digest of every knob above (machine included).
  /// Same options => same fingerprint, on any host.  Part of the PlanCache
  /// key and of ExecutionPlan::fingerprint() — which is how tuned decisions
  /// are memoised in PlanCache per (program, machine, occupancy, tune).
  std::uint64_t fingerprint() const;

  /// Throws std::logic_error on an invalid machine shape or zero reference
  /// occupancy.
  void validate() const;
};

/// One entry of the Planner's arrangement search: an arrangement (with its
/// parameter), its simulated DMM+UMM units at the reference occupancy (the
/// prior), and — when the tuner measured — its best wall-clock time (the
/// posterior).
struct ArrangementCandidate {
  bulk::Arrangement arrangement = bulk::Arrangement::kColumnWise;
  std::size_t param = 0;          ///< block size / pad stride; 0 for row/column
  TimeUnits sim_units = 0;        ///< simulated units (prior)
  std::uint64_t measured_ns = 0;  ///< best measured trial; 0 = not measured
  bool chosen = false;

  /// "column-wise", "blocked(32)", "conflict-free(4)", ... — the layout name.
  std::string name() const;
};

/// What the Planner actually did — kept alongside the decisions so tools
/// (obx_cli plan, the golden-plan CI diff) can explain a plan, not just
/// apply it.
struct PlanProvenance {
  trace::StepCounts before;  ///< step profile of the source program
  trace::StepCounts after;   ///< profile of the program the plan executes

  bool optimise_attempted = false;  ///< optimiser ran (enabled and capturable)
  bool optimised = false;           ///< ...and its result was adopted
  std::vector<opt::PassReport> passes;  ///< per-pass step removals when adopted

  bool compile_attempted = false;
  bool compiled = false;  ///< false: disabled, interpreted-only, or over budget
  std::size_t compiled_segments = 0;
  std::size_t compiled_fused_ops = 0;

  bool arrangement_forced = false;
  /// The searched candidates, in search order (column, row, blocked,
  /// conflict-free), exactly one marked chosen.  A forced arrangement
  /// records a single candidate.
  std::vector<ArrangementCandidate> candidates;
  /// Winner's margin over the best rejected candidate: simulated units
  /// normally, measured nanoseconds when the tuner decided (0 when forced
  /// or when candidates tie).
  TimeUnits margin_units = 0;
  /// True when the measuring tuner (not the simulated prior) picked the
  /// winner.
  bool tuned = false;
  std::size_t reference_lanes = 0;

  /// Tile size resolve_tile_lanes() picks at reference_lanes occupancy.
  std::size_t resolved_tile_lanes = 0;

  /// SIMD tier the lockstep kernels dispatch to — the process-wide
  /// active_simd_isa() at plan-build time (OBX_SIMD-overridable, latched) —
  /// and its vector width in 64-bit words.  Part of the plan fingerprint:
  /// the tier changes which code runs and how tiles are rounded, even though
  /// results are bit-identical across tiers.  Executors built from this plan
  /// are pinned to the recorded tier via host_options().
  SimdIsa simd = SimdIsa::kScalar;
  std::size_t simd_width = 1;

  /// Worker resolution against the shared bulk::CorePool: the concrete
  /// parallelism target executors built from this plan will use (the
  /// options_.workers knob resolved; never 0), the pool topology it was
  /// resolved against (default_worker_count(): affinity-mask CPUs,
  /// OBX_WORKERS-overridable) and whether the pool pins workers to cores
  /// (Linux, OBX_PIN-disableable).  Part of the plan fingerprint, like the
  /// SIMD tier: a different pool shape means different code paths run even
  /// though results are bit-identical.  Per-run steal/park counts are
  /// runtime observations, not decisions — they live in
  /// HostRunResult::sched / StreamStats::sched.
  unsigned resolved_workers = 1;
  unsigned pool_workers = 1;
  bool pool_pinned = false;
};

/// An immutable, shareable record of every input-independent decision for
/// one program on one machine.  Built by Planner; thread-safe throughout
/// (the units memo is internally locked).
class ExecutionPlan {
 public:
  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

  /// The program the plan executes — already optimised when the optimiser
  /// won.  Its exec_cache slot holds the compiled artifact, so any executor
  /// running this program reuses the compile for free.
  const trace::Program& program() const { return program_; }

  bulk::Arrangement arrangement() const { return arrangement_; }

  /// Resolved arrangement parameter: the block size (kBlocked) or pad
  /// stride (kConflictFree); 0 for row-/column-wise.
  std::size_t arrangement_param() const { return arrangement_param_; }

  /// Resolved engine: kCompiled when a compiled artifact exists, otherwise
  /// kInterpreted (requested, or the compile was over budget).
  exec::Backend backend() const { return backend_; }

  /// Non-null iff backend() is kCompiled.
  const std::shared_ptr<const exec::CompiledProgram>& compiled() const {
    return compiled_;
  }

  /// Lane-tile knob (0 = auto); the concrete tile still depends on the
  /// occupancy of each run (see provenance().resolved_tile_lanes for the
  /// reference occupancy's value).
  std::size_t tile_lanes() const { return options_.tile_lanes; }

  /// Host threads per bulk run (resolved: never 0).
  unsigned workers() const { return workers_; }

  /// Host threads for one run at the given occupancy: workers(), or 1 when
  /// the run's work (lanes x per-lane steps of program()) is below
  /// bulk::kFanOutMinWork — the fan-out would cost more than it saves, so
  /// the run (lockstep region and gather) stays on the calling thread.
  unsigned workers_for_lanes(std::size_t lanes) const;

  const PlanOptions& options() const { return options_; }
  const PlanProvenance& provenance() const { return provenance_; }

  std::size_t input_words() const { return program_.input_words; }
  std::size_t output_words() const { return program_.output_words; }

  /// Deterministic digest of (program profile, options, decisions): equal
  /// inputs produce equal fingerprints, and any drift in a decision shows up
  /// as a fingerprint change.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Simulated UMM time units of one bulk run at the given occupancy on the
  /// plan's machine, memoised per distinct lane count (thread-safe).  The
  /// reference-occupancy value is pre-seeded by the Planner.
  TimeUnits units_for_lanes(std::size_t lanes) const;

  /// Largest resident-lane batch that keeps one batch's working set (input
  /// + arranged memory + registers + output per lane) within budget_words,
  /// clamped to [1, p] — the Session's batch-sizing rule, now in one place.
  std::size_t resident_lanes_for_budget(std::size_t budget_words, std::size_t p) const;

  /// Layout of a bulk run at the given occupancy under the chosen arrangement.
  bulk::Layout layout(std::size_t lanes) const;

  /// The executor options this plan stands for, sized for runs of `lanes`
  /// lanes; prefer the plan-driven executor constructor or plan::run /
  /// plan::run_streaming.
  bulk::HostBulkExecutor::Options host_options(std::size_t lanes) const;

  /// Human- and diff-friendly description of decisions + provenance +
  /// estimated units (the `obx_cli plan` output; golden-tested, so the text
  /// is deterministic across hosts).
  std::string describe() const;

 private:
  friend class Planner;
  ExecutionPlan() = default;

  trace::Program program_;
  PlanOptions options_;
  PlanProvenance provenance_;
  bulk::Arrangement arrangement_ = bulk::Arrangement::kColumnWise;
  std::size_t arrangement_param_ = 0;
  exec::Backend backend_ = exec::Backend::kInterpreted;
  unsigned workers_ = 1;
  std::shared_ptr<const exec::CompiledProgram> compiled_;
  std::uint64_t fingerprint_ = 0;

  mutable std::mutex units_mutex_;
  mutable std::map<std::size_t, TimeUnits> units_by_lanes_;
};

/// Plan-driven monolithic run: executes plan.program() over p lane-major
/// inputs with the plan's arrangement/backend/tile/workers.  When `outputs`
/// is non-null it receives the lane-major gathered output regions.
bulk::HostRunResult run(const ExecutionPlan& plan, std::span<const Word> inputs,
                        std::size_t p, std::vector<Word>* outputs = nullptr);

/// What one run_streaming call did.
struct StreamStats {
  std::size_t batches = 0;
  std::size_t lanes = 0;
  double execute_seconds = 0.0;   ///< engine time: layout, lockstep run, gather
  double callback_seconds = 0.0;  ///< time spent inside fill_input/consume_output
  bulk::SchedulerStats sched;     ///< CorePool work summed over the batches
};

/// Plan-driven memory-bounded run: plan.program() over p callback-fed lanes
/// in resident batches of at most max_resident_lanes, so peak memory is
/// O(max_resident_lanes · n) whatever p is (figure-scale lane counts cannot
/// be materialised as one p·n array).  fill_input(j, dst) must write lane
/// j's input_words into dst; consume_output(j, out) receives lane j's output
/// region.  Callbacks run on the calling thread, in lane order.  Results are
/// bit-identical to one monolithic run.
StreamStats run_streaming(
    const ExecutionPlan& plan, std::size_t p, std::size_t max_resident_lanes,
    const std::function<void(Lane, std::span<Word>)>& fill_input,
    const std::function<void(Lane, std::span<const Word>)>& consume_output);

}  // namespace obx::plan
