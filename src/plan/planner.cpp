#include "plan/planner.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "bulk/bulk.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/timing_estimator.hpp"
#include "umm/dmm.hpp"

namespace obx::plan {

namespace {

TimeUnits simulate(const trace::Program& program, std::size_t lanes,
                   bulk::Arrangement arrangement, std::size_t param,
                   const umm::MachineConfig& machine) {
  return bulk::simulate_units(program,
                              bulk::make_layout(program, lanes, arrangement, param),
                              umm::Model::kUmm, machine);
}

std::uint64_t steady_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Resolves the parameter of an arrangement: the forced/auto block size for
/// kBlocked (auto = the machine width — one warp per block), the pad stride
/// for kConflictFree (auto = the shared tier's conflict-free stride).
std::size_t resolve_param(bulk::Arrangement arrangement, std::size_t requested,
                          const umm::MachineConfig& machine) {
  switch (arrangement) {
    case bulk::Arrangement::kBlocked:
      return requested != 0 ? requested : machine.width;
    case bulk::Arrangement::kConflictFree:
      return requested != 0 ? requested : umm::conflict_free_stride(machine.shared);
    default:
      return 0;
  }
}

/// Deterministic digest of everything a plan is: the options, the program's
/// step profile, and every decision that fired.  Two builds from the same
/// inputs always agree; any decision drift flips the fingerprint (which is
/// what the golden-plan CI diff watches).
std::uint64_t plan_fingerprint(const ExecutionPlan& plan) {
  // Re-uses the options digest as the seed, then folds in profile and
  // decisions via the same FNV stream (mirrored in PlanOptions::fingerprint).
  std::uint64_t h = plan.options().fingerprint();
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  const PlanProvenance& pv = plan.provenance();
  mix(pv.before.loads);
  mix(pv.before.stores);
  mix(pv.before.alu);
  mix(pv.before.imm);
  mix(pv.after.loads);
  mix(pv.after.stores);
  mix(pv.after.alu);
  mix(pv.after.imm);
  mix(pv.optimised ? 1 : 0);
  mix(pv.compiled ? 1 : 0);
  mix(pv.compiled_segments);
  mix(pv.compiled_fused_ops);
  mix(static_cast<std::uint64_t>(plan.arrangement()));
  mix(static_cast<std::uint64_t>(plan.backend()));
  mix(static_cast<std::uint64_t>(pv.simd));
  mix(pv.simd_width);
  mix(pv.resolved_workers);
  mix(pv.pool_workers);
  mix(pv.pool_pinned ? 1 : 0);
  mix(pv.resolved_tile_lanes);
  mix(plan.arrangement_param());
  mix(pv.tuned ? 1 : 0);
  mix(static_cast<std::uint64_t>(pv.margin_units));
  mix(pv.candidates.size());
  for (const ArrangementCandidate& c : pv.candidates) {
    mix(static_cast<std::uint64_t>(c.arrangement));
    mix(c.param);
    mix(static_cast<std::uint64_t>(c.sim_units));
    mix(c.chosen ? 1 : 0);
    // measured_ns is wall-clock noise, not a decision — the chosen flag
    // already captures what the measurement decided.
  }
  for (const char c : plan.program().name) mix(static_cast<unsigned char>(c));
  return h;
}

}  // namespace

Planner::Planner(PlanOptions options) : options_(options) { options_.validate(); }

std::shared_ptr<const ExecutionPlan> Planner::build(trace::Program program) const {
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");

  auto plan = std::shared_ptr<ExecutionPlan>(new ExecutionPlan());
  plan->options_ = options_;
  plan->program_ = std::move(program);
  plan->workers_ =
      options_.workers == 0 ? bulk::default_worker_count() : options_.workers;

  PlanProvenance& pv = plan->provenance_;
  pv.reference_lanes = options_.reference_lanes;
  pv.before = plan->program_.profile();
  pv.after = pv.before;

  // 1. Optimise — only capturable programs, adopted only on a real win.
  if (options_.optimise && pv.before.total() < options_.optimise_step_limit) {
    pv.optimise_attempted = true;
    opt::OptimizeOptions oo;
    oo.max_steps = options_.optimise_step_limit;
    opt::OptimizeResult r = opt::optimize(plan->program_, oo);
    if (r.after.total() < r.before.total()) {
      plan->program_ = std::move(r.program);
      pv.optimised = true;
      pv.passes = std::move(r.reports);
      pv.after = r.after;
    }
  }

  // 2. Compile — once per (program, process) through the shared exec_cache
  //    slot; an over-budget stream is a recorded interpreter fallback.  The
  //    step profile already says whether the stream fits, so an over-budget
  //    one is never drained and fused just to be thrown away.
  if (options_.backend != exec::Backend::kInterpreted) {
    pv.compile_attempted = true;
    if (pv.after.total() <= options_.compile_budget_steps) {
      plan->compiled_ = exec::CompiledProgram::get_or_compile(
          plan->program_, {.max_steps = options_.compile_budget_steps});
    }
    if (plan->compiled_ != nullptr) {
      pv.compiled = true;
      pv.compiled_segments = plan->compiled_->segments().size();
      pv.compiled_fused_ops = plan->compiled_->fused_ops();
    }
  }
  plan->backend_ =
      plan->compiled_ != nullptr ? exec::Backend::kCompiled : exec::Backend::kInterpreted;

  // 3. Arrange — forced, or a search over {column, row, blocked,
  //    conflict-free}: simulated DMM+UMM units at the reference occupancy
  //    are the prior (strict-< wins, so ties keep the earlier candidate —
  //    column-wise, the Theorem 3 time-optimal layout), optionally refined
  //    by bounded real micro-measurements (the tuner's posterior).
  TimeUnits chosen_units = 0;
  if (options_.arrangement.has_value()) {
    pv.arrangement_forced = true;
    plan->arrangement_ = *options_.arrangement;
    plan->arrangement_param_ =
        resolve_param(plan->arrangement_, options_.arrangement_param, options_.machine);
    chosen_units = simulate(plan->program_, options_.reference_lanes, plan->arrangement_,
                            plan->arrangement_param_, options_.machine);
    ArrangementCandidate forced;
    forced.arrangement = plan->arrangement_;
    forced.param = plan->arrangement_param_;
    forced.sim_units = chosen_units;
    forced.chosen = true;
    pv.candidates.push_back(forced);
  } else {
    for (const bulk::Arrangement arr :
         {bulk::Arrangement::kColumnWise, bulk::Arrangement::kRowWise,
          bulk::Arrangement::kBlocked, bulk::Arrangement::kConflictFree}) {
      ArrangementCandidate c;
      c.arrangement = arr;
      c.param = resolve_param(arr, 0, options_.machine);
      c.sim_units =
          simulate(plan->program_, options_.reference_lanes, arr, c.param, options_.machine);
      pv.candidates.push_back(c);
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < pv.candidates.size(); ++i) {
      if (pv.candidates[i].sim_units < pv.candidates[best].sim_units) best = i;
    }

    if (options_.tune.measure) {
      // Posterior: run each candidate for real (all-zero inputs — the
      // programs are oblivious, so timing is input-independent), keep the
      // best of `trials`, and let the measurements pick the winner.  The
      // injected clock keeps tests deterministic.
      auto clock = options_.tune.clock;
      if (!clock) clock = steady_clock_ns;
      const std::size_t lanes =
          options_.tune.lanes == 0 ? options_.reference_lanes : options_.tune.lanes;
      const std::vector<Word> zeros(lanes * plan->program_.input_words, Word{0});
      bulk::HostBulkExecutor::Options ho;
      ho.workers = plan->workers_for_lanes(lanes);
      ho.backend = plan->backend_;
      ho.tile_lanes = options_.tile_lanes;
      ho.compile_budget_steps = options_.compile_budget_steps;
      for (ArrangementCandidate& c : pv.candidates) {
        const bulk::HostBulkExecutor exec(
            bulk::make_layout(plan->program_, lanes, c.arrangement, c.param), ho);
        std::uint64_t best_ns = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t t = 0; t < options_.tune.trials; ++t) {
          const std::uint64_t t0 = clock();
          exec.run(plan->program_, zeros);
          const std::uint64_t t1 = clock();
          best_ns = std::min(best_ns, t1 > t0 ? t1 - t0 : std::uint64_t{0});
        }
        // 0 is the "not measured" sentinel; a sub-ns (or clock-stuck) trial
        // still records as measured.
        c.measured_ns = std::max<std::uint64_t>(best_ns, 1);
      }
      pv.tuned = true;
      best = 0;
      for (std::size_t i = 1; i < pv.candidates.size(); ++i) {
        if (pv.candidates[i].measured_ns < pv.candidates[best].measured_ns) best = i;
      }
    }

    pv.candidates[best].chosen = true;
    plan->arrangement_ = pv.candidates[best].arrangement;
    plan->arrangement_param_ = pv.candidates[best].param;
    chosen_units = pv.candidates[best].sim_units;

    // Winner's margin over the best rejected candidate: simulated units
    // normally, measured nanoseconds when the tuner decided (clamped at 0 —
    // a tuned winner may have a worse prior).
    std::uint64_t margin = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < pv.candidates.size(); ++i) {
      if (i == best) continue;
      const std::uint64_t winner_m =
          pv.tuned ? pv.candidates[best].measured_ns
                   : static_cast<std::uint64_t>(pv.candidates[best].sim_units);
      const std::uint64_t other_m =
          pv.tuned ? pv.candidates[i].measured_ns
                   : static_cast<std::uint64_t>(pv.candidates[i].sim_units);
      margin = std::min(margin, other_m > winner_m ? other_m - winner_m : std::uint64_t{0});
    }
    pv.margin_units = margin == std::numeric_limits<std::uint64_t>::max()
                          ? 0
                          : static_cast<TimeUnits>(margin);
  }
  plan->units_by_lanes_.emplace(options_.reference_lanes, chosen_units);

  // 4. SIMD + tile — record the tier the kernels will dispatch to (latched
  //    per process, OBX_SIMD-overridable; results are tier-independent) and
  //    what the tile resolution picks at the reference occupancy under that
  //    tier's vector width (each run still resolves for its own lane count).
  pv.simd = active_simd_isa();
  pv.simd_width = simd_width_words(pv.simd);
  const std::size_t reg_count =
      plan->compiled_ != nullptr
          ? plan->compiled_->register_count()
          : std::max<std::size_t>(plan->program_.register_count, 1);
  pv.resolved_tile_lanes =
      exec::resolve_tile_lanes(options_.tile_lanes, reg_count,
                               plan->layout(options_.reference_lanes), pv.simd_width);

  // 5. Workers — resolve the knob against the shared CorePool's topology
  //    (0 = one lane-consumer per pool worker) and record both sides: how
  //    many threads a run will target, and the pool shape backing it.
  pv.resolved_workers = plan->workers_;
  pv.pool_workers = bulk::default_worker_count();
  pv.pool_pinned = bulk::CorePool::pinning_enabled();

  plan->fingerprint_ = plan_fingerprint(*plan);
  return plan;
}

}  // namespace obx::plan
