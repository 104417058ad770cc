// Per-program preparation cache for the serving layer — now a thin wrapper
// over plan::PlanCache.
//
// Registering a program builds (and caches) its ExecutionPlan: peephole
// optimisation, eager compile for the fused lane-tiled backend, row-vs-column
// arrangement choice on the configured machine, and the memoised
// per-occupancy simulated-UMM-units estimate all happen once per program id
// inside plan::Planner; every batch for that id reuses the shared plan.  The
// optimise/arrange/compile/units-memo logic that used to live here is gone —
// src/plan/ is its single implementation.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "bulk/layout.hpp"
#include "exec/compiled_program.hpp"
#include "plan/plan_cache.hpp"
#include "trace/program.hpp"

namespace obx::serve {

/// One registered program: a handle on its cached ExecutionPlan with the
/// pre-plan accessor surface preserved.
class PreparedProgram {
 public:
  PreparedProgram(std::shared_ptr<const plan::ExecutionPlan> plan);

  /// The full plan (decisions + provenance + shared compiled artifact).
  const plan::ExecutionPlan& plan() const { return *plan_; }
  const std::shared_ptr<const plan::ExecutionPlan>& plan_ptr() const { return plan_; }

  const trace::Program& program() const { return plan_->program(); }
  bulk::Arrangement arrangement() const { return plan_->arrangement(); }
  bool optimised() const { return plan_->provenance().optimised; }
  /// Non-null when the program was compiled at registration (executors pick
  /// it up for free through the program's shared exec_cache slot).
  const std::shared_ptr<const exec::CompiledProgram>& compiled() const {
    return plan_->compiled();
  }
  std::size_t input_words() const { return plan_->input_words(); }
  std::size_t output_words() const { return plan_->output_words(); }

  /// Simulated UMM time units of one bulk run at the given occupancy
  /// (memoised per distinct lane count; thread-safe).
  TimeUnits units_for_lanes(std::size_t lanes) const {
    return plan_->units_for_lanes(lanes);
  }

 private:
  std::shared_ptr<const plan::ExecutionPlan> plan_;
};

/// Thread-safe id → PreparedProgram registry over a service-scoped
/// plan::PlanCache (service id namespaces stay independent of each other
/// and of PlanCache::process()).  Entries are immutable once added, so
/// get() hands out stable references.
class ProgramCache {
 public:
  /// `options` plan every program added (the service sets reference_lanes
  /// to its max_batch_lanes: the occupancy it is tuned for).
  explicit ProgramCache(const plan::PlanOptions& options) : plans_(options) {}

  /// Plans and stores `program` under `id`; throws if the id is taken.
  void add(const std::string& id, trace::Program program);

  const PreparedProgram& get(const std::string& id) const;  ///< throws if absent
  bool contains(const std::string& id) const;
  std::vector<std::string> ids() const;

 private:
  plan::PlanCache plans_;
  mutable std::mutex mutex_;
  // unique_ptr so references stay valid across rehash/insert.
  std::map<std::string, std::unique_ptr<PreparedProgram>> programs_;
};

}  // namespace obx::serve
