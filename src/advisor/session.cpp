#include "advisor/session.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/format.hpp"
#include "plan/planner.hpp"

namespace obx::advisor {

Session::Session(SessionOptions options) : options_(options) {
  options_.plan.machine.validate();
  OBX_CHECK(options_.memory_budget_words > 0, "memory budget must be positive");
}

SessionReport Session::run(
    const trace::Program& program, std::size_t p,
    const std::function<void(Lane, std::span<Word>)>& fill_input,
    const std::function<void(Lane, std::span<const Word>)>& consume_output) const {
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");
  OBX_CHECK(p > 0, "at least one lane");

  // One-off plan: optimise → compile → arrange (at the session's actual
  // occupancy p) → tile, all decided by the single planning layer.
  plan::PlanOptions po = options_.plan;
  po.reference_lanes = p;
  const std::shared_ptr<const plan::ExecutionPlan> plan =
      plan::Planner(po).build(program);

  SessionReport report;
  report.lanes = p;
  report.program_name = plan->program().name;
  report.memory_steps_before = plan->provenance().before.memory();
  report.memory_steps_after = plan->provenance().after.memory();
  report.optimised = plan->provenance().optimised;
  report.arrangement = plan->arrangement();
  report.simulated_units = plan->units_for_lanes(p);
  report.batch_lanes = plan->resident_lanes_for_budget(options_.memory_budget_words, p);

  const auto stats =
      plan::run_streaming(*plan, p, report.batch_lanes, fill_input, consume_output);
  report.batches = stats.batches;
  report.host_seconds = stats.execute_seconds + stats.callback_seconds;
  report.host_execute_seconds = stats.execute_seconds;
  report.host_callback_seconds = stats.callback_seconds;
  return report;
}

std::string SessionReport::summary() const {
  std::ostringstream os;
  os << program_name << ": " << format_count(lanes) << " lanes in " << batches
     << " batch(es) of <= " << batch_lanes << ", " << to_string(arrangement)
     << " arrangement";
  if (optimised) {
    os << ", optimised t " << memory_steps_before << " -> " << memory_steps_after;
  }
  os << "; host " << format_seconds(host_seconds) << ", simulated "
     << format_units(static_cast<double>(simulated_units));
  return os.str();
}

}  // namespace obx::advisor
