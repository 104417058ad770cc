// Session: the batteries-included entry point.
//
// Wires the whole library together for a user who just has an oblivious
// program and a pile of inputs: builds a one-off plan::ExecutionPlan
// (optimise → compile → arrange at the session's occupancy → tile), sizes
// resident batches to a memory budget, executes through the streaming bulk
// engine, and reports what it did (including the simulated machine time a
// UMM of the configured shape would have taken).  All decisions come from
// plan::Planner — the Session adds only the memory-budget batch sizing and
// the report.
//
//   advisor::Session session(advisor::SessionOptions{});
//   auto report = session.run(program, p, fill_input, consume_output);
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "common/types.hpp"
#include "bulk/layout.hpp"
#include "plan/plan.hpp"
#include "trace/program.hpp"

namespace obx::advisor {

struct SessionOptions {
  /// Peak resident words for lane data (inputs + arranged memory + outputs
  /// of one batch).  Batches are sized to stay under this.
  std::size_t memory_budget_words = 1u << 24;

  /// How the program is planned: the machine the simulated-time estimate
  /// (and the arrangement choice) targets, the optimiser, a forced
  /// arrangement, workers per batch (0, the default, = the host's cores; 1 =
  /// deterministic single-threaded timing runs).  reference_lanes is
  /// overridden with the session's lane count p.
  plan::PlanOptions plan;
};

struct SessionReport {
  std::string program_name;            ///< name actually executed (may be "+opt")
  std::uint64_t memory_steps_before = 0;
  std::uint64_t memory_steps_after = 0;  ///< after optimisation (== before if skipped)
  bool optimised = false;
  bulk::Arrangement arrangement = bulk::Arrangement::kColumnWise;
  std::size_t lanes = 0;
  std::size_t batch_lanes = 0;         ///< resident lanes per batch
  std::size_t batches = 0;
  TimeUnits simulated_units = 0;       ///< full-p estimate on options.machine
  double host_seconds = 0.0;           ///< execute + callback wall-clock
  double host_execute_seconds = 0.0;   ///< engine time inside the bulk executor
  double host_callback_seconds = 0.0;  ///< time inside the caller's callbacks

  std::string summary() const;
};

class Session {
 public:
  Session() : Session(SessionOptions()) {}
  explicit Session(SessionOptions options);

  /// Executes `program` for p lanes with callback-fed inputs and outputs
  /// (the plan::run_streaming contract: fill_input(j, dst) writes lane j's
  /// input words; consume_output(j, out) receives its output region).
  SessionReport run(
      const trace::Program& program, std::size_t p,
      const std::function<void(Lane, std::span<Word>)>& fill_input,
      const std::function<void(Lane, std::span<const Word>)>& consume_output) const;

  const SessionOptions& options() const { return options_; }

 private:
  SessionOptions options_;
};

}  // namespace obx::advisor
