#include "plan/plan.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "bulk/bulk.hpp"
#include "bulk/timing_estimator.hpp"

namespace obx::plan {

namespace {

/// FNV-1a over explicit 64-bit words: byte-order- and host-independent, so
/// fingerprints (and the golden plan texts that print them) are stable.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  }
  void mix_bool(bool v) { mix(v ? 1 : 0); }
  void mix_string(const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
};

std::uint64_t to_u64(TimeUnits u) { return static_cast<std::uint64_t>(u); }

}  // namespace

std::uint64_t PlanOptions::fingerprint() const {
  Digest d;
  d.mix(machine.width);
  d.mix(machine.latency);
  d.mix(machine.group_words);
  d.mix_bool(machine.count_compute);
  d.mix_bool(machine.overlap_latency);
  d.mix(machine.shared.banks);
  d.mix(machine.shared.bank_words);
  d.mix(machine.shared.latency);
  d.mix(reference_lanes);
  d.mix_bool(optimise);
  d.mix(optimise_step_limit);
  d.mix(compile_budget_steps);
  d.mix(static_cast<std::uint64_t>(backend));
  d.mix(tile_lanes);
  d.mix(workers);
  d.mix(arrangement.has_value()
            ? static_cast<std::uint64_t>(*arrangement) + 1
            : 0);
  d.mix(arrangement_param);
  // The tuner knobs are decisions; the injected clock is an observation
  // channel and stays out.
  d.mix_bool(tune.measure);
  d.mix(tune.trials);
  d.mix(tune.lanes);
  return d.h;
}

void PlanOptions::validate() const {
  machine.validate();
  OBX_CHECK(reference_lanes > 0, "reference lane count must be positive");
  OBX_CHECK(tune.trials > 0, "tuner trial count must be positive");
}

std::string ArrangementCandidate::name() const {
  if (arrangement == bulk::Arrangement::kBlocked) {
    return "blocked(" + std::to_string(param) + ")";
  }
  if (arrangement == bulk::Arrangement::kConflictFree) {
    return "conflict-free(" + std::to_string(param) + ")";
  }
  return bulk::to_string(arrangement);
}

TimeUnits ExecutionPlan::units_for_lanes(std::size_t lanes) const {
  OBX_CHECK(lanes > 0, "lane count must be positive");
  std::lock_guard lock(units_mutex_);
  const auto it = units_by_lanes_.find(lanes);
  if (it != units_by_lanes_.end()) return it->second;
  const TimeUnits units = bulk::simulate_units(
      program_, bulk::make_layout(program_, lanes, arrangement_, arrangement_param_),
      umm::Model::kUmm, options_.machine);
  units_by_lanes_.emplace(lanes, units);
  return units;
}

std::size_t ExecutionPlan::resident_lanes_for_budget(std::size_t budget_words,
                                                     std::size_t p) const {
  OBX_CHECK(budget_words > 0, "memory budget must be positive");
  OBX_CHECK(p > 0, "at least one lane");
  const std::size_t per_lane = program_.input_words + program_.memory_words +
                               program_.register_count + program_.output_words;
  return std::clamp<std::size_t>(budget_words / std::max<std::size_t>(per_lane, 1), 1, p);
}

bulk::Layout ExecutionPlan::layout(std::size_t lanes) const {
  return bulk::make_layout(program_, lanes, arrangement_, arrangement_param_);
}

unsigned ExecutionPlan::workers_for_lanes(std::size_t lanes) const {
  const std::uint64_t work = std::uint64_t{lanes} * provenance_.after.total();
  return work < bulk::kFanOutMinWork ? 1u : workers_;
}

bulk::HostBulkExecutor::Options ExecutionPlan::host_options(std::size_t lanes) const {
  return bulk::HostBulkExecutor::Options{
      .workers = workers_for_lanes(lanes),
      .backend = backend_,
      .tile_lanes = options_.tile_lanes,
      .compile_budget_steps = options_.compile_budget_steps,
      .simd = provenance_.simd};
}

std::string ExecutionPlan::describe() const {
  std::ostringstream os;
  const PlanProvenance& pv = provenance_;
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(fingerprint_));

  os << "plan: " << program_.name << "\n";
  os << "  fingerprint : " << fp << "\n";
  os << "  machine     : umm w=" << options_.machine.width
     << " l=" << options_.machine.latency
     << " group=" << options_.machine.effective_group();
  if (options_.machine.shared.enabled()) {
    os << " shared=" << options_.machine.shared.banks << "x"
       << options_.machine.shared.bank_words << " ls=" << options_.machine.shared.latency;
  }
  if (options_.machine.overlap_latency) os << " overlap";
  if (options_.machine.count_compute) os << " count-compute";
  os << "\n";
  os << "  source steps: total=" << pv.before.total() << " memory=" << pv.before.memory()
     << " (loads=" << pv.before.loads << " stores=" << pv.before.stores
     << " alu=" << pv.before.alu << " imm=" << pv.before.imm << ")\n";

  os << "  optimise    : ";
  if (!pv.optimise_attempted) {
    os << (options_.optimise ? "skipped (over step limit)" : "skipped (disabled)");
  } else if (!pv.optimised) {
    os << "no win";
  } else {
    os << "adopted (t " << pv.before.memory() << " -> " << pv.after.memory();
    for (const opt::PassReport& r : pv.passes) {
      if (r.removed > 0) os << "; " << r.pass << " -" << r.removed;
    }
    os << ")";
  }
  os << "\n";
  os << "  plan steps  : total=" << pv.after.total() << " memory=" << pv.after.memory()
     << "\n";

  os << "  compile     : ";
  if (!pv.compile_attempted) {
    os << "skipped (interpreted backend)";
  } else if (!pv.compiled) {
    os << "fallback (over budget " << options_.compile_budget_steps << ")";
  } else {
    os << "compiled (segments=" << pv.compiled_segments
       << " fused-ops=" << pv.compiled_fused_ops
       << " budget=" << options_.compile_budget_steps << ")";
  }
  os << "\n";

  os << "  backend     : " << exec::to_string(backend_) << "\n";
  os << "  simd        : " << to_string(pv.simd) << " (w=" << pv.simd_width << ")\n";

  std::string arr_name = bulk::to_string(arrangement_);
  if (arrangement_ == bulk::Arrangement::kBlocked ||
      arrangement_ == bulk::Arrangement::kConflictFree) {
    arr_name += "(" + std::to_string(arrangement_param_) + ")";
  }
  os << "  arrangement : " << arr_name;
  if (pv.arrangement_forced) {
    os << " (forced)\n";
  } else {
    os << (pv.tuned ? " (tuned over " : " (searched ") << pv.candidates.size()
       << " candidates, margin=" << to_u64(pv.margin_units) << " units @ "
       << pv.reference_lanes << " lanes)\n";
    for (const ArrangementCandidate& c : pv.candidates) {
      std::string label = c.name();
      if (label.size() < 17) label.resize(17, ' ');
      os << "    candidate : " << label << " sim=" << to_u64(c.sim_units) << " units";
      if (c.measured_ns != 0) os << " measured=" << c.measured_ns << "ns";
      if (c.chosen) os << " *";
      os << "\n";
    }
  }

  os << "  tile lanes  : " << pv.resolved_tile_lanes
     << (options_.tile_lanes == 0 ? " (auto" : " (requested")
     << " @ " << pv.reference_lanes << " lanes)\n";
  os << "  workers     : ";
  if (options_.workers == 0) {
    os << "auto";
  } else {
    os << options_.workers;
  }
  os << " (resolved " << pv.resolved_workers << ", pool " << pv.pool_workers
     << (pv.pool_pinned ? ", pinned" : ", unpinned") << ")\n";
  os << "  est. units  : " << to_u64(units_for_lanes(pv.reference_lanes)) << " @ "
     << pv.reference_lanes << " lanes\n";
  return os.str();
}

bulk::HostRunResult run(const ExecutionPlan& plan, std::span<const Word> inputs,
                        std::size_t p, std::vector<Word>* outputs) {
  const bulk::HostBulkExecutor exec(plan, p);
  bulk::HostRunResult result = exec.run(plan.program(), inputs);
  if (outputs != nullptr) exec.gather_outputs(plan.program(), result.memory, *outputs);
  return result;
}

StreamStats run_streaming(
    const ExecutionPlan& plan, std::size_t p, std::size_t max_resident_lanes,
    const std::function<void(Lane, std::span<Word>)>& fill_input,
    const std::function<void(Lane, std::span<const Word>)>& consume_output) {
  OBX_CHECK(max_resident_lanes > 0, "need at least one resident lane");
  OBX_CHECK(fill_input != nullptr && consume_output != nullptr, "callbacks required");
  const trace::Program& program = plan.program();
  using Clock = std::chrono::steady_clock;
  const auto elapsed = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  StreamStats stats;
  stats.lanes = p;
  // All full batches share one executor; only a trailing partial batch
  // (the batch size changes at most once) builds a second one.
  std::optional<bulk::HostBulkExecutor> exec;
  std::vector<Word> inputs;
  std::vector<Word> outputs;
  for (Lane base = 0; base < p; base += max_resident_lanes) {
    const std::size_t batch = std::min(max_resident_lanes, p - base);
    inputs.assign(batch * program.input_words, Word{0});
    const auto fill_start = Clock::now();
    for (std::size_t j = 0; j < batch; ++j) {
      fill_input(base + j, std::span<Word>(inputs).subspan(j * program.input_words,
                                                           program.input_words));
    }

    const auto exec_start = Clock::now();
    if (!exec.has_value() || exec->layout().lanes() != batch) {
      exec.emplace(plan.layout(batch), plan.host_options(batch));
    }
    const bulk::HostRunResult run = exec->run(program, inputs);
    stats.sched += run.sched;
    exec->gather_outputs(program, run.memory, outputs);
    const auto consume_start = Clock::now();
    for (std::size_t j = 0; j < batch; ++j) {
      consume_output(base + j, std::span<const Word>(outputs).subspan(
                                   j * program.output_words, program.output_words));
    }
    const auto batch_end = Clock::now();
    stats.callback_seconds +=
        elapsed(fill_start, exec_start) + elapsed(consume_start, batch_end);
    stats.execute_seconds += elapsed(exec_start, consume_start);
    ++stats.batches;
  }
  return stats;
}

}  // namespace obx::plan

namespace obx::bulk {

// Declared on HostBulkExecutor so executors accept a plan at the call site,
// defined here because bulk/ sits below plan/ and must not link upward.
HostBulkExecutor::HostBulkExecutor(const plan::ExecutionPlan& plan, std::size_t lanes)
    : HostBulkExecutor(plan.layout(lanes), plan.host_options(lanes)) {}

}  // namespace obx::bulk
