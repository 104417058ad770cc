// bulk-registry: the paper's regime.  Every algorithm in algos::registry()
// at one paper-scale n, planned once and run round-robin through plan::run
// at the default worker count, every lane checked against the native
// reference.  matmul at n = 104 (about 4.5M steps) exceeds the 4M-step
// compile budget, so the interpreted fallback runs too.  Lane counts keep
// every program under about a quarter of a round, so no single engine path
// dominates the throughput figure.
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bulk/core_pool.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/timing_estimator.hpp"
#include "plan/planner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace obx;

struct Size {
  const char* algo;
  std::size_t n;
  std::size_t lanes;
};

constexpr Size kSizes[] = {
    {"prefix-sums", 1024, 4096},       {"opt-triangulation", 32, 1024},
    {"fft", 1024, 1024},               {"bitonic-sort", 1024, 512},
    {"matmul", 104, 4},                {"edit-distance", 64, 512},
    {"tea", 256, 1024},                {"convolution", 1024, 2048},
    {"floyd-warshall", 32, 512},       {"summed-area", 64, 512},
    {"odd-even-sort", 256, 512},       {"lu", 32, 1024},
    {"horner", 1024, 4096},            {"oblivious-merge", 1024, 512},
    {"oblivious-partition", 256, 256}, {"oblivious-aggregate", 256, 256},
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Floor on measured rounds, so every median has samples on short runs.
constexpr std::size_t kMinRounds = 4;

struct Workload {
  const algos::Algorithm* algo = nullptr;
  std::size_t n = 0;
  std::size_t lanes = 0;
  std::uint64_t steps = 0;     ///< closed-form memory steps t(n), one lane
  std::vector<Word> inputs;    ///< lane-major
  std::vector<Word> expected;  ///< lane-major native-reference outputs
  std::shared_ptr<const plan::ExecutionPlan> plan;
  std::unique_ptr<bulk::HostBulkExecutor> gather;  ///< plan-driven, for gather_outputs
  std::vector<double> call_ms;      ///< run + gather wall time, measured rounds
  std::vector<double> call_ref_ms;  ///< run + gather process CPU at reference speed
  std::uint32_t make_span = 0, build_span = 0, warmup_span = 0, run_span = 0, gather_span = 0;
};

std::vector<Workload> make_workloads(const Config& config, Tracer& tracer) {
  std::vector<Workload> out;
  for (const algos::Algorithm& algo : algos::registry()) {
    const Size* size = nullptr;
    for (const Size& s : kSizes) {
      if (algo.name == s.algo) size = &s;
    }
    if (size == nullptr) {
      throw std::runtime_error("bulk-registry has no size for algorithm " + algo.name);
    }
    Workload w;
    w.algo = &algo;
    w.n = size->n;
    w.lanes = size->lanes;
    w.steps = algo.memory_steps(w.n);
    Rng rng(stream_seed(config.seed, algo.name));
    for (std::size_t lane = 0; lane < w.lanes; ++lane) {
      const std::vector<Word> input = algo.make_input(w.n, rng);
      const std::vector<Word> expected = algo.reference(w.n, input);
      w.inputs.insert(w.inputs.end(), input.begin(), input.end());
      w.expected.insert(w.expected.end(), expected.begin(), expected.end());
    }
    w.make_span = tracer.name_id("algos.make_program:" + algo.name);
    w.build_span = tracer.name_id("plan.build:" + algo.name);
    w.warmup_span = tracer.name_id("bulk.warmup:" + algo.name);
    w.run_span = tracer.name_id("bulk.run:" + algo.name);
    w.gather_span = tracer.name_id("bulk.gather:" + algo.name);
    out.push_back(std::move(w));
  }
  if (out.size() != std::size(kSizes)) {
    throw std::runtime_error("bulk-registry sizes name an algorithm the registry lacks");
  }
  return out;
}

struct CallTime {
  double wall_ms = 0;
  double cpu_ms = 0;  ///< process CPU, every pool worker included
};

/// One bulk call (plan::run + gather_outputs) with every lane checked.
/// Returns the call's wall and CPU time; the check is not timed.  A
/// set-up's warm-up call is traced as one span of its own, apart from the
/// measured calls.
CallTime call(Workload& w, Tracer& tracer, std::uint32_t parent, bool warmup, bool& corrupt,
              Outcome& outcome) {
  const double cpu_start = process_cpu_ms();
  const Clock::time_point start = Clock::now();
  const bulk::HostRunResult result = plan::run(*w.plan, w.inputs, w.lanes);
  const Clock::time_point ran = Clock::now();
  std::vector<Word> outputs;
  w.gather->gather_outputs(w.plan->program(), result.memory, outputs);
  const Clock::time_point end = Clock::now();
  const double cpu_ms = process_cpu_ms() - cpu_start;
  if (warmup) {
    tracer.record(w.warmup_span, start, end, 0, parent);
  } else {
    tracer.record(w.run_span, start, ran, 0, parent);
    tracer.record(w.gather_span, ran, end, 0, parent);
  }

  ++outcome.attempted;
  if (corrupt && !outputs.empty()) {
    outputs[0] ^= 1;
    corrupt = false;
  }
  const std::size_t words = w.plan->output_words();
  if (outputs.size() != w.expected.size()) {
    outcome.fail(w.algo->name + ": gathered " + std::to_string(outputs.size()) +
                 " words, expected " + std::to_string(w.expected.size()));
  } else {
    for (std::size_t lane = 0; lane < w.lanes; ++lane) {
      const std::span<const Word> got(outputs.data() + lane * words, words);
      const std::span<const Word> want(w.expected.data() + lane * words, words);
      const long bad = first_mismatch(*w.algo, got, want);
      if (bad >= 0) {
        outcome.fail(w.algo->name + ": lane " + std::to_string(lane) + " word " +
                     std::to_string(bad) + " differs from the native reference");
        break;
      }
    }
  }
  return {ms_between(start, end), cpu_ms};
}

/// One cold set-up: fresh programs, fresh plans, one warm-up call each.
/// Returns what a user pays before the first result of every program,
/// output checks left out.
SetupCost setup(std::vector<Workload>& workloads, Tracer& tracer, std::uint32_t parent,
                bool& corrupt, Outcome& outcome) {
  SetupCost paid;
  for (Workload& w : workloads) {
    const double cpu_start = process_cpu_ms();
    const Clock::time_point start = Clock::now();
    trace::Program program = traced(tracer, w.make_span, parent,
                                    [&] { return w.algo->make_program(w.n); });
    plan::PlanOptions options;
    options.reference_lanes = w.lanes;
    w.plan = traced(tracer, w.build_span, parent,
                    [&] { return plan::Planner(options).build(std::move(program)); });
    w.gather = std::make_unique<bulk::HostBulkExecutor>(*w.plan, w.lanes);
    paid.wall_s += seconds_since(start);
    paid.cpu_ms += process_cpu_ms() - cpu_start;
    const CallTime warmup = call(w, tracer, parent, true, corrupt, outcome);
    paid.wall_s += warmup.wall_ms / 1e3;
    paid.cpu_ms += warmup.cpu_ms;
  }
  return paid;
}

}  // namespace

Outcome run_bulk_registry(const Config& config) {
  Outcome outcome;
  Tracer tracer(config.trace);
  bool corrupt = config.corrupt;
  std::vector<Workload> workloads = make_workloads(config, tracer);

  const std::uint32_t setup_span = tracer.name_id("setup");
  std::vector<double> setup_ref_s, setup_wall_s, passes_ms;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint32_t parent = tracer.open(setup_span);
    const SetupCost paid = setup(workloads, tracer, parent, corrupt, outcome);
    tracer.close(parent);
    const double pass_ms = calibration_pass_ms();
    passes_ms.push_back(pass_ms);
    setup_ref_s.push_back(at_reference(paid.cpu_ms, pass_ms) / 1e3);
    setup_wall_s.push_back(paid.wall_s);
  }

  // Measured phase: whole rounds until the time is up, a calibration pass
  // after every call.  A traced run alternates untraced and traced rounds;
  // the difference of their medians is the tracing overhead.
  const std::uint32_t round_span = tracer.name_id("round");
  const bulk::CorePool::CountersSnapshot pool_before = bulk::CorePool::instance().counters();
  std::vector<double> plain_round_ms, traced_round_ms;
  std::size_t calls = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0; round < kMinRounds || seconds_since(start) < config.seconds;
       ++round) {
    tracer.set_active(round % 2 == 1);
    const std::uint32_t parent = tracer.open(round_span);
    double round_ms = 0;
    for (Workload& w : workloads) {
      const CallTime t = call(w, tracer, parent, false, corrupt, outcome);
      const double pass_ms = calibration_pass_ms();
      passes_ms.push_back(pass_ms);
      w.call_ms.push_back(t.wall_ms);
      w.call_ref_ms.push_back(at_reference(t.cpu_ms, pass_ms));
      round_ms += t.wall_ms;
      ++calls;
    }
    tracer.close(parent);
    (tracer.active() ? traced_round_ms : plain_round_ms).push_back(round_ms);
  }
  const bulk::CorePool::CountersSnapshot pool_after = bulk::CorePool::instance().counters();
  tracer.set_active(true);

  // Work per round over the sum of each program's median call: CPU time
  // at reference speed for the bounded figure, wall time for the
  // per-layer one.
  double work_steps = 0, median_round_ms = 0, median_round_ref_ms = 0;
  for (const Workload& w : workloads) {
    const double ms = median(w.call_ms);
    const double ref_ms = median(w.call_ref_ms);
    median_round_ms += ms;
    median_round_ref_ms += ref_ms;
    work_steps += static_cast<double>(w.steps) * static_cast<double>(w.lanes);
    std::fprintf(stderr,
                 "bulk-registry %-20s n=%-5zu lanes=%-5zu median %8.3f ms wall, %8.3f ms "
                 "reference CPU\n",
                 w.algo->name.c_str(), w.n, w.lanes, ms, ref_ms);
  }
  std::fprintf(stderr,
               "bulk-registry: %zu rounds, median round %.1f ms wall, %.1f ms reference CPU, "
               "calibration pass %.3f ms\n",
               plain_round_ms.size() + traced_round_ms.size(), median_round_ms,
               median_round_ref_ms, median(passes_ms));

  auto& e2e = outcome.end_to_end;
  e2e["setup_s"] = {median(setup_ref_s), "s"};
  e2e["msteps_per_cpu_s"] = {work_steps / median_round_ref_ms / 1e3, "1e6/s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

  if (config.trace) {
    auto& layer = outcome.per_layer;
    layer["wall.setup_s"] = {median(setup_wall_s), "s"};
    layer["wall.msteps_per_s"] = {work_steps / median_round_ms / 1e3, "1e6/s"};
    layer["calibration.pass_ms"] = {median(passes_ms), "ms"};
    layer["algos.make_program_ms"] = {
        median(tracer.totals_by_parent_ms("algos.make_program:")), "ms"};
    layer["plan.build_ms"] = {median(tracer.totals_by_parent_ms("plan.build:")), "ms"};
    for (const Workload& w : workloads) {
      const std::string& name = w.algo->name;
      const double run_ms = median(tracer.durations_ms("bulk.run:" + name));
      layer["plan.build_ms." + name] = {median(tracer.durations_ms("plan.build:" + name)), "ms"};
      layer["bulk.run_ms." + name] = {run_ms, "ms"};
      layer["bulk.gather_ms." + name] = {median(tracer.durations_ms("bulk.gather:" + name)), "ms"};
      const TimeUnits units = bulk::simulate_units(w.plan->program(), w.plan->layout(w.lanes),
                                                   umm::Model::kUmm, w.plan->options().machine);
      layer["umm.units." + name] = {static_cast<double>(units), "count"};
      layer["umm.ns_per_unit." + name] = {
          units == 0 ? 0 : run_ms * 1e6 / static_cast<double>(units), "ns"};
    }
    const auto per_call = [&](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before) / static_cast<double>(calls);
    };
    layer["pool.tasks_per_batch"] = {per_call(pool_after.tasks, pool_before.tasks), "count"};
    layer["pool.steals_per_batch"] = {per_call(pool_after.steals, pool_before.steals), "count"};
    layer["pool.parks_per_batch"] = {per_call(pool_after.parks, pool_before.parks), "count"};
    const double plain = median(plain_round_ms);
    layer["trace.overhead_pct"] = {(median(traced_round_ms) - plain) / plain * 100, "%"};
    if (!config.trace_out.empty() && !tracer.write(config.trace_out, 200000)) {
      std::fprintf(stderr, "cannot write spans to %s\n", config.trace_out.c_str());
    }
  }
  return outcome;
}

}  // namespace perfbench
