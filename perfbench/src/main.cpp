// obx_perfbench: one run of one workload.
//
//   obx_perfbench --workload <bulk-registry|wire-batched> --seed N
//                 --seconds S --trace <0|1> [--trace-out FILE] [--corrupt 1]
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones; a
// per-layer metric of a layer the workload does not call reads 0.  Every
// workload reports every end-to-end metric.  Exits 1 when any output or
// ledger check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "algos/algorithm.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const char* const kEndToEnd[] = {"setup_s", "msteps_per_cpu_s", "peak_rss_mb"};

/// Every per-layer metric with its unit, in BENCHMARK.json order.
std::vector<std::pair<std::string, std::string>> per_layer_catalogue() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"wall.setup_s", "s"},            {"wall.msteps_per_s", "1e6/s"},
      {"wall.jobs_per_s", "1/s"},       {"calibration.pass_ms", "ms"},
      {"algos.make_program_ms", "ms"},  {"plan.build_ms", "ms"},
      {"serve.register_ms", "ms"},      {"net.start_ms", "ms"},
      {"serve.lanes_per_batch", "count"}, {"serve.flush_size", "count"},
      {"serve.flush_delay", "count"},   {"serve.flush_deadline", "count"},
      {"serve.queue_delay_us", "us"},   {"serve.batch_latency_us", "us"},
      {"pool.tasks_per_batch", "count"}, {"pool.steals_per_batch", "count"},
      {"pool.parks_per_batch", "count"}, {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},          {"net.would_block", "count"},
      {"client.latency_p99_ms", "ms"},  {"trace.overhead_pct", "%"},
  };
  for (const obx::algos::Algorithm& algo : obx::algos::registry()) {
    out.emplace_back("plan.build_ms." + algo.name, "ms");
    out.emplace_back("bulk.run_ms." + algo.name, "ms");
    out.emplace_back("bulk.gather_ms." + algo.name, "ms");
    out.emplace_back("umm.units." + algo.name, "count");
    out.emplace_back("umm.ns_per_unit." + algo.name, "ns");
  }
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "obx_perfbench: %s\nusage: obx_perfbench --workload "
               "<bulk-registry|wire-batched> --seed N --seconds S "
               "--trace <0|1> [--trace-out FILE] [--corrupt 1]\n",
               why.c_str());
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        config.trace_out = value;
      } else if (flag == "--corrupt") {
        config.corrupt = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(config.seconds > 0 && config.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return config;
}

void print_metric(const std::string& name, const Metric& m, bool first) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
              name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = parse(argc, argv);
  Outcome outcome;
  try {
    if (config.workload == "bulk-registry") {
      outcome = run_bulk_registry(config);
    } else if (config.workload == "wire-batched") {
      outcome = run_wire_batched(config);
    } else {
      usage("unknown workload '" + config.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obx_perfbench: %s\n", e.what());
    return 1;
  }

  std::map<std::string, Metric> metrics;
  if (config.trace) {
    for (const auto& [name, unit] : per_layer_catalogue()) {
      const auto it = outcome.per_layer.find(name);
      metrics[name] = Metric{it != outcome.per_layer.end() ? it->second.value : 0, unit};
    }
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = outcome.end_to_end.find(name);
      if (it == outcome.end_to_end.end()) {
        std::fprintf(stderr, "obx_perfbench: workload reported no %s\n", name);
        return 1;
      }
      metrics[name] = it->second;
    }
  }
  for (auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) outcome.fail(name + " is not finite");
  }
  for (const std::string& e : outcome.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    print_metric(name, Metric{std::isfinite(m.value) ? m.value : 0, m.unit}, first);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
