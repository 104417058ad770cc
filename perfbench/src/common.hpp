// Shared pieces of the benchmark: run configuration, the outcome every
// workload fills in, in-memory span tracing, order statistics, output
// checks and process measurements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "algos/algorithm.hpp"
#include "common/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using obx::Word;

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Flip one bit of the first output the run checks: the self-test that
  /// shows a wrong output is caught and fails the run.
  bool corrupt = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): operation counts, both metric
/// families and the reasons for any failed operation.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> errors;

  void fail(std::string why, std::uint64_t operations = 1) {
    failed += operations;
    if (errors.size() < 16) errors.push_back(std::move(why));
  }
};

double seconds_since(Clock::time_point start);
double ms_between(Clock::time_point a, Clock::time_point b);

/// One traced interval.  Spans of one request share `trace`; `parent` is the
/// index + 1 of the enclosing span (0 = root).
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
  std::uint64_t trace = 0;
  Clock::time_point start{};
  Clock::time_point end{};
};

/// Spans kept in memory while the run measures and written out when it
/// ends.  Disabled tracers record nothing; `active` lets a traced run
/// alternate traced and untraced slices so the overhead is measured in the
/// same process under the same load.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), active_(enabled) {}

  bool active() const { return active_; }
  void set_active(bool on) { active_ = enabled_ && on; }

  /// Interned id of a span name.
  std::uint32_t name_id(const std::string& name);

  /// Records a finished span; returns its parent handle (index + 1), or 0
  /// when inactive.
  std::uint32_t record(std::uint32_t name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t trace = 0, std::uint32_t parent = 0);

  /// Opens a span whose end is filled in by close(); for parents that must
  /// exist before their children are recorded.
  std::uint32_t open(std::uint32_t name, std::uint32_t parent = 0);
  void close(std::uint32_t handle);

  /// Durations in milliseconds of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Summed durations in milliseconds of the spans whose names start with
  /// `prefix`, one total per parent span (e.g. per set-up).
  std::vector<double> totals_by_parent_ms(const std::string& prefix) const;

  /// Writes the spans as Chrome trace-event JSON (at most max_spans of
  /// them); returns false when the file cannot be written.
  bool write(const std::string& path, std::size_t max_spans) const;

 private:
  bool enabled_;
  bool active_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

/// Times `body` into a span when the tracer is active.
template <typename Body>
auto traced(Tracer& tracer, std::uint32_t name, std::uint32_t parent, Body&& body) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(body())>) {
    body();
    tracer.record(name, start, Clock::now(), 0, parent);
  } else {
    auto result = body();
    tracer.record(name, start, Clock::now(), 0, parent);
    return result;
  }
}

/// q-quantile by linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Compares one output region against its reference under the algorithm's
/// tolerance (0 = bit exact; otherwise relative, on the values as doubles).
/// Returns the index of the first mismatching word, or -1.
long first_mismatch(const obx::algos::Algorithm& algo, std::span<const Word> got,
                    std::span<const Word> expected);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// CPU time of this process, all threads, user plus system, in
/// milliseconds.  The kernel leaves out time the hypervisor stole from this
/// guest, so a busy host does not inflate it the way it inflates wall time.
double process_cpu_ms();

/// Thread-CPU milliseconds of one pass of a fixed kernel owned by the
/// benchmark: a dependent chain of multiply-adds through an L2-resident
/// table.  Its reading follows the host's clock rate and contention, which
/// move CPU times too; see at_reference().
double calibration_pass_ms();

/// What one cold set-up cost a user.
struct SetupCost {
  double wall_s = 0;
  double cpu_ms = 0;  ///< process CPU, every thread included
};

/// CPU milliseconds one calibration pass takes on the reference machine.
constexpr double kReferencePassMs = 1.0;

/// Scales `cpu_ms`, measured while a calibration pass took `pass_ms`, to
/// the reference machine.  Every bounded CPU figure goes through this, so
/// runs on a host whose speed drifts over minutes compare.
inline double at_reference(double cpu_ms, double pass_ms) {
  return cpu_ms / pass_ms * kReferencePassMs;
}

/// Seeded generator for one named stream of a run, so adding a stream does
/// not shift the inputs of another.
std::uint64_t stream_seed(std::uint64_t seed, const std::string& stream);

}  // namespace perfbench
