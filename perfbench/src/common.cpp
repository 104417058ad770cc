#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint32_t Tracer::name_id(const std::string& name) {
  const auto [it, inserted] = ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::uint32_t Tracer::record(std::uint32_t name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t trace,
                             std::uint32_t parent) {
  if (!active_) return 0;
  spans_.push_back(Span{name, parent, trace, start, end});
  return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint32_t parent) {
  const Clock::time_point now = Clock::now();
  return record(name, now, now, 0, parent);
}

void Tracer::close(std::uint32_t handle) {
  if (handle != 0) spans_[handle - 1].end = Clock::now();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

std::vector<double> Tracer::totals_by_parent_ms(const std::string& prefix) const {
  std::map<std::uint32_t, double> totals;
  for (const Span& s : spans_) {
    if (names_[s.name].starts_with(prefix)) totals[s.parent] += ms_between(s.start, s.end);
  }
  std::vector<double> out;
  for (const auto& [parent, total] : totals) out.push_back(total);
  return out;
}

bool Tracer::write(const std::string& path, std::size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\":[\n";
  const std::size_t count = std::min(spans_.size(), max_spans);
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u}}%s\n",
                  names_[s.name].c_str(), static_cast<unsigned long long>(s.trace),
                  us(s.start), us(s.end) - us(s.start), i + 1, s.parent,
                  i + 1 < count ? "," : "");
    out << line;
  }
  out << "],\"spans_recorded\":" << spans_.size() << "}\n";
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

long first_mismatch(const obx::algos::Algorithm& algo, std::span<const Word> got,
                    std::span<const Word> expected) {
  if (got.size() != expected.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == expected[i]) continue;
    if (algo.tolerance > 0) {
      const double a = std::bit_cast<double>(got[i]);
      const double b = std::bit_cast<double>(expected[i]);
      if (std::abs(a - b) <= algo.tolerance * std::max(1.0, std::abs(b))) continue;
    }
    return static_cast<long>(i);
  }
  return -1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
double cpu_clock_ms(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) * 1e-6;
}
}  // namespace

double process_cpu_ms() { return cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double calibration_pass_ms() {
  constexpr std::size_t kSlots = 1 << 15;  // 128 KiB
  constexpr int kSteps = 80000;            // about 1 ms on a 2 GHz core
  thread_local std::vector<std::uint32_t> table(kSlots, 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const double start = cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID);
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint32_t& slot = table[(x >> 33) & (kSlots - 1)];
    slot += static_cast<std::uint32_t>(x);
    x ^= slot;
  }
  const double ms = cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID) - start;
  table[0] ^= static_cast<std::uint32_t>(x);  // keeps the chain observable
  return ms;
}

std::uint64_t stream_seed(std::uint64_t seed, const std::string& stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;  // FNV-1a over the name
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
