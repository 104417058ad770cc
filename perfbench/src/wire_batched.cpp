// wire-batched: small size-flushed batches over loopback, where net, serve
// and the per-batch pool fan-out dominate and the engine does little.
//
// One client thread drives one net::Client connection per program in a
// closed loop.  Each connection keeps four batches' worth of requests
// outstanding (at least two are needed): whenever the client waits on its
// oldest request, that request sits in a batch already flushed on size, so
// the batch window (far longer than a batch takes to fill) never paces the
// loop, and the single executor always has a full batch queued.  A random
// program per request, or fewer outstanding requests, leaves batcher groups
// waiting for the window instead and measures the window.
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>

#include "bulk/core_pool.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace obx;
using namespace std::chrono_literals;

const std::pair<const char*, std::size_t> kPrograms[] = {
    {"prefix-sums", 256}, {"horner", 256}, {"tea", 256}};
constexpr std::size_t kBatchLanes = 64;
constexpr std::size_t kOutstanding = 4 * kBatchLanes;  ///< per connection
constexpr auto kBatchWindow = 20ms;
constexpr std::size_t kInputsPerProgram = 256;
constexpr int kSetups = 5;
constexpr double kWarmupSeconds = 0.5;
/// Throughput and the latency p99 are medians over slices of this length,
/// so a burst of neighbour load moves one slice, not the result.
constexpr double kSliceSeconds = 0.5;
/// The client thread runs a calibration pass this often while measuring.
constexpr auto kPassInterval = 50ms;
/// Frames kept for timing the codec in a traced run.
constexpr std::size_t kCodecFrames = 4096;

serve::ServiceOptions service_options() {
  serve::ServiceOptions options;
  options.batcher.max_batch_lanes = kBatchLanes;
  options.batcher.max_batch_delay = kBatchWindow;
  // One executor: the steadiest shape probed, and jobs/s then reads one
  // batch path's own rate (about max_batch_lanes / batch time).
  options.executors = 1;
  return options;
}

/// One registered program id: an algorithm at one size, with a pool of
/// seeded inputs and their native-reference outputs.
struct WireProgram {
  const algos::Algorithm* algo = nullptr;
  std::string id;  ///< "<algo>/n=<n>"
  std::size_t n = 0;
  std::uint64_t steps = 0;  ///< closed-form memory steps t(n)
  std::vector<std::vector<Word>> inputs;
  std::vector<std::vector<Word>> expected;

  /// Checks one response; flips a bit first when `corrupt` is set (once).
  bool verify(std::size_t input, std::vector<Word>& output, bool& corrupt) const {
    if (corrupt && !output.empty()) {
      output[0] ^= 1;
      corrupt = false;
    }
    return first_mismatch(*algo, output, expected[input]) < 0;
  }
};

std::vector<WireProgram> make_programs(std::uint64_t seed) {
  std::vector<WireProgram> out;
  for (const auto& [name, n] : kPrograms) {
    WireProgram p;
    p.algo = &algos::find(name);
    p.n = n;
    p.id = p.algo->name + "/n=" + std::to_string(n);
    p.steps = p.algo->memory_steps(n);
    Rng rng(stream_seed(seed, "wire-batched/" + p.id));
    for (std::size_t i = 0; i < kInputsPerProgram; ++i) {
      p.inputs.push_back(p.algo->make_input(n, rng));
      p.expected.push_back(p.algo->reference(n, p.inputs.back()));
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// Monotonic service, pool and server counters at one instant.
struct LayerCounters {
  std::uint64_t batches = 0, lanes = 0;
  std::uint64_t flush_size = 0, flush_delay = 0, flush_deadline = 0;
  std::uint64_t queue_delay_count = 0, queue_delay_sum_us = 0;
  std::uint64_t batch_latency_count = 0, batch_latency_sum_us = 0;
  std::uint64_t pool_tasks = 0, pool_steals = 0, pool_parks = 0;
  std::uint64_t would_block = 0;
};

LayerCounters capture(const serve::BulkService& service, const net::Server& server) {
  const serve::Metrics& m = service.metrics();
  const bulk::CorePool::CountersSnapshot pool = bulk::CorePool::instance().counters();
  LayerCounters c;
  c.batches = m.batch_occupancy.count();
  c.lanes = m.batch_occupancy.sum();
  c.flush_size = m.flush_size.load();
  c.flush_delay = m.flush_delay.load();
  c.flush_deadline = m.flush_deadline.load();
  c.queue_delay_count = m.queue_delay_us.count();
  c.queue_delay_sum_us = m.queue_delay_us.sum();
  c.batch_latency_count = m.batch_latency_us.count();
  c.batch_latency_sum_us = m.batch_latency_us.sum();
  c.pool_tasks = pool.tasks;
  c.pool_steals = pool.steals;
  c.pool_parks = pool.parks;
  c.would_block = server.stats().would_block;
  return c;
}

/// serve.*, pool.* and net.would_block per-layer metrics of the interval
/// between two captures.
void add_counter_metrics(const LayerCounters& before, const LayerCounters& after,
                         Outcome& outcome) {
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const std::uint64_t batches = after.batches - before.batches;
  auto& layer = outcome.per_layer;
  layer["serve.lanes_per_batch"] = {ratio(after.lanes - before.lanes, batches), "count"};
  layer["serve.flush_size"] = {static_cast<double>(after.flush_size - before.flush_size), "count"};
  layer["serve.flush_delay"] = {static_cast<double>(after.flush_delay - before.flush_delay),
                                "count"};
  layer["serve.flush_deadline"] = {
      static_cast<double>(after.flush_deadline - before.flush_deadline), "count"};
  layer["serve.queue_delay_us"] = {ratio(after.queue_delay_sum_us - before.queue_delay_sum_us,
                                         after.queue_delay_count - before.queue_delay_count),
                                   "us"};
  layer["serve.batch_latency_us"] = {
      ratio(after.batch_latency_sum_us - before.batch_latency_sum_us,
            after.batch_latency_count - before.batch_latency_count),
      "us"};
  layer["pool.tasks_per_batch"] = {ratio(after.pool_tasks - before.pool_tasks, batches), "count"};
  layer["pool.steals_per_batch"] = {ratio(after.pool_steals - before.pool_steals, batches),
                                    "count"};
  layer["pool.parks_per_batch"] = {ratio(after.pool_parks - before.pool_parks, batches), "count"};
  layer["net.would_block"] = {static_cast<double>(after.would_block - before.would_block),
                              "count"};
}

/// net.encode_ns / net.decode_ns: the frame codec timed over `frames`.
void add_codec_metrics(const std::vector<net::Frame>& frames, Outcome& outcome) {
  if (frames.empty()) return;
  constexpr int kRepeats = 5;
  std::vector<double> encode_ns, decode_ns;
  std::size_t decoded = 0;
  for (int r = 0; r < kRepeats; ++r) {
    std::vector<std::uint8_t> bytes;
    const Clock::time_point start = Clock::now();
    for (const net::Frame& f : frames) net::encode_frame(f, bytes);
    const Clock::time_point encoded = Clock::now();
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    net::Frame out;
    decoded = 0;
    while (reader.next(out) == net::FrameReader::Status::kFrame) ++decoded;
    const Clock::time_point end = Clock::now();
    const double count = static_cast<double>(frames.size());
    encode_ns.push_back(ms_between(start, encoded) * 1e6 / count);
    decode_ns.push_back(ms_between(encoded, end) * 1e6 / count);
  }
  if (decoded != frames.size()) {
    outcome.fail("frame codec decoded " + std::to_string(decoded) + " of " +
                 std::to_string(frames.size()) + " frames it encoded");
  }
  outcome.per_layer["net.encode_ns"] = {median(encode_ns), "ns"};
  outcome.per_layer["net.decode_ns"] = {median(decode_ns), "ns"};
}

/// Stops the server, then the service, and checks both ledgers: every
/// admitted submission was answered or counted dropped, the service
/// resolved everything it accepted, and the server admitted exactly the
/// `client_sent` submissions the client made.
void stop_and_check_ledgers(net::Server& server, serve::BulkService& service,
                            std::uint64_t client_sent, Outcome& outcome) {
  server.stop();
  service.stop();
  const net::ServerStatsSnapshot wire = server.stats();
  if (!wire.exactly_once()) {
    outcome.fail("server ledger: admitted " + std::to_string(wire.submits_admitted) +
                 " != sent " + std::to_string(wire.responses_sent) + " + dropped " +
                 std::to_string(wire.responses_dropped));
  }
  if (wire.submits_admitted != client_sent) {
    outcome.fail("server admitted " + std::to_string(wire.submits_admitted) +
                 " submissions, the client sent " + std::to_string(client_sent));
  }
  const serve::MetricsSnapshot s = service.snapshot();
  if (s.submitted != s.completed + s.rejected + s.shed + s.failed) {
    outcome.fail("service ledger: submitted " + std::to_string(s.submitted) + " != completed " +
                 std::to_string(s.completed) + " + rejected " + std::to_string(s.rejected) +
                 " + shed " + std::to_string(s.shed) + " + failed " +
                 std::to_string(s.failed));
  }
}

/// One cold-started system.  Members are destroyed clients first, then the
/// server, then the service.
struct System {
  std::unique_ptr<serve::BulkService> service;
  std::unique_ptr<net::Server> server;
  std::vector<net::Client> clients;
  std::uint64_t sent = 0;
};

/// Cold set-up: fresh programs and service, server start and connects, one
/// warm-up request per program.  Returns what it cost, output checks
/// included (one response per program).
SetupCost setup(System& sys, const std::vector<WireProgram>& programs, Tracer& tracer,
             bool& corrupt, Outcome& outcome) {
  const std::uint32_t parent = tracer.open(tracer.name_id("setup"));
  const double cpu_start = process_cpu_ms();
  const Clock::time_point start = Clock::now();
  sys.service = std::make_unique<serve::BulkService>(service_options());
  for (const WireProgram& p : programs) {
    trace::Program program = traced(tracer, tracer.name_id("algos.make_program:" + p.id),
                                    parent, [&] { return p.algo->make_program(p.n); });
    traced(tracer, tracer.name_id("serve.register:" + p.id), parent,
           [&] { sys.service->register_program(p.id, std::move(program)); });
  }
  traced(tracer, tracer.name_id("net.start"), parent, [&] {
    sys.server = std::make_unique<net::Server>(*sys.service, net::ServerOptions{});
    for (std::size_t c = 0; c < programs.size(); ++c) {
      sys.clients.emplace_back(sys.server->host(), sys.server->port());
    }
  });
  for (std::size_t c = 0; c < programs.size(); ++c) {
    if (!sys.clients[c].connected()) {
      throw std::runtime_error("connect failed: " + sys.clients[c].error());
    }
    net::Client::Result r = sys.clients[c].submit(programs[c].id, programs[c].inputs[0]);
    ++sys.sent;
    ++outcome.attempted;
    if (!r.ok() || !programs[c].verify(0, r.output, corrupt)) {
      outcome.fail(programs[c].id + ": warm-up response wrong or missing");
    }
  }
  const SetupCost cost{seconds_since(start), process_cpu_ms() - cpu_start};
  tracer.close(parent);
  return cost;
}

struct Pending {
  std::uint32_t id = 0;
  std::uint32_t input = 0;
  Clock::time_point sent{};
};

/// What the measured loop saw in one slice of time.
struct Slice {
  double jobs = 0;
  double steps = 0;
  std::vector<double> latency_ms;
  double cpu_start_ms = -1;        ///< process CPU at the slice's first response
  std::vector<double> passes_ms;   ///< calibration passes run in the slice
};

}  // namespace

Outcome run_wire_batched(const Config& config) {
  Outcome outcome;
  Tracer tracer(config.trace);
  bool corrupt = config.corrupt;
  const std::vector<WireProgram> programs = make_programs(config.seed);

  std::vector<double> setup_ref_s, setup_wall_s;
  System sys;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      sys.clients.clear();
      stop_and_check_ledgers(*sys.server, *sys.service, sys.sent, outcome);
      sys = System{};
    }
    const SetupCost cost = setup(sys, programs, tracer, corrupt, outcome);
    setup_ref_s.push_back(at_reference(cost.cpu_ms, calibration_pass_ms()) / 1e3);
    setup_wall_s.push_back(cost.wall_s);
  }

  // Client ledger of the measured loop: every request sent resolves as
  // exactly one checked response, good or failed.
  const std::uint64_t sent_before_loop = sys.sent;
  std::uint64_t resolved = 0;
  const std::size_t conns = programs.size();
  Rng rng(stream_seed(config.seed, "wire-batched/requests"));
  std::vector<std::deque<Pending>> pending(conns);
  const auto submit = [&](std::size_t c) {
    const auto input = static_cast<std::uint32_t>(rng.next_below(kInputsPerProgram));
    const Clock::time_point now = Clock::now();
    const std::optional<std::uint32_t> id =
        sys.clients[c].submit_async(programs[c].id, programs[c].inputs[input]);
    ++outcome.attempted;
    if (!id) {
      outcome.fail(programs[c].id + ": submit failed: " + sys.clients[c].error());
      return;
    }
    ++sys.sent;
    pending[c].push_back(Pending{*id, input, now});
  };

  const std::size_t slices = std::max<std::size_t>(
      2, static_cast<std::size_t>(config.seconds / kSliceSeconds));
  std::vector<Slice> slice(slices + 1);  // the extra one only marks the end
  std::vector<net::Frame> codec_frames;
  const std::uint32_t request_span = tracer.name_id("client.request");
  LayerCounters before, after;
  Clock::time_point next_pass{};

  for (std::size_t c = 0; c < conns; ++c) {
    for (std::size_t k = 0; k < kOutstanding; ++k) submit(c);
  }
  const Clock::time_point measure_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupSeconds));
  const Clock::time_point measure_end =
      measure_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kSliceSeconds * double(slices)));
  const auto any_pending = [&] {
    for (const auto& q : pending) {
      if (!q.empty()) return true;
    }
    return false;
  };
  bool measuring = false, running = true;
  while (running || any_pending()) {
    for (std::size_t c = 0; c < conns; ++c) {
      if (pending[c].empty()) continue;
      const Pending p = pending[c].front();
      pending[c].pop_front();
      net::Client::Result r = sys.clients[c].wait(p.id);
      const Clock::time_point now = Clock::now();
      const bool ok = r.ok() && programs[c].verify(p.input, r.output, corrupt);
      ++resolved;
      if (!ok) {
        outcome.fail(programs[c].id + ": response " + std::to_string(p.id) + " " +
                     (r.ok() ? "differs from the native reference"
                             : "failed: " + r.transport_error + r.error));
      }
      if (!measuring && running && now >= measure_start) {
        measuring = true;
        before = capture(*sys.service, *sys.server);
        next_pass = now;
      }
      if (measuring && now >= measure_end) {
        measuring = running = false;
        after = capture(*sys.service, *sys.server);
        slice[slices].cpu_start_ms = process_cpu_ms();
      }
      if (measuring) {
        const auto index = static_cast<std::size_t>(
            std::chrono::duration<double>(now - measure_start).count() / kSliceSeconds);
        Slice& sl = slice[index];
        if (sl.cpu_start_ms < 0) sl.cpu_start_ms = process_cpu_ms();
        if (now >= next_pass) {
          sl.passes_ms.push_back(calibration_pass_ms());
          next_pass += kPassInterval;
        }
        if (ok) {
          tracer.set_active(index % 2 == 1);
          tracer.record(request_span, p.sent, now, (std::uint64_t{c} << 32) | p.id);
          sl.jobs += 1;
          sl.steps += static_cast<double>(programs[c].steps);
          sl.latency_ms.push_back(ms_between(p.sent, now));
          if (config.trace && codec_frames.size() < 2 * kCodecFrames) {
            codec_frames.push_back(net::SubmitFrame{.request_id = p.id,
                                                    .program_id = programs[c].id,
                                                    .input = programs[c].inputs[p.input]});
            codec_frames.push_back(net::ResponseFrame{.request_id = p.id,
                                                      .batch_lanes = r.batch_lanes,
                                                      .queue_delay_us = r.queue_delay_us,
                                                      .latency_us = r.latency_us,
                                                      .output = r.output});
          }
        }
      }
      if (running) submit(c);
    }
  }
  tracer.set_active(true);
  for (std::size_t c = 0; c < conns; ++c) {
    if (sys.clients[c].outstanding() != 0) {
      outcome.fail(programs[c].id + ": client still awaits " +
                   std::to_string(sys.clients[c].outstanding()) + " responses");
    }
  }
  if (sys.sent - sent_before_loop != resolved) {
    outcome.fail("client ledger: sent " + std::to_string(sys.sent - sent_before_loop) +
                 " requests, resolved " + std::to_string(resolved));
  }
  stop_and_check_ledgers(*sys.server, *sys.service, sys.sent, outcome);

  // Per slice: process CPU between the slice's first response and the
  // next slice's, less the calibration passes, at reference speed.  A
  // slice without a response or a pass (a stall of a whole slice) has no
  // CPU figure and is left out of that median.
  std::vector<double> ref_msteps_per_cpu_s, jobs_per_s, steps_per_s, p99, passes_ms, plain,
      traced_slices;
  for (std::size_t s = 0; s < slices; ++s) {
    const Slice& sl = slice[s];
    p99.push_back(quantile(sl.latency_ms, 0.99));
    jobs_per_s.push_back(sl.jobs / kSliceSeconds);
    steps_per_s.push_back(sl.steps / kSliceSeconds);
    (s % 2 == 1 ? traced_slices : plain).push_back(jobs_per_s.back());
    passes_ms.insert(passes_ms.end(), sl.passes_ms.begin(), sl.passes_ms.end());
    if (sl.cpu_start_ms < 0 || slice[s + 1].cpu_start_ms < 0 || sl.passes_ms.empty()) continue;
    double cpu_ms = slice[s + 1].cpu_start_ms - sl.cpu_start_ms;
    for (const double pass : sl.passes_ms) cpu_ms -= pass;
    ref_msteps_per_cpu_s.push_back(sl.steps / at_reference(cpu_ms, median(sl.passes_ms)) / 1e3);
  }
  if (ref_msteps_per_cpu_s.empty()) outcome.fail("no slice of the run had a CPU figure");
  std::fprintf(stderr,
               "wire-batched: %zu slices, jobs/s median %.0f min %.0f max %.0f, "
               "calibration pass %.3f ms\n",
               slices, median(jobs_per_s), quantile(jobs_per_s, 0), quantile(jobs_per_s, 1),
               median(passes_ms));

  auto& e2e = outcome.end_to_end;
  e2e["setup_s"] = {median(setup_ref_s), "s"};
  e2e["msteps_per_cpu_s"] = {median(ref_msteps_per_cpu_s), "1e6/s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

  if (config.trace) {
    auto& layer = outcome.per_layer;
    layer["wall.setup_s"] = {median(setup_wall_s), "s"};
    layer["wall.msteps_per_s"] = {median(steps_per_s) / 1e6, "1e6/s"};
    layer["wall.jobs_per_s"] = {median(jobs_per_s), "1/s"};
    layer["calibration.pass_ms"] = {median(passes_ms), "ms"};
    layer["algos.make_program_ms"] = {
        median(tracer.totals_by_parent_ms("algos.make_program:")), "ms"};
    layer["serve.register_ms"] = {median(tracer.totals_by_parent_ms("serve.register:")), "ms"};
    layer["net.start_ms"] = {median(tracer.durations_ms("net.start")), "ms"};
    add_counter_metrics(before, after, outcome);
    add_codec_metrics(codec_frames, outcome);
    layer["client.latency_p99_ms"] = {median(p99), "ms"};
    layer["trace.overhead_pct"] = {
        (median(plain) / median(traced_slices) - 1) * 100, "%"};
    if (!config.trace_out.empty() && !tracer.write(config.trace_out, 200000)) {
      std::fprintf(stderr, "cannot write spans to %s\n", config.trace_out.c_str());
    }
  }
  return outcome;
}

}  // namespace perfbench
