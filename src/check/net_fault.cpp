#include "check/net_fault.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "trace/program.hpp"
#include "trace/step.hpp"

namespace obx::check {

namespace {

using namespace obx::net;

// ---------------------------------------------------------------------------
// Frame fuzz
// ---------------------------------------------------------------------------

std::string random_string(Rng& rng, std::size_t max_len) {
  // Deliberately hostile alphabet: quotes, backslashes, newlines, NULs.
  static const char alphabet[] =
      "abcXYZ019-_./\\\"\n\t\x01\x7f"
      "{}";
  const std::size_t len = rng.next_below(max_len + 1);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
  }
  return s;
}

std::vector<Word> random_words(Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.next_below(max_len + 1);
  std::vector<Word> words;
  words.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    words.push_back(static_cast<Word>(rng.next_u64()));
  }
  return words;
}

Frame random_frame(Rng& rng) {
  switch (rng.next_below(5)) {
    case 0: {
      SubmitFrame f;
      f.request_id = static_cast<std::uint32_t>(rng.next_u64());
      f.program_id = random_string(rng, 32);
      f.tenant = random_string(rng, 32);
      f.priority = static_cast<serve::Priority>(
          rng.next_below(serve::kPriorityCount));
      f.deadline_us = rng.next_below(2) == 0
                          ? -1
                          : static_cast<std::int64_t>(rng.next_below(1 << 20));
      f.input = random_words(rng, 64);
      return f;
    }
    case 1: {
      ResponseFrame f;
      f.request_id = static_cast<std::uint32_t>(rng.next_u64());
      f.status = static_cast<serve::JobStatus>(rng.next_below(4));
      f.deadline_missed = rng.next_below(2) == 1;
      f.batch_lanes = static_cast<std::uint32_t>(rng.next_below(1 << 16));
      f.queue_delay_us = rng.next_below(1 << 30);
      f.latency_us = rng.next_below(1 << 30);
      f.output = random_words(rng, 64);
      return f;
    }
    case 2: {
      ErrorFrame f;
      f.request_id = static_cast<std::uint32_t>(rng.next_u64());
      f.code = static_cast<ErrorCode>(1 + rng.next_below(6));
      f.message = random_string(rng, 64);
      return f;
    }
    case 3: {
      StatsRequestFrame f;
      f.request_id = static_cast<std::uint32_t>(rng.next_u64());
      return f;
    }
    default: {
      StatsResponseFrame f;
      f.request_id = static_cast<std::uint32_t>(rng.next_u64());
      f.text = random_string(rng, 256);
      return f;
    }
  }
}

bool frames_equal(const Frame& a, const Frame& b) {
  if (a.index() != b.index()) return false;
  if (const auto* x = std::get_if<SubmitFrame>(&a)) {
    const auto& y = std::get<SubmitFrame>(b);
    return x->request_id == y.request_id && x->program_id == y.program_id &&
           x->tenant == y.tenant && x->priority == y.priority &&
           x->deadline_us == y.deadline_us && x->input == y.input;
  }
  if (const auto* x = std::get_if<ResponseFrame>(&a)) {
    const auto& y = std::get<ResponseFrame>(b);
    return x->request_id == y.request_id && x->status == y.status &&
           x->deadline_missed == y.deadline_missed &&
           x->batch_lanes == y.batch_lanes &&
           x->queue_delay_us == y.queue_delay_us &&
           x->latency_us == y.latency_us && x->output == y.output;
  }
  if (const auto* x = std::get_if<ErrorFrame>(&a)) {
    const auto& y = std::get<ErrorFrame>(b);
    return x->request_id == y.request_id && x->code == y.code &&
           x->message == y.message;
  }
  if (const auto* x = std::get_if<StatsRequestFrame>(&a)) {
    return x->request_id == std::get<StatsRequestFrame>(b).request_id;
  }
  const auto& x = std::get<StatsResponseFrame>(a);
  const auto& y = std::get<StatsResponseFrame>(b);
  return x.request_id == y.request_id && x.text == y.text;
}

/// Feeds `bytes` to a fresh reader in random-sized chunks and pops at most
/// one frame; returns the reader's verdict.
FrameReader::Status chunked_decode(Rng& rng,
                                   const std::vector<std::uint8_t>& bytes,
                                   Frame& out) {
  FrameReader reader;
  std::size_t fed = 0;
  FrameReader::Status status = FrameReader::Status::kNeedMore;
  while (fed < bytes.size()) {
    const std::size_t chunk =
        1 + rng.next_below(std::min<std::size_t>(bytes.size() - fed, 37));
    reader.feed(bytes.data() + fed, chunk);
    fed += chunk;
    status = reader.next(out);
    if (status != FrameReader::Status::kNeedMore) return status;
  }
  return status;
}

}  // namespace

std::string FrameFuzzReport::summary() const {
  std::ostringstream os;
  os << "frame-fuzz: roundtrips=" << roundtrips << " mutations=" << mutations
     << " (decoded=" << mutations_decoded
     << " rejected=" << mutations_rejected << ")"
     << " violations=" << violations.size()
     << (ok() ? " [OK]" : " [FAILED]");
  for (const std::string& v : violations) os << "\n  " << v;
  return os.str();
}

FrameFuzzReport run_frame_fuzz(const FrameFuzzOptions& options) {
  Rng rng(options.seed);
  FrameFuzzReport report;

  // Leg 1: encode/decode round trips under arbitrary chunking.
  for (std::size_t i = 0; i < options.roundtrips; ++i) {
    const Frame original = random_frame(rng);
    const std::vector<std::uint8_t> bytes = encode(original);
    Frame decoded;
    const FrameReader::Status status = chunked_decode(rng, bytes, decoded);
    ++report.roundtrips;
    if (status != FrameReader::Status::kFrame) {
      report.violations.push_back(
          "roundtrip " + std::to_string(i) + ": valid frame did not decode");
      continue;
    }
    if (!frames_equal(original, decoded)) {
      report.violations.push_back(
          "roundtrip " + std::to_string(i) + ": decode != original");
    }
  }

  // Leg 2: directed malformations.  Each must be rejected (or, for byte
  // flips that happen to land harmlessly, still decode) without crashing.
  for (std::size_t i = 0; i < options.mutations; ++i) {
    const Frame frame = random_frame(rng);
    std::vector<std::uint8_t> bytes = encode(frame);
    const std::size_t mutation = rng.next_below(9);
    bool must_reject = false;
    // Word-block frames: where the payload's u32 word count sits, and how
    // many payload bytes the words occupy.
    std::size_t count_at = 0;
    std::size_t word_bytes = 0;
    if (const auto* s = std::get_if<SubmitFrame>(&frame)) {
      count_at = kFrameHeaderBytes + 16;
      word_bytes = 8 * s->input.size();
    } else if (const auto* r = std::get_if<ResponseFrame>(&frame)) {
      count_at = kFrameHeaderBytes + 24;
      word_bytes = 8 * r->output.size();
    }
    bool truncated = false;
    switch (mutation) {
      case 0:  // truncated header
        bytes.resize(rng.next_below(kFrameHeaderBytes));
        truncated = true;
        break;
      case 1:  // torn payload: header promises more than arrives
        if (bytes.size() > kFrameHeaderBytes) {
          bytes.resize(kFrameHeaderBytes +
                       rng.next_below(bytes.size() - kFrameHeaderBytes));
        }
        truncated = true;
        break;
      case 2: {  // oversized length field
        const std::uint32_t huge =
            static_cast<std::uint32_t>(kMaxFramePayloadBytes) + 1 +
            static_cast<std::uint32_t>(rng.next_below(1 << 16));
        bytes[8] = static_cast<std::uint8_t>(huge & 0xff);
        bytes[9] = static_cast<std::uint8_t>((huge >> 8) & 0xff);
        bytes[10] = static_cast<std::uint8_t>((huge >> 16) & 0xff);
        bytes[11] = static_cast<std::uint8_t>((huge >> 24) & 0xff);
        must_reject = true;
        break;
      }
      case 3:  // bad magic
        bytes[rng.next_below(4)] ^= 0xff;
        must_reject = true;
        break;
      case 4:  // bad version
        bytes[4] = static_cast<std::uint8_t>(2 + rng.next_below(250));
        must_reject = true;
        break;
      case 5:  // bad type
        bytes[5] = static_cast<std::uint8_t>(6 + rng.next_below(200));
        must_reject = true;
        break;
      case 6:  // hostile word count: near UINT32_MAX, or count * 8 wraps
        if (count_at != 0) {
          const std::uint32_t hostile[] = {0xffffffffu, 0xfffffffeu, 0x80000000u,
                                           0x20000000u, 0x20000001u};
          const std::uint32_t count = hostile[rng.next_below(std::size(hostile))];
          for (std::size_t b = 0; b < 4; ++b) {
            bytes[count_at + b] = static_cast<std::uint8_t>(count >> (8 * b));
          }
          must_reject = true;
        }
        break;
      case 7:  // payload cut mid-word, header length patched to match
        if (word_bytes != 0) {
          bytes.resize(bytes.size() - 1 - rng.next_below(7));
          const auto length = static_cast<std::uint32_t>(bytes.size() - kFrameHeaderBytes);
          for (std::size_t b = 0; b < 4; ++b) {
            bytes[8 + b] = static_cast<std::uint8_t>(length >> (8 * b));
          }
          must_reject = true;
        }
        break;
      default:  // random byte flip anywhere (may stay valid)
        if (!bytes.empty()) {
          bytes[rng.next_below(bytes.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        break;
    }
    ++report.mutations;
    Frame decoded;
    const FrameReader::Status status = chunked_decode(rng, bytes, decoded);
    if (status == FrameReader::Status::kFrame) ++report.mutations_decoded;
    if (status == FrameReader::Status::kError) ++report.mutations_rejected;
    if (must_reject && status != FrameReader::Status::kError) {
      report.violations.push_back("mutation " + std::to_string(i) + " (kind " +
                                  std::to_string(mutation) +
                                  "): malformed frame was not rejected");
    }
    if (truncated && status == FrameReader::Status::kError) {
      // A pure truncation of a valid frame must read as "need more", not a
      // protocol error — it is indistinguishable from a slow sender.
      report.violations.push_back("mutation " + std::to_string(i) +
                                  ": truncation misreported as error");
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Network fault campaign
// ---------------------------------------------------------------------------

namespace {

/// Same probe the in-process campaign serves: out[0] = in[0] + in[1],
/// out[1] = in[0] ^ in[1] — cheap, and trivially verifiable client-side.
trace::Program net_probe_program() {
  using trace::Op;
  using trace::Step;
  std::vector<Step> steps = {
      Step::load(0, 0),
      Step::load(1, 1),
      Step::alu(Op::kAddI, 2, 0, 1),
      Step::store(2, 2),
      Step::alu(Op::kXor, 3, 0, 1),
      Step::store(3, 3),
  };
  return trace::make_replay_program("net-probe", 4, 2, 2, 2, 4,
                                    std::move(steps));
}

/// A well-behaved tenant client: submits, waits, verifies outputs.
void good_client(const std::string& host, std::uint16_t port,
                 const std::string& tenant, serve::Priority priority,
                 std::size_t jobs, std::uint64_t seed,
                 NetCampaignReport& report, std::mutex& report_mutex) {
  Rng rng(seed);
  Client client(host, port);
  std::size_t submits = 0, completed = 0, rejected = 0, shed = 0, failed = 0,
              transport = 0, mismatches = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    const Word a = static_cast<Word>(rng.next_u64());
    const Word b = static_cast<Word>(rng.next_u64());
    ++submits;
    const Client::Result r =
        client.submit("net-probe", {a, b}, tenant, priority);
    if (!r.transport_error.empty()) {
      ++transport;
      continue;
    }
    if (r.error_code) {
      ++failed;
      continue;
    }
    switch (r.status) {
      case serve::JobStatus::kCompleted:
        ++completed;
        if (r.output != std::vector<Word>{a + b, a ^ b}) ++mismatches;
        break;
      case serve::JobStatus::kRejected: ++rejected; break;
      case serve::JobStatus::kShed: ++shed; break;
      case serve::JobStatus::kFailed: ++failed; break;
    }
  }
  std::lock_guard<std::mutex> lock(report_mutex);
  report.client_submits += submits;
  report.client_completed += completed;
  report.client_rejected += rejected;
  report.client_shed += shed;
  report.client_failed += failed;
  report.client_transport_errors += transport;
  report.output_mismatches += mismatches;
}

/// Submits a burst of work and vanishes without reading a single response:
/// every admitted job must surface as responses_dropped (or sent into the
/// doomed socket), never as a leak.
void dropper(const std::string& host, std::uint16_t port, std::uint64_t seed) {
  Rng rng(seed);
  Client client(host, port);
  for (std::size_t i = 0; i < 8; ++i) {
    client.submit_async("net-probe",
                        {static_cast<Word>(rng.next_u64()),
                         static_cast<Word>(rng.next_u64())},
                        "dropper");
  }
  client.close();  // mid-request: responses are in flight
}

/// Writes a torn frame (valid header, missing payload) or plain garbage,
/// then closes.  The server must count a protocol error or just an EOF —
/// and admit nothing.
void tearer(const std::string& host, std::uint16_t port, std::uint64_t seed) {
  Rng rng(seed);
  std::string error;
  // Connection 1: a valid submit torn three bytes into the payload, then an
  // abrupt close.  Not a decode error — the server just reaps the socket.
  {
    Socket s = Socket::connect(host, port, &error);
    if (s.valid()) {
      SubmitFrame submit;
      submit.request_id = 7;
      submit.program_id = "net-probe";
      submit.input = {1, 2};
      std::vector<std::uint8_t> bytes = encode(Frame{std::move(submit)});
      const std::size_t cut = kFrameHeaderBytes + 3;
      std::size_t sent = 0;
      while (sent < cut) {
        const IoResult r = s.write_some(bytes.data() + sent, cut - sent);
        if (r.kind != IoResult::Kind::kOk) break;
        sent += r.bytes;
      }
    }
  }
  // Connection 2: random garbage — a bad magic the decoder must poison.
  {
    Socket s = Socket::connect(host, port, &error);
    if (s.valid()) {
      std::vector<std::uint8_t> garbage(64);
      for (std::uint8_t& b : garbage) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      }
      std::size_t sent = 0;
      while (sent < garbage.size()) {
        const IoResult r =
            s.write_some(garbage.data() + sent, garbage.size() - sent);
        if (r.kind != IoResult::Kind::kOk) break;
        sent += r.bytes;
      }
    }
  }
}

/// Trickles a few header bytes and then goes silent, never completing a
/// 16-byte header (a full header of repeated magic bytes would trip the
/// protocol-error path instead).  The server must cut the connection on the
/// idle timeout.
void slow_loris(const std::string& host, std::uint16_t port,
                std::chrono::milliseconds hold) {
  std::string error;
  Socket s = Socket::connect(host, port, &error);
  if (!s.valid()) return;
  const std::uint8_t magic0 = 0x46;  // first byte of a valid magic
  const auto deadline = std::chrono::steady_clock::now() + hold;
  std::size_t sent = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (sent + 1 < kFrameHeaderBytes) {
      (void)s.write_some(&magic0, 1);
      ++sent;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

std::string NetCampaignReport::summary() const {
  std::ostringstream os;
  os << "net-fault-campaign: submits=" << client_submits
     << " completed=" << client_completed << " rejected=" << client_rejected
     << " shed=" << client_shed << " failed=" << client_failed
     << " transport=" << client_transport_errors
     << " mismatches=" << output_mismatches
     << "\n  server: admitted=" << server.submits_admitted
     << " sent=" << server.responses_sent
     << " dropped=" << server.responses_dropped
     << " protocol-errors=" << server.protocol_errors
     << " idle-timeouts=" << server.idle_timeouts
     << (ok() ? "\n  [OK]" : "\n  [FAILED]");
  for (const std::string& v : violations) os << "\n  " << v;
  return os.str();
}

NetCampaignReport run_net_fault_campaign(const NetCampaignOptions& options) {
  NetCampaignReport report;
  std::mutex report_mutex;

  serve::ServiceOptions service_options;
  service_options.queue_capacity = options.queue_capacity;
  service_options.policy = options.policy;
  service_options.batcher.max_batch_lanes = 16;
  service_options.batcher.max_batch_delay = std::chrono::microseconds(200);
  service_options.executors = 2;
  service_options.before_execute = options.plan.hook();
  // The storm tenant gets a bucket it will overrun immediately.
  service_options.tenant_quotas["storm"] =
      serve::TenantQuota{/*rate_hz=*/5.0, /*burst=*/2};

  serve::BulkService service(service_options);
  service.register_program("net-probe", net_probe_program());

  ServerOptions server_options;
  server_options.idle_timeout = std::chrono::milliseconds(300);
  server_options.write_stall_timeout = std::chrono::milliseconds(2000);
  server_options.drain_timeout = std::chrono::milliseconds(10000);
  net::Server server(service, server_options);
  const std::string host = server.host();
  const std::uint16_t port = server.port();

  {
    std::vector<std::thread> threads;
    static const serve::Priority kPriorities[] = {
        serve::Priority::kHigh, serve::Priority::kNormal,
        serve::Priority::kLow};
    for (std::size_t t = 0; t < options.tenants; ++t) {
      threads.emplace_back([&, t] {
        good_client(host, port, "tenant-" + std::to_string(t),
                    kPriorities[t % 3], options.jobs_per_client,
                    options.seed * 101 + t, report, report_mutex);
      });
    }
    // The quota storm is a well-behaved client too — its rejections must be
    // clean kRejected responses, never hangs or drops.
    threads.emplace_back([&] {
      good_client(host, port, "storm", serve::Priority::kNormal,
                  options.storm_jobs, options.seed * 977, report,
                  report_mutex);
    });
    for (std::size_t a = 0; a < options.abusers; ++a) {
      threads.emplace_back(
          [&, a] { dropper(host, port, options.seed * 313 + a); });
      threads.emplace_back(
          [&, a] { tearer(host, port, options.seed * 419 + a); });
    }
    threads.emplace_back([&] {
      slow_loris(host, port, std::chrono::milliseconds(700));
    });
    for (std::thread& t : threads) t.join();
  }

  server.stop();   // drains in-flight responses (service still running)
  service.stop();  // resolves everything still queued
  report.server = server.stats();
  report.metrics = service.snapshot();

  // --- audits ---------------------------------------------------------------
  if (!report.server.exactly_once()) {
    report.violations.push_back(
        "server ledger: admitted=" +
        std::to_string(report.server.submits_admitted) +
        " != sent+dropped=" +
        std::to_string(report.server.responses_sent +
                       report.server.responses_dropped));
  }
  const std::size_t client_resolved =
      report.client_completed + report.client_rejected + report.client_shed +
      report.client_failed + report.client_transport_errors;
  if (client_resolved != report.client_submits) {
    report.violations.push_back(
        "client ledger: " + std::to_string(report.client_submits) +
        " submits, " + std::to_string(client_resolved) + " results");
  }
  if (report.output_mismatches != 0) {
    report.violations.push_back(std::to_string(report.output_mismatches) +
                                " completed outputs diverged from the probe");
  }
  const auto& m = report.metrics;
  if (m.submitted != m.completed + m.rejected + m.shed + m.failed) {
    report.violations.push_back("service ledger: submitted=" +
                                std::to_string(m.submitted) +
                                " != terminal outcomes");
  }
  if (report.server.idle_timeouts == 0) {
    report.violations.push_back(
        "slow-loris connection was never idle-timed-out");
  }
  if (options.storm_jobs > 10) {
    bool storm_throttled = false;
    for (const serve::TenantSnapshot& t : m.tenants) {
      if (t.tenant == "storm" && t.throttled > 0) storm_throttled = true;
    }
    if (!storm_throttled) {
      report.violations.push_back(
          "quota storm tenant was never throttled (token bucket inert)");
    }
  }
  return report;
}

}  // namespace obx::check
