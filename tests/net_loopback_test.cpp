// End-to-end loopback: net::Client ↔ net::Server ↔ serve::BulkService.
// Multi-tenant, mixed priorities, outputs bit-identical to direct run_bulk,
// exactly-once resolution even when the server closes mid-stream.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "serve/service.hpp"

namespace {

using namespace obx;
using namespace std::chrono_literals;

struct LoopbackProgram {
  std::string id;
  const algos::Algorithm* algo;
  std::size_t n;
  trace::Program program;
};

std::vector<LoopbackProgram> loopback_programs() {
  std::vector<LoopbackProgram> programs;
  for (const auto& [name, n] :
       std::initializer_list<std::pair<const char*, std::size_t>>{
           {"prefix-sums", 16}, {"horner", 12}}) {
    const algos::Algorithm& algo = algos::find(name);
    programs.push_back(LoopbackProgram{
        .id = name, .algo = &algo, .n = n, .program = algo.make_program(n)});
  }
  return programs;
}

serve::ServiceOptions loopback_service_options() {
  serve::ServiceOptions options;
  options.queue_capacity = 256;
  options.batcher.max_batch_lanes = 32;
  options.batcher.max_batch_delay = 300us;
  options.executors = 2;
  return options;
}

TEST(NetLoopback, MultiTenantMixedPrioritiesBitIdentical) {
  const std::vector<LoopbackProgram> programs = loopback_programs();
  serve::BulkService service(loopback_service_options());
  for (const auto& p : programs) {
    service.register_program(p.id, p.algo->make_program(p.n));
  }
  net::Server server(service, net::ServerOptions{});

  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kJobsPerTenant = 40;
  static const serve::Priority kPriorities[] = {
      serve::Priority::kHigh, serve::Priority::kNormal, serve::Priority::kLow,
      serve::Priority::kNormal};

  std::vector<std::thread> threads;
  std::vector<std::size_t> completed(kTenants, 0);
  std::vector<std::size_t> mismatches(kTenants, 0);
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      net::Client client(server.host(), server.port());
      ASSERT_TRUE(client.connected()) << client.error();
      for (std::size_t i = 0; i < kJobsPerTenant; ++i) {
        const LoopbackProgram& p = programs[rng.next_below(programs.size())];
        std::vector<Word> input = p.algo->make_input(p.n, rng);
        const net::Client::Result r =
            client.submit(p.id, input, "tenant-" + std::to_string(t),
                          kPriorities[t]);
        ASSERT_TRUE(r.ok()) << r.transport_error << " " << r.error;
        const bulk::BulkOutputs direct = bulk::run_bulk(p.program, input, 1);
        if (r.output != direct.flat) {
          ++mismatches[t];
        } else {
          ++completed[t];
        }
        EXPECT_GE(r.batch_lanes, 1u);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::size_t total_completed = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "tenant " << t << " outputs diverged";
    total_completed += completed[t];
  }
  EXPECT_EQ(total_completed, kTenants * kJobsPerTenant);

  // Every tenant shows up in the scraped metrics with its own counters.
  const std::string scrape = server.scrape_metrics();
  for (std::size_t t = 0; t < kTenants; ++t) {
    const std::string label = "tenant=\"tenant-" + std::to_string(t) + "\"";
    EXPECT_NE(scrape.find(label), std::string::npos)
        << "tenant " << t << " missing from scrape";
  }
  EXPECT_NE(scrape.find("obx_net_responses_sent_total"), std::string::npos);

  const net::ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.submits_admitted, kTenants * kJobsPerTenant);
  EXPECT_TRUE(stats.exactly_once());

  server.stop();
  service.stop();
}

TEST(NetLoopback, PipelinedOutOfOrderResponses) {
  const std::vector<LoopbackProgram> programs = loopback_programs();
  serve::BulkService service(loopback_service_options());
  for (const auto& p : programs) {
    service.register_program(p.id, p.algo->make_program(p.n));
  }
  net::Server server(service, net::ServerOptions{});

  Rng rng(7);
  net::Client client(server.host(), server.port());
  ASSERT_TRUE(client.connected());

  // Pipeline a window of requests alternating across programs (different
  // programs batch separately, so responses interleave), then wait for them
  // in reverse submission order.
  struct Pending {
    std::uint32_t id;
    std::vector<Word> expect;
  };
  std::vector<Pending> window;
  for (std::size_t i = 0; i < 24; ++i) {
    const LoopbackProgram& p = programs[i % programs.size()];
    std::vector<Word> input = p.algo->make_input(p.n, rng);
    const bulk::BulkOutputs direct = bulk::run_bulk(p.program, input, 1);
    const auto id = client.submit_async(p.id, std::move(input));
    ASSERT_TRUE(id.has_value());
    window.push_back(Pending{*id, direct.flat});
  }
  for (auto it = window.rbegin(); it != window.rend(); ++it) {
    const net::Client::Result r = client.wait(it->id);
    ASSERT_TRUE(r.ok()) << r.transport_error << " " << r.error;
    EXPECT_EQ(r.output, it->expect);
  }
  EXPECT_EQ(client.outstanding(), 0u);

  server.stop();
  service.stop();
}

// One batch of large responses is written to its connection in one loop
// pass (8 x 32 KiB here).  Once the connection has nothing in flight, its
// write buffer must give that burst's capacity back instead of keeping the
// high-water mark for as long as the client stays connected.
TEST(NetLoopback, IdleConnectionReleasesItsBurstWriteBuffer) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  constexpr std::size_t kN = 4096;  // 32 KiB of output words per response
  constexpr std::size_t kLanes = 8;
  serve::ServiceOptions options;
  options.batcher.max_batch_lanes = kLanes;
  options.batcher.max_batch_delay = 10s;  // flush on size: one 8-lane batch
  options.executors = 1;
  serve::BulkService service(options);
  service.register_program("ps", algo.make_program(kN));
  net::Server server(service, net::ServerOptions{});

  Rng rng(17);
  net::Client client(server.host(), server.port());
  ASSERT_TRUE(client.connected());
  std::vector<std::uint32_t> ids;
  std::vector<std::vector<Word>> expected;
  for (std::size_t i = 0; i < kLanes; ++i) {
    std::vector<Word> input = algo.make_input(kN, rng);
    expected.push_back(algo.reference(kN, input));
    const auto id = client.submit_async("ps", std::move(input));
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  for (std::size_t i = 0; i < kLanes; ++i) {
    const net::Client::Result r = client.wait(ids[i]);
    ASSERT_TRUE(r.ok()) << r.transport_error << " " << r.error;
    EXPECT_EQ(r.batch_lanes, kLanes);
    EXPECT_EQ(r.output, expected[i]);
  }

  // The last bytes reach the client just before the loop releases the
  // buffer; give the loop a moment, with the connection still open.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server.stats().write_buffer_bytes > net::kReadChunkBytes &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const net::ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.connections_active, 1u);
  EXPECT_LE(stats.write_buffer_bytes, net::kReadChunkBytes);
  EXPECT_NE(server.scrape_metrics().find("obx_net_write_buffer_bytes"), std::string::npos);

  server.stop();
  service.stop();
  EXPECT_EQ(server.stats().write_buffer_bytes, 0u) << "closed connections hold no buffer";
}

TEST(NetLoopback, UnknownProgramAndBadInputGetErrorFrames) {
  serve::BulkService service(loopback_service_options());
  const std::vector<LoopbackProgram> programs = loopback_programs();
  service.register_program(programs[0].id,
                           programs[0].algo->make_program(programs[0].n));
  net::Server server(service, net::ServerOptions{});

  net::Client client(server.host(), server.port());
  const net::Client::Result unknown = client.submit("no-such-program", {1});
  ASSERT_TRUE(unknown.error_code.has_value());
  EXPECT_EQ(*unknown.error_code, net::ErrorCode::kUnknownProgram);

  const net::Client::Result bad = client.submit(programs[0].id, {1, 2, 3});
  ASSERT_TRUE(bad.error_code.has_value());
  EXPECT_EQ(*bad.error_code, net::ErrorCode::kBadInput);

  // The connection survives both errors.
  Rng rng(3);
  std::vector<Word> input = programs[0].algo->make_input(programs[0].n, rng);
  EXPECT_TRUE(client.submit(programs[0].id, input).ok());

  server.stop();
  service.stop();
}

TEST(NetLoopback, ServerCloseMidStreamResolvesEveryRequest) {
  const std::vector<LoopbackProgram> programs = loopback_programs();
  serve::BulkService service(loopback_service_options());
  for (const auto& p : programs) {
    service.register_program(p.id, p.algo->make_program(p.n));
  }
  auto server = std::make_unique<net::Server>(service, net::ServerOptions{});
  const std::string host = server->host();
  const std::uint16_t port = server->port();

  constexpr std::size_t kClients = 3;
  std::vector<std::thread> threads;
  std::vector<std::size_t> resolved(kClients, 0);
  std::vector<std::size_t> submitted(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(40 + c);
      net::Client client(host, port);
      for (std::size_t i = 0; i < 200; ++i) {
        const LoopbackProgram& p = programs[rng.next_below(programs.size())];
        std::vector<Word> input = p.algo->make_input(p.n, rng);
        ++submitted[c];
        const net::Client::Result r =
            client.submit(p.id, std::move(input), "tenant-" + std::to_string(c));
        // Any terminal outcome counts: completed, an explicit shutdown
        // error frame, or a transport error once the server is gone.
        ++resolved[c];
        if (!r.transport_error.empty()) break;
      }
    });
  }
  std::this_thread::sleep_for(30ms);
  server->stop();  // mid-stream
  for (auto& t : threads) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(resolved[c], submitted[c])
        << "client " << c << " lost a request";
  }
  const net::ServerStatsSnapshot stats = server->stats();
  EXPECT_TRUE(stats.exactly_once())
      << "admitted=" << stats.submits_admitted
      << " sent=" << stats.responses_sent
      << " dropped=" << stats.responses_dropped;
  service.stop();
}

TEST(NetLoopback, ObliviousFamilyVariableLengthSessions) {
  // The serving scenario matrix over the wire: the three multicore-oblivious
  // workloads registered at several sizes each ("algo/n=N" session ids, what
  // `obx_cli serve --sizes` stands up), driven concurrently so batches with
  // mixed program ids and mixed input lengths are both in flight.  Every
  // output must be bit-identical to a direct run_bulk of that session's
  // program — a batch that ever mixed lengths would corrupt the scatter.
  struct Session {
    std::string id;
    const algos::Algorithm* algo;
    std::size_t n;
    trace::Program program;
  };
  std::vector<Session> sessions;
  for (const char* name :
       {"oblivious-merge", "oblivious-partition", "oblivious-aggregate"}) {
    const algos::Algorithm& algo = algos::find(name);
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{12}}) {
      sessions.push_back(Session{
          .id = std::string(name) + "/n=" + std::to_string(n),
          .algo = &algo,
          .n = n,
          .program = algo.make_program(n)});
    }
  }

  serve::BulkService service(loopback_service_options());
  for (const auto& s : sessions) {
    service.register_program(s.id, s.algo->make_program(s.n));
  }
  net::Server server(service, net::ServerOptions{});

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kJobsPerClient = 60;
  std::vector<std::thread> threads;
  std::vector<std::size_t> matched(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(700 + c);
      net::Client client(server.host(), server.port());
      ASSERT_TRUE(client.connected()) << client.error();
      for (std::size_t i = 0; i < kJobsPerClient; ++i) {
        const Session& s = sessions[rng.next_below(sessions.size())];
        std::vector<Word> input = s.algo->make_input(s.n, rng);
        const bulk::BulkOutputs direct = bulk::run_bulk(s.program, input, 1);
        const net::Client::Result r =
            client.submit(s.id, input, "tenant-" + std::to_string(c));
        ASSERT_TRUE(r.ok()) << s.id << ": " << r.transport_error << " "
                            << r.error;
        ASSERT_EQ(r.output, direct.flat) << s.id;
        ++matched[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(matched[c], kJobsPerClient);
  }

  const net::ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.submits_admitted, kClients * kJobsPerClient);
  EXPECT_TRUE(stats.exactly_once());
  server.stop();
  service.stop();
}

TEST(NetLoopback, LoadGeneratorExactlyOnceAcrossTenants) {
  const std::vector<LoopbackProgram> programs = loopback_programs();
  serve::ServiceOptions service_options = loopback_service_options();
  // Give one tenant a tight quota so throttling shows up in the report.
  service_options.tenant_quotas["bulk-low"] = serve::TenantQuota{200.0, 20};
  serve::BulkService service(service_options);
  for (const auto& p : programs) {
    service.register_program(p.id, p.algo->make_program(p.n));
  }
  net::Server server(service, net::ServerOptions{});

  std::vector<serve::WorkloadItem> workload;
  for (const auto& p : programs) {
    workload.push_back(serve::WorkloadItem{
        p.id, [algo = p.algo, n = p.n](Rng& rng) {
          return algo->make_input(n, rng);
        }});
  }
  std::vector<net::NetTenantSpec> tenants = {
      {.name = "interactive", .priority = serve::Priority::kHigh,
       .weight = 1.0, .connections = 2},
      {.name = "batchy", .priority = serve::Priority::kNormal,
       .weight = 2.0, .connections = 2},
      {.name = "bulk-low", .priority = serve::Priority::kLow,
       .weight = 1.0, .connections = 1},
  };
  net::NetLoadOptions load;
  load.jobs = 600;
  load.arrival_rate_hz = 6000;  // open-loop, deliberately hot
  load.bursty = true;
  load.pipeline_depth = 8;
  load.seed = 11;
  const net::NetLoadReport report =
      net::run_net_load(server.host(), server.port(), workload, tenants, load);

  EXPECT_TRUE(report.exactly_once())
      << "submitted=" << report.submitted << " completed=" << report.completed
      << " rejected=" << report.rejected << " shed=" << report.shed
      << " failed=" << report.failed
      << " transport=" << report.transport_errors;
  EXPECT_EQ(report.submitted, 600u);
  EXPECT_EQ(report.transport_errors, 0u);
  EXPECT_GT(report.completed, 0u);
  ASSERT_EQ(report.tenants.size(), 3u);
  for (const net::NetTenantReport& t : report.tenants) {
    EXPECT_GT(t.submitted, 0u) << t.tenant;
  }

  server.stop();
  service.stop();
}

TEST(NetLoopback, ParkedSubmitterDisconnectDoesNotLeakConnectionSlot) {
  // Attack from the review: fill the queue so a submit parks, then hang up.
  // A parked connection is not read and retry skips closing ones, so without
  // parked-frame discard each such peer would permanently squat one of the
  // max_connections slots (and stop() would burn the whole drain timeout).
  serve::ServiceOptions service_options;
  service_options.queue_capacity = 1;           // backpressure binds instantly
  service_options.policy = serve::OverflowPolicy::kBlock;
  service_options.batcher.max_batch_lanes = 1;  // one job per batch
  service_options.batcher.max_batch_delay = 100us;
  service_options.executors = 1;
  serve::BulkService service(service_options);
  const algos::Algorithm& algo = algos::find("prefix-sums");
  constexpr std::size_t kN = 1024;  // slow enough that the executor lags
  service.register_program("slow", algo.make_program(kN));
  net::ServerOptions server_options;
  server_options.max_connections = 4;
  net::Server server(service, server_options);

  Rng rng(77);
  // More abusive rounds than slots: any leak fills the table.
  for (int round = 0; round < 6; ++round) {
    net::Client client(server.host(), server.port());
    ASSERT_TRUE(client.connected()) << client.error();
    for (int i = 0; i < 16; ++i) {
      client.submit_async("slow", algo.make_input(kN, rng));
    }
    client.close();  // burst + EOF arrive in one readable pass
  }
  // Every abusive connection must be reaped once its writes fail or its
  // hangup is observed; a zombie keeps connections_active pinned above 0.
  // Wait for the loop to take every connection off the listen backlog
  // first: on a loaded host it may not have accepted any yet, and an empty
  // table would then pass the check below without testing anything.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  const auto taken = [&] {
    const net::ServerStatsSnapshot s = server.stats();
    return s.connections_accepted + s.connections_refused;
  };
  while (taken() < 6 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(taken(), 6u) << "the loop never took the abusive connections";
  while (server.stats().connections_active > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().connections_active, 0u)
      << "closing parked connections were never reaped";
  EXPECT_GT(server.stats().would_block, 0u)
      << "no submit ever parked; the scenario under test did not fire";

  // The server still has all its slots: a fresh client is served normally.
  net::Client fresh(server.host(), server.port());
  ASSERT_TRUE(fresh.connected()) << fresh.error();
  std::vector<Word> input = algo.make_input(kN, rng);
  const bulk::BulkOutputs direct =
      bulk::run_bulk(algo.make_program(kN), input, 1);
  const net::Client::Result r = fresh.submit("slow", input);
  ASSERT_TRUE(r.ok()) << r.transport_error << " " << r.error;
  EXPECT_EQ(r.output, direct.flat);

  // No parked zombie left behind: drain is immediate, not drain_timeout.
  const auto stop_start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start, 3s)
      << "stop() burned the drain timeout on a parked zombie";
  service.stop();
}

TEST(NetClient, ResponseForUnknownRequestIdBreaksTransport) {
  // A buggy or malicious server must not be able to grow the client's parked
  // map with made-up request ids, nor overwrite a parked result with a
  // duplicate: both are protocol violations that kill the transport.
  std::string error;
  net::ListenSocket listener =
      net::ListenSocket::listen("127.0.0.1", 0, /*backlog=*/8, &error);
  ASSERT_TRUE(listener.valid()) << error;

  net::Client client(listener.host(), listener.port());
  ASSERT_TRUE(client.connected()) << client.error();
  net::Socket peer = listener.accept();
  ASSERT_TRUE(peer.valid());

  const auto id = client.submit_async("prefix-sums", {1, 2, 3});
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(client.outstanding(), 1u);

  net::ResponseFrame bogus;
  bogus.request_id = *id + 1000;  // never submitted
  const std::vector<std::uint8_t> bytes = net::encode(net::Frame{bogus});
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const net::IoResult w =
        peer.write_some(bytes.data() + sent, bytes.size() - sent);
    ASSERT_EQ(w.kind, net::IoResult::Kind::kOk);
    sent += w.bytes;
  }

  const net::Client::Result r = client.wait(*id);
  EXPECT_FALSE(r.transport_error.empty());
  EXPECT_NE(r.transport_error.find("not outstanding"), std::string::npos)
      << r.transport_error;
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.outstanding(), 0u) << "bogus id leaked into parked state";
}

}  // namespace
