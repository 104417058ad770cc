// Networked front end for serve::BulkService.
//
// One poll(2) event-loop thread owns every connection: it accepts clients,
// reassembles frames (net/frame.hpp), validates submissions, and feeds them
// into the service with try_submit — the callback-based, never-blocking
// admission path.  Completions arrive on executor threads, are posted to a
// mutex-guarded inbox, and a self-pipe wakes the loop (only when the inbox
// turns non-empty) to encode response frames back onto the owning
// connection.  Every frame a connection gets in one loop pass leaves in one
// send at the end of the pass.
//
// Backpressure and abuse handling:
//   * A submission whose priority maps to the kBlock overflow policy on a
//     full queue returns kWouldBlock; the server parks that frame, stops
//     reading from the connection (TCP backpressure does the rest), and
//     retries after completions drain queue space.
//   * Idle timeout counts from the last *complete* frame, so a slow-loris
//     writer trickling header bytes is cut off on the same clock as a
//     silent peer.  Connections with work in flight are never idle-killed.
//   * A write buffer that makes no progress for write_stall_timeout (a
//     slow-reading client) gets the connection dropped; its in-flight
//     completions are counted as responses_dropped.
//
// Exactly-once over the wire: every admitted submission is eventually
// accounted as exactly one of responses_sent (terminal frame queued to a
// live connection) or responses_dropped (connection died first) — once the
// service has quiesced, submits_admitted == responses_sent +
// responses_dropped.  Completions are never lost, even if they land after
// the loop has exited: the inbox is shared-ownership and post-shutdown
// arrivals are tallied as dropped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/service.hpp"

namespace obx::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with Server::port().
  std::uint16_t port = 0;
  std::size_t max_connections = 256;
  /// Cut connections with no complete frame and no in-flight work for this
  /// long (also the slow-loris budget for finishing a started frame).
  std::chrono::milliseconds idle_timeout{30000};
  /// Cut connections whose pending output makes no progress for this long.
  std::chrono::milliseconds write_stall_timeout{10000};
  /// stop(): how long to wait for in-flight work and queued output to
  /// flush before tearing connections down.
  std::chrono::milliseconds drain_timeout{5000};
};

/// Event-loop counters; all monotonic except the connections_active and
/// write_buffer_bytes gauges.
struct ServerStatsSnapshot {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t submits_received = 0;
  std::uint64_t submits_admitted = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t responses_dropped = 0;
  std::uint64_t error_responses = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t would_block = 0;
  std::uint64_t idle_timeouts = 0;
  std::uint64_t stall_timeouts = 0;
  /// Bytes reserved by the connections' write buffers.  A drained buffer of
  /// a connection with nothing in flight keeps at most kReadChunkBytes, so
  /// a burst's high-water allocation does not stay resident while it idles.
  std::uint64_t write_buffer_bytes = 0;

  /// The wire-level exactly-once ledger (valid once the service quiesced).
  bool exactly_once() const {
    return submits_admitted == responses_sent + responses_dropped;
  }
};

class Server {
 public:
  /// Binds and starts the event loop.  `service` must outlive the server's
  /// stop(); the server does not own it.  Throws std::runtime_error when
  /// the listen socket cannot be set up.
  Server(serve::BulkService& service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }

  /// Stops accepting, refuses new submissions with kShuttingDown, waits up
  /// to drain_timeout for in-flight responses to flush, closes everything,
  /// joins the loop.  Idempotent; called by the destructor.  The service is
  /// left running — stop it afterwards.
  void stop();

  ServerStatsSnapshot stats() const;

  /// Prometheus exposition text: the service's metrics plus obx_net_* lines.
  std::string scrape_metrics() const;

 private:
  class Loop;

  serve::BulkService& service_;
  ServerOptions options_;
  std::string host_;
  std::uint16_t port_ = 0;
  std::unique_ptr<Loop> loop_;
  std::thread thread_;
  std::atomic<bool> stopped_{false};
};

/// Renders a ServerStatsSnapshot as Prometheus exposition lines (used by
/// scrape_metrics; exposed for the CLI and tests).
std::string render_server_stats(const ServerStatsSnapshot& stats);

}  // namespace obx::net
