// Blocking client for the obx wire protocol.
//
// One Client owns one TCP connection.  submit() is synchronous
// (send + wait); submit_async()/wait() pipeline many requests over the
// connection and tolerate out-of-order completion — responses for ids the
// caller has not asked about yet are parked until their wait().  A Client
// is NOT thread-safe: use one per thread (the load generator opens one per
// simulated connection).
//
// Transport failures never throw: a dead connection yields Results with
// `transport_error` set, once per outstanding request, preserving the
// caller's exactly-one-result-per-submit accounting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace obx::net {

class Client {
 public:
  /// One terminal outcome per submitted request.
  struct Result {
    /// Nonempty when the transport died before a response arrived; all
    /// protocol-level fields below are then meaningless.
    std::string transport_error;
    serve::JobStatus status = serve::JobStatus::kCompleted;
    /// Set when the server answered with an error frame.
    std::optional<ErrorCode> error_code;
    std::string error;
    std::vector<Word> output;
    bool deadline_missed = false;
    std::uint32_t batch_lanes = 0;
    std::uint64_t queue_delay_us = 0;
    std::uint64_t latency_us = 0;

    bool ok() const {
      return transport_error.empty() && !error_code &&
             status == serve::JobStatus::kCompleted;
    }
  };

  Client() = default;

  /// Connects; check connected() / error() afterwards.
  Client(const std::string& host, std::uint16_t port);

  bool connected() const { return socket_.valid() && !broken(); }
  bool broken() const { return !transport_error_.empty(); }
  const std::string& error() const { return transport_error_; }

  /// Sends a submission and returns its request id (for wait()).  Returns
  /// std::nullopt when the transport is dead.
  std::optional<std::uint32_t> submit_async(
      const std::string& program_id, std::vector<Word> input,
      const std::string& tenant = "default",
      serve::Priority priority = serve::Priority::kNormal,
      std::int64_t deadline_us = -1);

  /// Blocks until the response for `request_id` arrives (or the transport
  /// dies).  Out-of-order responses for other ids are parked.
  Result wait(std::uint32_t request_id);

  /// submit_async + wait.
  Result submit(const std::string& program_id, std::vector<Word> input,
                const std::string& tenant = "default",
                serve::Priority priority = serve::Priority::kNormal,
                std::int64_t deadline_us = -1);

  /// Fetches the server's Prometheus metrics text ("" on transport death).
  std::string scrape_stats();

  /// Requests outstanding (submitted, not yet waited) count: ids still
  /// awaiting a server frame plus results parked for a later wait().
  std::size_t outstanding() const { return awaiting_.size() + parked_.size(); }

  void close() { socket_.close(); }

 private:
  bool send_frame(const Frame& frame);
  /// Reads until one frame is decoded; false on transport death.
  bool read_frame(Frame& out);
  void mark_broken(const std::string& why);

  /// Parks a Response/Error frame for a later wait().  The id must be in
  /// awaiting_ — a frame for an id we never sent (or already answered) is a
  /// protocol violation and breaks the transport, so a hostile server can
  /// neither grow parked_ without bound nor overwrite a parked result.
  void park(std::uint32_t id, Result&& result);

  Socket socket_;
  FrameReader reader_;
  /// Encoding buffer reused by every send_frame().
  std::vector<std::uint8_t> send_buf_;
  std::string transport_error_;
  std::uint32_t next_request_id_ = 1;
  /// Ids submitted whose Response/Error frame has not arrived yet.
  std::set<std::uint32_t> awaiting_;
  /// Responses that arrived before their wait().
  std::map<std::uint32_t, Result> parked_;
};

}  // namespace obx::net
