#include "net/client.hpp"

#include <utility>

namespace obx::net {

namespace {

Client::Result result_from(ResponseFrame&& r) {
  Client::Result out;
  out.status = r.status;
  out.output = std::move(r.output);
  out.deadline_missed = r.deadline_missed;
  out.batch_lanes = r.batch_lanes;
  out.queue_delay_us = r.queue_delay_us;
  out.latency_us = r.latency_us;
  return out;
}

Client::Result result_from(ErrorFrame&& e) {
  Client::Result out;
  out.status = serve::JobStatus::kFailed;
  out.error_code = e.code;
  out.error = std::move(e.message);
  return out;
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port) {
  std::string error;
  socket_ = Socket::connect(host, port, &error);
  if (!socket_.valid()) transport_error_ = error;
}

std::optional<std::uint32_t> Client::submit_async(
    const std::string& program_id, std::vector<Word> input,
    const std::string& tenant, serve::Priority priority,
    std::int64_t deadline_us) {
  if (broken()) return std::nullopt;
  SubmitFrame submit;
  submit.request_id = next_request_id_++;
  submit.program_id = program_id;
  submit.tenant = tenant;
  submit.priority = priority;
  submit.deadline_us = deadline_us;
  submit.input = std::move(input);
  const std::uint32_t id = submit.request_id;
  if (!send_frame(Frame{std::move(submit)})) return std::nullopt;
  awaiting_.insert(id);
  return id;
}

Client::Result Client::wait(std::uint32_t request_id) {
  for (;;) {
    auto parked = parked_.find(request_id);
    if (parked != parked_.end()) {
      Result r = std::move(parked->second);
      parked_.erase(parked);
      return r;
    }
    if (broken()) {
      // The transport died with this request outstanding: synthesize its
      // terminal result so every submit still resolves exactly once.
      Result r;
      r.transport_error = transport_error_;
      awaiting_.erase(request_id);
      return r;
    }
    Frame frame;
    if (!read_frame(frame)) continue;  // loop re-checks broken()
    const std::uint32_t id = request_id_of(frame);
    if (auto* response = std::get_if<ResponseFrame>(&frame)) {
      park(id, result_from(std::move(*response)));
    } else if (auto* error = std::get_if<ErrorFrame>(&frame)) {
      park(id, result_from(std::move(*error)));
    } else {
      mark_broken("unexpected frame type from server");
    }
  }
}

void Client::park(std::uint32_t id, Result&& result) {
  if (awaiting_.erase(id) == 0) {
    // Either an id we never submitted or a duplicate answer for one already
    // parked/waited.  Both violate the one-response-per-request contract;
    // accepting them would let a misbehaving server grow parked_ without
    // bound or silently overwrite a delivered result.
    mark_broken("response for request id " + std::to_string(id) +
                " that is not outstanding");
    return;
  }
  parked_[id] = std::move(result);
}

Client::Result Client::submit(const std::string& program_id,
                              std::vector<Word> input,
                              const std::string& tenant,
                              serve::Priority priority,
                              std::int64_t deadline_us) {
  const std::optional<std::uint32_t> id =
      submit_async(program_id, std::move(input), tenant, priority, deadline_us);
  if (!id) {
    Result r;
    r.transport_error =
        transport_error_.empty() ? "not connected" : transport_error_;
    return r;
  }
  return wait(*id);
}

std::string Client::scrape_stats() {
  if (broken()) return {};
  StatsRequestFrame request;
  request.request_id = next_request_id_++;
  const std::uint32_t id = request.request_id;
  if (!send_frame(Frame{request})) return {};
  for (;;) {
    if (broken()) return {};
    Frame frame;
    if (!read_frame(frame)) continue;
    if (auto* stats = std::get_if<StatsResponseFrame>(&frame)) {
      if (stats->request_id == id) return std::move(stats->text);
      continue;  // stale stats response from a previous scrape; ignore
    }
    const std::uint32_t rid = request_id_of(frame);
    if (auto* response = std::get_if<ResponseFrame>(&frame)) {
      park(rid, result_from(std::move(*response)));
    } else if (auto* error = std::get_if<ErrorFrame>(&frame)) {
      park(rid, result_from(std::move(*error)));
    } else {
      mark_broken("unexpected frame type from server");
      return {};
    }
  }
}

bool Client::send_frame(const Frame& frame) {
  send_buf_.clear();
  encode_frame(frame, send_buf_);
  std::size_t sent = 0;
  while (sent < send_buf_.size()) {
    const IoResult r = socket_.write_some(send_buf_.data() + sent,
                                          send_buf_.size() - sent);
    if (r.kind == IoResult::Kind::kOk) {
      sent += r.bytes;
      continue;
    }
    // Blocking socket: kWouldBlock should not happen; treat any non-progress
    // as transport death.
    mark_broken("send failed");
    return false;
  }
  return true;
}

bool Client::read_frame(Frame& out) {
  for (;;) {
    switch (reader_.next(out)) {
      case FrameReader::Status::kFrame:
        return true;
      case FrameReader::Status::kError:
        mark_broken("protocol error from server: " + reader_.error());
        return false;
      case FrameReader::Status::kNeedMore:
        break;
    }
    std::uint8_t chunk[kReadChunkBytes];
    const IoResult r = socket_.read_some(chunk, sizeof(chunk));
    if (r.kind == IoResult::Kind::kOk) {
      reader_.feed(chunk, r.bytes);
      continue;
    }
    if (r.kind == IoResult::Kind::kClosed) {
      mark_broken("server closed the connection");
    } else {
      mark_broken("read failed");
    }
    return false;
  }
}

void Client::mark_broken(const std::string& why) {
  if (transport_error_.empty()) transport_error_ = why;
  socket_.close();
}

}  // namespace obx::net
