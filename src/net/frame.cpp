#include "net/frame.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace obx::net {

namespace {

// --- little-endian byte order ---------------------------------------------

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

/// Reverses the bytes of an unsigned integer (the big-endian fallback).
template <typename T>
T byte_swap(T v) {
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xff));
  }
  return out;
}

/// Host order <-> little-endian (the wire order); an involution.
template <typename T>
T little_endian(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    return byte_swap(v);
  }
}

template <typename T>
void store_le(std::uint8_t* at, T v) {
  v = little_endian(v);
  std::memcpy(at, &v, sizeof(T));
}

template <typename T>
T load_le(const std::uint8_t* at) {
  T v;
  std::memcpy(&v, at, sizeof(T));
  return little_endian(v);
}

// --- writers: append to the frame buffer -----------------------------------

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  store_le(out.data() + at, v);
}

void put_bytes(std::vector<std::uint8_t>& out, const std::string& s) {
  out.insert(out.end(), s.begin(), s.end());
}

/// A whole word block in one resize + copy.
void put_words(std::vector<std::uint8_t>& out, const std::vector<Word>& words) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(Word) * words.size());
  std::uint8_t* dst = out.data() + at;
  if constexpr (std::endian::native == std::endian::little) {
    if (!words.empty()) std::memcpy(dst, words.data(), sizeof(Word) * words.size());
  } else {
    for (const Word w : words) {
      store_le(dst, w);
      dst += sizeof(Word);
    }
  }
}

// --- bounds-checked little-endian cursor ----------------------------------

/// Reads scalars off a payload span; any overrun or trailing garbage turns
/// into ok() == false rather than UB, which is what the fuzz leg leans on.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(scalar<std::uint64_t>()); }

  std::string str(std::size_t n) {
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(data_ + pos_ - n), n);
  }

  /// A whole word block in one resize + copy.
  std::vector<Word> words(std::size_t count) {
    std::vector<Word> out;
    // Divide rather than multiply: count * 8 may overflow, and checking
    // before resizing means a hostile count never allocates.
    if (count > remaining() / sizeof(Word)) {
      ok_ = false;
      return out;
    }
    const std::uint8_t* src = data_ + pos_;
    take(sizeof(Word) * count);
    out.resize(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count != 0) std::memcpy(out.data(), src, sizeof(Word) * count);
    } else {
      for (std::size_t i = 0; i < count; ++i) out[i] = load_le<Word>(src + sizeof(Word) * i);
    }
    return out;
  }

 private:
  template <typename T>
  T scalar() {
    if (!take(sizeof(T))) return 0;
    return load_le<T>(data_ + pos_ - sizeof(T));
  }

  bool take(std::size_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- per-type payload codecs ----------------------------------------------

void encode_payload(const SubmitFrame& f, std::vector<std::uint8_t>& out) {
  put<std::uint16_t>(out, static_cast<std::uint16_t>(f.program_id.size()));
  put<std::uint16_t>(out, static_cast<std::uint16_t>(f.tenant.size()));
  put<std::uint8_t>(out, static_cast<std::uint8_t>(f.priority));
  put<std::uint8_t>(out, 0);  // reserved
  put<std::uint16_t>(out, 0);  // reserved
  put<std::uint64_t>(out, static_cast<std::uint64_t>(f.deadline_us));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(f.input.size()));
  put_bytes(out, f.program_id);
  put_bytes(out, f.tenant);
  put_words(out, f.input);
}

bool decode_payload(Cursor& c, SubmitFrame& f) {
  const std::size_t prog_len = c.u16();
  const std::size_t tenant_len = c.u16();
  const std::uint8_t priority = c.u8();
  c.u8();
  c.u16();
  f.deadline_us = c.i64();
  const std::size_t input_words = c.u32();
  if (!c.ok()) return false;
  if (prog_len > kMaxIdBytes || tenant_len > kMaxIdBytes) return false;
  if (priority >= serve::kPriorityCount) return false;
  f.priority = static_cast<serve::Priority>(priority);
  f.program_id = c.str(prog_len);
  f.tenant = c.str(tenant_len);
  f.input = c.words(input_words);
  return c.ok();
}

void encode_payload(const ResponseFrame& f, std::vector<std::uint8_t>& out) {
  put<std::uint8_t>(out, static_cast<std::uint8_t>(f.status));
  put<std::uint8_t>(out, f.deadline_missed ? 1 : 0);
  put<std::uint16_t>(out, 0);  // reserved
  put<std::uint32_t>(out, f.batch_lanes);
  put<std::uint64_t>(out, f.queue_delay_us);
  put<std::uint64_t>(out, f.latency_us);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(f.output.size()));
  put_words(out, f.output);
}

bool decode_payload(Cursor& c, ResponseFrame& f) {
  const std::uint8_t status = c.u8();
  f.deadline_missed = c.u8() != 0;
  c.u16();
  f.batch_lanes = c.u32();
  f.queue_delay_us = c.u64();
  f.latency_us = c.u64();
  const std::size_t output_words = c.u32();
  if (!c.ok()) return false;
  if (status > static_cast<std::uint8_t>(serve::JobStatus::kFailed)) {
    return false;
  }
  f.status = static_cast<serve::JobStatus>(status);
  f.output = c.words(output_words);
  return c.ok();
}

void encode_payload(const ErrorFrame& f, std::vector<std::uint8_t>& out) {
  put<std::uint16_t>(out, static_cast<std::uint16_t>(f.code));
  put<std::uint16_t>(out, 0);  // reserved
  put<std::uint32_t>(out, static_cast<std::uint32_t>(f.message.size()));
  put_bytes(out, f.message);
}

bool decode_payload(Cursor& c, ErrorFrame& f) {
  const std::uint16_t code = c.u16();
  c.u16();
  const std::size_t msg_len = c.u32();
  if (!c.ok()) return false;
  if (code < static_cast<std::uint16_t>(ErrorCode::kBadFrame) ||
      code > static_cast<std::uint16_t>(ErrorCode::kInternal)) {
    return false;
  }
  if (msg_len > kMaxIdBytes) return false;
  f.code = static_cast<ErrorCode>(code);
  f.message = c.str(msg_len);
  return c.ok();
}

void encode_payload(const StatsRequestFrame&, std::vector<std::uint8_t>&) {}

bool decode_payload(Cursor&, StatsRequestFrame&) { return true; }

void encode_payload(const StatsResponseFrame& f,
                    std::vector<std::uint8_t>& out) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(f.text.size()));
  put_bytes(out, f.text);
}

bool decode_payload(Cursor& c, StatsResponseFrame& f) {
  const std::size_t len = c.u32();
  if (!c.ok() || len > kMaxFramePayloadBytes) return false;
  f.text = c.str(len);
  return c.ok();
}

template <typename T>
bool decode_as(const std::uint8_t* payload, std::size_t size,
               std::uint32_t request_id, Frame& out) {
  Cursor c(payload, size);
  T frame;
  frame.request_id = request_id;
  if (!decode_payload(c, frame)) return false;
  if (c.remaining() != 0) return false;  // trailing bytes = malformed
  out = std::move(frame);
  return true;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad-frame";
    case ErrorCode::kUnknownProgram: return "unknown-program";
    case ErrorCode::kBadInput: return "bad-input";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

std::uint32_t request_id_of(const Frame& frame) {
  return std::visit([](const auto& f) { return f.request_id; }, frame);
}

FrameType type_of(const Frame& frame) {
  struct Visitor {
    FrameType operator()(const SubmitFrame&) { return FrameType::kSubmit; }
    FrameType operator()(const ResponseFrame&) { return FrameType::kResponse; }
    FrameType operator()(const ErrorFrame&) { return FrameType::kError; }
    FrameType operator()(const StatsRequestFrame&) {
      return FrameType::kStatsRequest;
    }
    FrameType operator()(const StatsResponseFrame&) {
      return FrameType::kStatsResponse;
    }
  };
  return std::visit(Visitor{}, frame);
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  const std::size_t header_at = out.size();
  out.resize(out.size() + kFrameHeaderBytes);
  const std::size_t payload_at = out.size();
  std::visit([&out](const auto& f) { encode_payload(f, out); }, frame);
  const std::size_t payload_bytes = out.size() - payload_at;
  OBX_CHECK(payload_bytes <= kMaxFramePayloadBytes,
            "frame payload exceeds protocol maximum");

  std::uint8_t* header = out.data() + header_at;
  store_le(header, kFrameMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<std::uint8_t>(type_of(frame));
  store_le(header + 6, std::uint16_t{0});  // flags
  store_le(header + 8, static_cast<std::uint32_t>(payload_bytes));
  store_le(header + 12, request_id_of(frame));
}

std::vector<std::uint8_t> encode(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame(frame, out);
  return out;
}

void FrameReader::feed(const void* data, std::size_t bytes) {
  if (failed() || bytes == 0) return;
  // Reclaim consumed prefix before growing; keeps the buffer bounded by one
  // frame plus whatever the socket delivered past it.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + bytes);
}

FrameReader::Status FrameReader::next(Frame& out) {
  if (failed()) return Status::kError;
  if (buffered() < kFrameHeaderBytes) return Status::kNeedMore;

  const std::uint8_t* h = buffer_.data() + consumed_;
  Cursor header(h, kFrameHeaderBytes);
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t type = header.u8();
  const std::uint16_t flags = header.u16();
  const std::uint32_t length = header.u32();
  const std::uint32_t request_id = header.u32();

  if (magic != kFrameMagic) return fail("bad frame magic");
  if (version != kProtocolVersion) {
    return fail("unsupported protocol version " + std::to_string(version));
  }
  if (flags != 0) return fail("nonzero reserved flags");
  if (length > kMaxFramePayloadBytes) {
    return fail("frame payload length " + std::to_string(length) +
                " exceeds maximum");
  }
  if (buffered() < kFrameHeaderBytes + length) return Status::kNeedMore;

  const std::uint8_t* payload = h + kFrameHeaderBytes;
  bool decoded = false;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kSubmit:
      decoded = decode_as<SubmitFrame>(payload, length, request_id, out);
      break;
    case FrameType::kResponse:
      decoded = decode_as<ResponseFrame>(payload, length, request_id, out);
      break;
    case FrameType::kError:
      decoded = decode_as<ErrorFrame>(payload, length, request_id, out);
      break;
    case FrameType::kStatsRequest:
      decoded = decode_as<StatsRequestFrame>(payload, length, request_id, out);
      break;
    case FrameType::kStatsResponse:
      decoded = decode_as<StatsResponseFrame>(payload, length, request_id, out);
      break;
    default:
      return fail("unknown frame type " + std::to_string(type));
  }
  if (!decoded) {
    return fail("malformed " + std::to_string(type) + "-type frame payload");
  }
  consumed_ += kFrameHeaderBytes + length;
  return Status::kFrame;
}

FrameReader::Status FrameReader::fail(const std::string& message) {
  error_ = message;
  return Status::kError;
}

}  // namespace obx::net
