// Wire protocol codec: round trips, incremental reassembly, and strict
// rejection of malformed frames.
#include <gtest/gtest.h>

#include <vector>

#include "check/net_fault.hpp"
#include "net/frame.hpp"

namespace {

using namespace obx;
using namespace obx::net;

SubmitFrame sample_submit() {
  SubmitFrame f;
  f.request_id = 42;
  f.program_id = "prefix-sums";
  f.tenant = "tenant-a";
  f.priority = serve::Priority::kHigh;
  f.deadline_us = 1500;
  f.input = {1, 2, 3, 0xffffffffffffffffULL};
  return f;
}

TEST(NetFrame, SubmitRoundTrip) {
  const std::vector<std::uint8_t> bytes = encode(Frame{sample_submit()});
  ASSERT_GE(bytes.size(), kFrameHeaderBytes);

  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(reader.next(out), FrameReader::Status::kFrame);
  const auto& decoded = std::get<SubmitFrame>(out);
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.program_id, "prefix-sums");
  EXPECT_EQ(decoded.tenant, "tenant-a");
  EXPECT_EQ(decoded.priority, serve::Priority::kHigh);
  EXPECT_EQ(decoded.deadline_us, 1500);
  EXPECT_EQ(decoded.input, sample_submit().input);
  EXPECT_EQ(reader.next(out), FrameReader::Status::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetFrame, ResponseAndErrorRoundTrip) {
  ResponseFrame r;
  r.request_id = 7;
  r.status = obx::serve::JobStatus::kShed;
  r.deadline_missed = true;
  r.batch_lanes = 128;
  r.queue_delay_us = 250;
  r.latency_us = 900;
  r.output = {10, 20};
  ErrorFrame e;
  e.request_id = 8;
  e.code = ErrorCode::kUnknownProgram;
  e.message = "no such program";

  std::vector<std::uint8_t> bytes;
  encode_frame(Frame{r}, bytes);
  encode_frame(Frame{e}, bytes);

  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(reader.next(out), FrameReader::Status::kFrame);
  const auto& dr = std::get<ResponseFrame>(out);
  EXPECT_EQ(dr.status, obx::serve::JobStatus::kShed);
  EXPECT_TRUE(dr.deadline_missed);
  EXPECT_EQ(dr.output, r.output);
  ASSERT_EQ(reader.next(out), FrameReader::Status::kFrame);
  const auto& de = std::get<ErrorFrame>(out);
  EXPECT_EQ(de.code, ErrorCode::kUnknownProgram);
  EXPECT_EQ(de.message, "no such program");
}

TEST(NetFrame, ByteAtATimeReassembly) {
  const std::vector<std::uint8_t> bytes = encode(Frame{sample_submit()});
  FrameReader reader;
  Frame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    reader.feed(&bytes[i], 1);
    ASSERT_EQ(reader.next(out), FrameReader::Status::kNeedMore)
        << "frame completed early at byte " << i;
  }
  reader.feed(&bytes.back(), 1);
  ASSERT_EQ(reader.next(out), FrameReader::Status::kFrame);
  EXPECT_EQ(std::get<SubmitFrame>(out).program_id, "prefix-sums");
}

TEST(NetFrame, TruncatedHeaderIsNeedMoreNotError) {
  const std::vector<std::uint8_t> bytes = encode(Frame{sample_submit()});
  FrameReader reader;
  reader.feed(bytes.data(), kFrameHeaderBytes - 1);
  Frame out;
  EXPECT_EQ(reader.next(out), FrameReader::Status::kNeedMore);
  EXPECT_FALSE(reader.failed());
}

TEST(NetFrame, BadMagicPoisonsTheStream) {
  std::vector<std::uint8_t> bytes = encode(Frame{sample_submit()});
  bytes[0] ^= 0xff;
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(reader.next(out), FrameReader::Status::kError);
  EXPECT_TRUE(reader.failed());
  // Poisoned for good: even a subsequent valid frame is refused.
  const std::vector<std::uint8_t> good = encode(Frame{sample_submit()});
  reader.feed(good.data(), good.size());
  EXPECT_EQ(reader.next(out), FrameReader::Status::kError);
}

TEST(NetFrame, BadVersionRejected) {
  std::vector<std::uint8_t> bytes = encode(Frame{sample_submit()});
  bytes[4] = 99;
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(reader.next(out), FrameReader::Status::kError);
}

TEST(NetFrame, OversizedLengthRejectedWithoutAllocating) {
  std::vector<std::uint8_t> bytes = encode(Frame{sample_submit()});
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFramePayloadBytes) + 1;
  bytes[8] = static_cast<std::uint8_t>(huge & 0xff);
  bytes[9] = static_cast<std::uint8_t>((huge >> 8) & 0xff);
  bytes[10] = static_cast<std::uint8_t>((huge >> 16) & 0xff);
  bytes[11] = static_cast<std::uint8_t>((huge >> 24) & 0xff);
  FrameReader reader;
  reader.feed(bytes.data(), kFrameHeaderBytes);  // header alone must suffice
  Frame out;
  EXPECT_EQ(reader.next(out), FrameReader::Status::kError);
}

TEST(NetFrame, UnknownTypeRejected) {
  std::vector<std::uint8_t> bytes = encode(Frame{sample_submit()});
  bytes[5] = 200;
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(reader.next(out), FrameReader::Status::kError);
}

TEST(NetFrame, TrailingPayloadBytesRejected) {
  SubmitFrame f = sample_submit();
  std::vector<std::uint8_t> bytes = encode(Frame{f});
  // Grow the payload by one byte and patch the header length to match: the
  // declared length now exceeds what the submit payload parses to.
  bytes.push_back(0);
  const std::uint32_t length =
      static_cast<std::uint32_t>(bytes.size() - kFrameHeaderBytes);
  bytes[8] = static_cast<std::uint8_t>(length & 0xff);
  bytes[9] = static_cast<std::uint8_t>((length >> 8) & 0xff);
  bytes[10] = static_cast<std::uint8_t>((length >> 16) & 0xff);
  bytes[11] = static_cast<std::uint8_t>((length >> 24) & 0xff);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(reader.next(out), FrameReader::Status::kError);
}

TEST(NetFrame, HostileTenantNamesSurviveRoundTrip) {
  SubmitFrame f = sample_submit();
  f.tenant = "evil\"name\\with\nnewlines\x01";
  const std::vector<std::uint8_t> bytes = encode(Frame{f});
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame out;
  ASSERT_EQ(reader.next(out), FrameReader::Status::kFrame);
  EXPECT_EQ(std::get<SubmitFrame>(out).tenant, f.tenant);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xf];
  }
  return out;
}

std::vector<std::uint8_t> unhex(const std::string& text) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoul(text.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Wire compatibility: the exact bytes of one frame of every type, pinned
/// from the byte-at-a-time codec of protocol version 1.  Any codec rewrite
/// must reproduce them bit for bit and decode them back to the same fields.
TEST(NetFrameGolden, EveryFrameTypeEncodesToPinnedBytes) {
  SubmitFrame submit;
  submit.request_id = 0x01020304;
  submit.program_id = "prefix-sums/n=4";
  submit.tenant = "acme";
  submit.priority = serve::Priority::kLow;
  submit.deadline_us = 2500;
  submit.input = {1, 0x0123456789abcdefULL, 0xffffffffffffffffULL};

  ResponseFrame response;
  response.request_id = 77;
  response.status = serve::JobStatus::kShed;
  response.deadline_missed = true;
  response.batch_lanes = 64;
  response.queue_delay_us = 1234;
  response.latency_us = 0x1122334455ULL;
  response.output = {0x8000000000000001ULL, 42};

  ErrorFrame error;
  error.request_id = 9;
  error.code = ErrorCode::kBadInput;
  error.message = "bad";

  StatsRequestFrame stats_request;
  stats_request.request_id = 0xdeadbeef;

  StatsResponseFrame stats_response;
  stats_response.request_id = 5;
  stats_response.text = "obx_up 1\n";

  const std::pair<Frame, std::string> golden[] = {
      {submit,
       "4658424f010100003f000000040302010f00040002000000c409000000000000"
       "030000007072656669782d73756d732f6e3d3461636d650100000000000000ef"
       "cdab8967452301ffffffffffffffff"},
      {response,
       "4658424f010200002c0000004d0000000201000040000000d204000000000000"
       "55443322110000000200000001000000000000802a00000000000000"},
      {error, "4658424f010300000b000000090000000300000003000000626164"},
      {stats_request, "4658424f0104000000000000efbeadde"},
      {stats_response, "4658424f010500000d00000005000000090000006f62785f757020310a"},
  };
  for (const auto& [frame, bytes] : golden) {
    EXPECT_EQ(hex(encode(frame)), bytes) << "type " << static_cast<int>(type_of(frame));
    const std::vector<std::uint8_t> wire = unhex(bytes);
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame out;
    ASSERT_EQ(reader.next(out), FrameReader::Status::kFrame) << reader.error();
    EXPECT_EQ(hex(encode(out)), bytes);
  }
  const std::vector<std::uint8_t> wire = unhex(golden[0].second);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(reader.next(out), FrameReader::Status::kFrame);
  EXPECT_EQ(std::get<SubmitFrame>(out).input, submit.input);
  EXPECT_EQ(std::get<SubmitFrame>(out).priority, serve::Priority::kLow);
}

/// A response frame whose output word count is `count` while the payload
/// carries `words` whole words plus `extra` stray bytes.
std::vector<std::uint8_t> response_with_count(std::uint32_t count, std::size_t words,
                                              std::size_t extra) {
  ResponseFrame r;
  r.request_id = 3;
  r.output.assign(words, Word{0x5a5a5a5a5a5a5a5aULL});
  std::vector<std::uint8_t> bytes = encode(Frame{r});
  // The count field sits after status(1) flags(1) reserved(2) lanes(4)
  // queue delay(8) latency(8).
  const std::size_t at = kFrameHeaderBytes + 24;
  for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = static_cast<std::uint8_t>(count >> (8 * i));
  bytes.insert(bytes.end(), extra, std::uint8_t{0x77});
  const auto length = static_cast<std::uint32_t>(bytes.size() - kFrameHeaderBytes);
  for (std::size_t i = 0; i < 4; ++i) bytes[8 + i] = static_cast<std::uint8_t>(length >> (8 * i));
  return bytes;
}

FrameReader::Status decode_status(const std::vector<std::uint8_t>& bytes) {
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame out;
  return reader.next(out);
}

TEST(NetFrame, HostileWordCountsRejected) {
  // Counts near UINT32_MAX, and counts whose byte size (count * 8) overflows
  // 32 bits, must fail the remaining-bytes pre-check instead of allocating
  // or wrapping around into a small read.
  for (const std::uint32_t count :
       {0xffffffffu, 0xfffffffeu, 0x80000000u, 0x20000000u, 0x20000001u}) {
    EXPECT_EQ(decode_status(response_with_count(count, 2, 0)), FrameReader::Status::kError)
        << "count " << count;
  }
  // One word more than the payload holds.
  EXPECT_EQ(decode_status(response_with_count(3, 2, 0)), FrameReader::Status::kError);
  // A payload truncated mid-word: two whole words and three bytes of a
  // third that the count claims.
  EXPECT_EQ(decode_status(response_with_count(3, 2, 3)), FrameReader::Status::kError);
  // The whole words decode when the count says two; the stray bytes are
  // then trailing garbage.
  EXPECT_EQ(decode_status(response_with_count(2, 2, 3)), FrameReader::Status::kError);
  EXPECT_EQ(decode_status(response_with_count(2, 2, 0)), FrameReader::Status::kFrame);
  // Fewer words than the payload holds leaves whole trailing words.
  EXPECT_EQ(decode_status(response_with_count(1, 2, 0)), FrameReader::Status::kError);
}

TEST(NetFrame, FuzzHarnessFindsNoViolations) {
  obx::check::FrameFuzzOptions options;
  options.seed = 20260808;
  options.roundtrips = 150;
  options.mutations = 300;
  const obx::check::FrameFuzzReport report = obx::check::run_frame_fuzz(options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.roundtrips, 150u);
  EXPECT_EQ(report.mutations, 300u);
  EXPECT_GT(report.mutations_rejected, 0u);
}

}  // namespace
