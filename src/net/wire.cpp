#include "net/wire.hpp"

#include <bit>

#include "math/check.hpp"
#include "math/crc32.hpp"
#include "math/endian.hpp"

namespace hbrp::net {

namespace {

using math::append_le;
using math::ByteReader;
using math::load_le;
using math::store_le;

/// FullBeat fields ahead of its code block: r_peak, class, quality.
constexpr std::size_t kFullBeatFixedBytes = 8 + 1 + 1;
/// Code block prefix: u16 count, i32 first code, u8 delta width.
constexpr std::size_t kBlockHeadBytes = 2 + 4 + 1;

/// Zigzag of a wrapped difference: small magnitudes of either sign map to
/// small unsigned values (0, -1, 1, -2 ... -> 0, 1, 2, 3 ...).
std::uint32_t zigzag(std::uint32_t d) {
  return (d << 1) ^ (0u - (d >> 31));
}
std::uint32_t unzigzag(std::uint32_t z) { return (z >> 1) ^ (0u - (z & 1u)); }

std::size_t packed_bytes(std::size_t count, unsigned width) {
  return count < 2 ? 0 : ((count - 1) * width + 7) / 8;
}

/// Appends one code block: count, first code, the width w of the widest
/// zigzagged delta, then count-1 deltas of w bits each, LSB-first, the last
/// byte zero-padded. Differences wrap modulo 2^32, so any int32 sequence
/// round-trips (w = 32 at worst; a flat line is w = 0). An empty span
/// writes the count alone.
void append_code_block(std::vector<unsigned char>& p,
                       std::span<const dsp::Sample> codes) {
  if (codes.empty()) {
    append_le(p, std::uint16_t{0});
    return;
  }
  const auto delta = [&codes](std::size_t i) {
    return zigzag(static_cast<std::uint32_t>(codes[i]) -
                  static_cast<std::uint32_t>(codes[i - 1]));
  };
  std::uint32_t any = 0;
  for (std::size_t i = 1; i < codes.size(); ++i) any |= delta(i);
  const auto width = static_cast<unsigned>(std::bit_width(any));
  const std::size_t at = p.size();
  p.resize(at + kBlockHeadBytes + packed_bytes(codes.size(), width));
  unsigned char* o = p.data() + at;
  store_le<std::uint16_t>(o, static_cast<std::uint16_t>(codes.size()));
  store_le<std::int32_t>(o + 2, codes[0]);
  o[6] = static_cast<unsigned char>(width);
  o += kBlockHeadBytes;
  std::uint64_t acc = 0;  // pending bits, LSB first; < 32 between codes
  unsigned bits = 0;
  for (std::size_t i = 1; i < codes.size(); ++i) {
    acc |= static_cast<std::uint64_t>(delta(i)) << bits;
    bits += width;
    if (bits >= 32) {
      store_le<std::uint32_t>(o, static_cast<std::uint32_t>(acc));
      o += 4;
      acc >>= 32;
      bits -= 32;
    }
  }
  for (unsigned b = 0; b < bits; b += 8, acc >>= 8)
    *o++ = static_cast<unsigned char>(acc);
}

/// Decodes a block that must span `block` exactly, appending its codes to
/// `out`. Rejects a count outside [min_count, max_count], a width above 32,
/// any size other than the one count and width imply, and non-zero pad
/// bits; a rejected block leaves `out` untouched. A zero count is the two
/// count bytes alone.
bool read_code_block(std::span<const unsigned char> block,
                     std::size_t min_count, std::size_t max_count,
                     std::vector<dsp::Sample>& out) {
  if (block.size() < 2) return false;
  const std::size_t count = load_le<std::uint16_t>(block.data());
  if (count < min_count || count > max_count) return false;
  if (count == 0) return block.size() == 2;
  if (block.size() < kBlockHeadBytes) return false;
  const unsigned width = block[6];
  if (width > 32) return false;
  const std::size_t nbytes = packed_bytes(count, width);
  if (block.size() != kBlockHeadBytes + nbytes) return false;
  const unsigned char* p = block.data() + kBlockHeadBytes;
  const unsigned char* const end = p + nbytes;
  const std::size_t pad = 8 * nbytes - (count - 1) * width;  // 0..7 bits
  if (pad > 0 && (end[-1] >> (8 - pad)) != 0) return false;

  const std::size_t at = out.size();
  out.resize(at + count);
  dsp::Sample* dst = out.data() + at;
  auto prev = load_le<std::uint32_t>(block.data() + 2);
  dst[0] = static_cast<dsp::Sample>(prev);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::uint64_t acc = 0;  // unread bits, LSB first
  unsigned bits = 0;
  for (std::size_t i = 1; i < count; ++i) {
    if (bits < width) {
      if (end - p >= 4) {
        acc |= static_cast<std::uint64_t>(load_le<std::uint32_t>(p)) << bits;
        p += 4;
        bits += 32;
      } else {
        // The exact size check above guarantees these tail bytes exist.
        for (; bits < width; bits += 8)
          acc |= static_cast<std::uint64_t>(*p++) << bits;
      }
    }
    prev += unzigzag(static_cast<std::uint32_t>(acc & mask));
    dst[i] = static_cast<dsp::Sample>(prev);
    acc >>= width;
    bits -= width;
  }
  return true;
}

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::Hello) &&
         t <= static_cast<std::uint8_t>(FrameType::ModelAck);
}

/// CRC over the first 16 header bytes (magic through seq) continued over
/// the payload — one definition shared by append_frame and the parser.
std::uint32_t frame_crc(const unsigned char* header,
                        std::span<const unsigned char> payload) {
  std::uint32_t crc = math::crc32(header, kHeaderBytes - 4);
  if (!payload.empty()) crc = math::crc32(payload.data(), payload.size(), crc);
  return crc;
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "HELLO";
    case FrameType::HelloAck: return "HELLO_ACK";
    case FrameType::SampleChunk: return "SAMPLE_CHUNK";
    case FrameType::BeatVerdict: return "BEAT_VERDICT";
    case FrameType::FullBeat: return "FULL_BEAT";
    case FrameType::Heartbeat: return "HEARTBEAT";
    case FrameType::Ack: return "ACK";
    case FrameType::Bye: return "BYE";
    case FrameType::ModelPush: return "MODEL_PUSH";
    case FrameType::ModelPushPart: return "MODEL_PUSH_PART";
    case FrameType::ModelAck: return "MODEL_ACK";
  }
  return "?";
}

const char* to_string(ModelPushStatus s) {
  switch (s) {
    case ModelPushStatus::Ok: return "ok";
    case ModelPushStatus::Malformed: return "malformed";
    case ModelPushStatus::BadDigest: return "bad-digest";
    case ModelPushStatus::Duplicate: return "duplicate-version";
    case ModelPushStatus::Downgrade: return "downgrade";
    case ModelPushStatus::BadGeometry: return "bad-geometry";
    case ModelPushStatus::TooLarge: return "too-large";
    case ModelPushStatus::RegistryFull: return "registry-full";
  }
  return "?";
}

const char* to_string(TxPolicy p) {
  switch (p) {
    case TxPolicy::StreamEverything: return "stream-everything";
    case TxPolicy::Selective: return "selective";
  }
  return "?";
}

const char* to_string(HelloStatus s) {
  switch (s) {
    case HelloStatus::Ok: return "ok";
    case HelloStatus::FleetFull: return "fleet-full";
    case HelloStatus::BadWindow: return "bad-window";
    case HelloStatus::BadVersion: return "bad-version";
  }
  return "?";
}

void append_frame(std::vector<unsigned char>& out, FrameType type,
                  std::uint64_t seq, std::span<const unsigned char> payload) {
  HBRP_REQUIRE(payload.size() <= kMaxPayloadBytes,
               "wire: frame payload exceeds kMaxPayloadBytes");
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes);
  unsigned char* h = out.data() + at;
  store_le<std::uint16_t>(h, kWireMagic);
  h[2] = kProtocolVersion;
  h[3] = static_cast<std::uint8_t>(type);
  store_le<std::uint32_t>(h + 4, static_cast<std::uint32_t>(payload.size()));
  store_le<std::uint64_t>(h + 8, seq);
  store_le<std::uint32_t>(h + 16, frame_crc(h, payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<unsigned char> encode_hello(const HelloMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, m.node_id);
  append_le(p, static_cast<std::uint8_t>(m.policy));
  append_le(p, m.window);
  append_le(p, m.fs_hz);
  return p;
}

std::vector<unsigned char> encode_hello_ack(const HelloAckMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, m.session);
  append_le(p, static_cast<std::uint8_t>(m.status));
  return p;
}

std::vector<unsigned char> encode_beat_verdict(const BeatVerdictMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, m.r_peak);
  append_le(p, m.beat_class);
  append_le(p, m.quality);
  return p;
}

std::vector<unsigned char> encode_ack(const AckMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, static_cast<std::uint8_t>(m.acked));
  return p;
}

std::vector<unsigned char> encode_model_push(const ModelPushMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, m.version);
  append_le(p, m.total_bytes);
  append_le(p, m.digest);
  append_le(p, m.part_count);
  append_le(p, m.chunk_bytes);
  return p;
}

std::vector<unsigned char> encode_model_ack(const ModelAckMsg& m) {
  std::vector<unsigned char> p;
  append_le(p, static_cast<std::uint8_t>(m.status));
  append_le(p, m.version);
  return p;
}

std::vector<unsigned char> encode_sample_chunk(
    std::span<const dsp::Sample> samples) {
  HBRP_REQUIRE(!samples.empty() && samples.size() <= kMaxChunkSamples,
               "wire: sample chunk size outside [1, kMaxChunkSamples]");
  std::vector<unsigned char> p;
  append_code_block(p, samples);
  return p;
}

std::vector<unsigned char> encode_full_beat(
    FullBeatMsg m, std::span<const dsp::Sample> window) {
  HBRP_REQUIRE(window.size() <= kMaxWindowSamples,
               "wire: beat window exceeds kMaxWindowSamples");
  m.count = static_cast<std::uint16_t>(window.size());
  std::vector<unsigned char> p;
  append_le(p, m.r_peak);
  append_le(p, m.beat_class);
  append_le(p, m.quality);
  append_code_block(p, window);
  return p;
}

std::optional<HelloMsg> decode_hello(std::span<const unsigned char> payload) {
  if (payload.size() != 4 + 1 + 2 + 4) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  HelloMsg m;
  m.node_id = r.get<std::uint32_t>();
  const auto policy = r.get<std::uint8_t>();
  if (policy > static_cast<std::uint8_t>(TxPolicy::Selective))
    return std::nullopt;
  m.policy = static_cast<TxPolicy>(policy);
  m.window = r.get<std::uint16_t>();
  m.fs_hz = r.get<std::uint32_t>();
  return m;
}

std::optional<HelloAckMsg> decode_hello_ack(
    std::span<const unsigned char> payload) {
  if (payload.size() != 8 + 1) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  HelloAckMsg m;
  m.session = r.get<std::uint64_t>();
  const auto status = r.get<std::uint8_t>();
  if (status > static_cast<std::uint8_t>(HelloStatus::BadVersion))
    return std::nullopt;
  m.status = static_cast<HelloStatus>(status);
  return m;
}

std::optional<BeatVerdictMsg> decode_beat_verdict(
    std::span<const unsigned char> payload) {
  if (payload.size() != 8 + 1 + 1) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  BeatVerdictMsg m;
  m.r_peak = r.get<std::uint64_t>();
  m.beat_class = r.get<std::uint8_t>();
  m.quality = r.get<std::uint8_t>();
  return m;
}

std::optional<AckMsg> decode_ack(std::span<const unsigned char> payload) {
  if (payload.size() != 1) return std::nullopt;
  if (!valid_type(payload[0])) return std::nullopt;
  return AckMsg{static_cast<FrameType>(payload[0])};
}

std::optional<ModelPushMsg> decode_model_push(
    std::span<const unsigned char> payload) {
  if (payload.size() != 8 + 8 + 8 + 4 + 4) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  ModelPushMsg m;
  m.version = r.get<std::uint64_t>();
  m.total_bytes = r.get<std::uint64_t>();
  m.digest = r.get<std::uint64_t>();
  m.part_count = r.get<std::uint32_t>();
  m.chunk_bytes = r.get<std::uint32_t>();
  return m;
}

std::optional<ModelAckMsg> decode_model_ack(
    std::span<const unsigned char> payload) {
  if (payload.size() != 1 + 8) return std::nullopt;
  ByteReader r(payload.data(), payload.size());
  const auto status = r.get<std::uint8_t>();
  if (status > static_cast<std::uint8_t>(ModelPushStatus::RegistryFull))
    return std::nullopt;
  ModelAckMsg m;
  m.status = static_cast<ModelPushStatus>(status);
  m.version = r.get<std::uint64_t>();
  return m;
}

bool decode_sample_chunk(std::span<const unsigned char> payload,
                         std::vector<dsp::Sample>& out) {
  return read_code_block(payload, 1, kMaxChunkSamples, out);
}

bool decode_full_beat(std::span<const unsigned char> payload, FullBeatMsg& m,
                      std::vector<dsp::Sample>& window) {
  if (payload.size() < kFullBeatFixedBytes) return false;
  ByteReader r(payload.data(), payload.size());
  m.r_peak = r.get<std::uint64_t>();
  m.beat_class = r.get<std::uint8_t>();
  m.quality = r.get<std::uint8_t>();
  window.clear();
  if (!read_code_block(payload.subspan(kFullBeatFixedBytes), 0,
                       kMaxWindowSamples, window))
    return false;
  m.count = static_cast<std::uint16_t>(window.size());
  return true;
}

bool FrameParser::feed(std::span<const unsigned char> bytes) {
  if (corrupt_) return false;
  // One frame can occupy at most kHeaderBytes + kMaxPayloadBytes; double
  // that bounds any legitimate backlog mid-frame plus a full queued frame.
  constexpr std::size_t kMaxBacklog = 2 * (kHeaderBytes + kMaxPayloadBytes);
  if (buffered() + bytes.size() > kMaxBacklog) {
    fail("receive backlog exceeded");
    return false;
  }
  // Compact before growing: keeps the buffer from creeping even when the
  // consumer always drains everything.
  if (head_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  return true;
}

FrameParser::Status FrameParser::fail(const char* reason) {
  corrupt_ = true;
  error_ = reason;
  return Status::Corrupt;
}

FrameParser::Status FrameParser::next(FrameView& out) {
  if (corrupt_) return Status::Corrupt;
  const std::size_t avail = buffered();
  if (avail < kHeaderBytes) return Status::NeedMore;
  const unsigned char* h = buf_.data() + head_;
  if (load_le<std::uint16_t>(h) != kWireMagic) return fail("bad frame magic");
  if (h[2] != kProtocolVersion) return fail("protocol version mismatch");
  if (!valid_type(h[3])) return fail("unknown frame type");
  const auto payload_len = load_le<std::uint32_t>(h + 4);
  if (payload_len > kMaxPayloadBytes) return fail("implausible payload length");
  if (avail < kHeaderBytes + payload_len) return Status::NeedMore;
  const std::span<const unsigned char> payload(h + kHeaderBytes, payload_len);
  if (load_le<std::uint32_t>(h + 16) != frame_crc(h, payload))
    return fail("frame checksum mismatch");
  out.type = static_cast<FrameType>(h[3]);
  out.seq = load_le<std::uint64_t>(h + 8);
  out.payload = payload;
  head_ += kHeaderBytes + payload_len;
  return Status::Ok;
}

}  // namespace hbrp::net
