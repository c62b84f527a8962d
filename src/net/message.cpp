#include "net/message.hpp"

#include <cstring>

#include "nn/serialize.hpp"
#include "utils/crc32.hpp"
#include "utils/error.hpp"

namespace fedclust::net {
namespace {

constexpr char kMagic[4] = {'F', 'C', 'M', 'G'};
// Version 2 added the payload CRC-32 field to the frame header.
constexpr std::uint16_t kRawVersion = 2;
// Version 3 frames carry an update-codec payload (codec id +
// encoded-byte length in the header; CRC sealing the encoded bytes).
constexpr std::uint16_t kCodecVersion = 3;

void splice_crc(std::vector<std::uint8_t>& buf, std::size_t crc_pos,
                std::size_t payload_pos) {
  const std::uint32_t crc =
      crc32(buf.data() + payload_pos, buf.size() - payload_pos);
  buf[crc_pos] = static_cast<std::uint8_t>(crc & 0xff);
  buf[crc_pos + 1] = static_cast<std::uint8_t>((crc >> 8) & 0xff);
  buf[crc_pos + 2] = static_cast<std::uint8_t>((crc >> 16) & 0xff);
  buf[crc_pos + 3] = static_cast<std::uint8_t>((crc >> 24) & 0xff);
}

}  // namespace

const char* to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kModelBroadcast:
      return "model_broadcast";
    case MessageKind::kModelUpdate:
      return "model_update";
    case MessageKind::kPartialUpdate:
      return "partial_update";
    case MessageKind::kBasisUpload:
      return "basis_upload";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode(const Message& m) {
  std::vector<std::uint8_t> buf;
  if (m.codec_frame) {
    buf.reserve(kCodecHeaderBytes + m.encoded.size());
    nn::wire::put_bytes(buf, kMagic, sizeof(kMagic));
    nn::wire::put_u16(buf, kCodecVersion);
    nn::wire::put_u16(buf, static_cast<std::uint16_t>(m.header.kind));
    nn::wire::put_u32(buf, m.header.round);
    nn::wire::put_u32(buf, m.header.sender);
    // The uncompressed length cannot be recovered from the encoded
    // bytes, so the caller-provided header value goes on the wire.
    nn::wire::put_u64(buf, m.header.payload_floats);
    nn::wire::put_u16(buf, m.header.codec);
    nn::wire::put_u64(buf, static_cast<std::uint64_t>(m.encoded.size()));
    // Checksum the payload exactly as it goes on the wire: the encoded
    // codec bytes, not the floats they decode to.
    const std::size_t crc_pos = buf.size();
    nn::wire::put_u32(buf, 0);
    const std::size_t payload_pos = buf.size();
    nn::wire::put_bytes(buf, m.encoded.data(), m.encoded.size());
    splice_crc(buf, crc_pos, payload_pos);
    return buf;
  }
  buf.reserve(kHeaderBytes + m.payload.size() * 4);
  nn::wire::put_bytes(buf, kMagic, sizeof(kMagic));
  nn::wire::put_u16(buf, kRawVersion);
  nn::wire::put_u16(buf, static_cast<std::uint16_t>(m.header.kind));
  nn::wire::put_u32(buf, m.header.round);
  nn::wire::put_u32(buf, m.header.sender);
  nn::wire::put_u64(buf, static_cast<std::uint64_t>(m.payload.size()));
  // Checksum the payload exactly as it goes on the wire: encode it first,
  // CRC the encoded bytes, then splice the checksum into the header slot.
  const std::size_t crc_pos = buf.size();
  nn::wire::put_u32(buf, 0);
  const std::size_t payload_pos = buf.size();
  nn::wire::put_f32(buf, m.payload);
  splice_crc(buf, crc_pos, payload_pos);
  return buf;
}

Message decode(std::span<const std::uint8_t> buf) {
  nn::wire::Reader r(buf);
  char magic[4];
  r.raw(magic, sizeof(magic));
  FEDCLUST_CHECK(std::memcmp(magic, kMagic, 4) == 0,
                 "not a fedclust network message");
  const std::uint16_t version = r.u16();
  FEDCLUST_CHECK(version == kRawVersion || version == kCodecVersion,
                 "unsupported message version " << version);

  Message m;
  const std::uint16_t kind = r.u16();
  FEDCLUST_CHECK(kind >= 1 &&
                     kind <= static_cast<std::uint16_t>(
                                 MessageKind::kBasisUpload),
                 "unknown message kind " << kind);
  m.header.kind = static_cast<MessageKind>(kind);
  m.header.round = r.u32();
  m.header.sender = r.u32();
  m.header.payload_floats = r.u64();
  if (version == kCodecVersion) {
    m.codec_frame = true;
    m.header.codec = r.u16();
    m.header.payload_bytes = r.u64();
    m.header.payload_crc = r.u32();
    FEDCLUST_CHECK(r.remaining() == m.header.payload_bytes,
                   "message payload length mismatch: header says "
                       << m.header.payload_bytes << " bytes, buffer has "
                       << r.remaining());
  } else {
    m.header.payload_crc = r.u32();
    // Divide instead of multiplying: payload_floats * 4 can wrap.
    FEDCLUST_CHECK(r.remaining() % 4 == 0 &&
                       r.remaining() / 4 == m.header.payload_floats,
                   "message payload length mismatch: header says "
                       << m.header.payload_floats << " floats, buffer has "
                       << r.remaining() << " bytes");
  }
  const std::uint32_t actual_crc =
      crc32(buf.data() + r.position(), r.remaining());
  FEDCLUST_CHECK(actual_crc == m.header.payload_crc,
                 "message payload checksum mismatch: header says 0x"
                     << std::hex << m.header.payload_crc << ", payload hashes "
                     << "to 0x" << actual_crc
                     << " — frame corrupted in transit");
  if (m.codec_frame) {
    m.encoded.resize(m.header.payload_bytes);
    r.raw(m.encoded.data(), m.encoded.size());
  } else {
    m.payload.resize(m.header.payload_floats);
    r.f32(m.payload);
  }
  return m;
}

}  // namespace fedclust::net
