#ifndef MLCASK_STORAGE_FRAME_H_
#define MLCASK_STORAGE_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mlcask::storage {

/// Wire frame carrying one multiplexed RPC message. Layout (little-endian),
/// 14 header bytes followed by the payload:
///
///   byte  0      wire-format version
///   byte  1      frame type: 0 = data, 1 = transport error, 2 = chunk,
///                3 = chunk end
///   bytes 2..9   correlation id (uint64) — pairs a response to its request
///   bytes 10..13 payload length (uint32)
///
/// The HEADER layout is frozen forever; the version byte governs only the
/// payload semantics. That way a peer speaking any other version still
/// parses our headers, and we can answer its (to us unreadable) requests
/// with a correctly-correlated Unimplemented error frame instead of
/// mis-parsing the stream — the failure is a clear status, never silent
/// corruption.
///
/// Version history:
///   1  JSON payloads with hex-encoded binary. Retired: a version-1 frame is
///      answered like any other unknown version, with a correlated
///      Unimplemented error frame.
///   2  Binary zero-copy codec (storage/wire_codec.h) plus CHUNK/CHUNK_END
///      streaming frames for large values. The only version this build
///      speaks.
inline constexpr uint8_t kWireVersion = 2;

/// Frames above this payload size are rejected as corrupt before any
/// allocation: a garbled length field must not make the reader try to buffer
/// gigabytes. Generous for real traffic (merge winners are a few MiB).
inline constexpr uint32_t kMaxFramePayload = 256u << 20;  // 256 MiB

enum class FrameType : uint8_t {
  kData = 0,
  /// Payload is "<code>:<message>" describing a transport-level Status the
  /// peer could not express as an application response (e.g. version skew).
  kError = 1,
  /// One content-defined slice of a large message, sharing the correlation
  /// id with its siblings.
  kChunk = 2,
  /// Terminates a chunk stream: payload is EncodeChunkEnd() — total size,
  /// chunk count, and the manifest hash over the chunk addresses, so a
  /// reassembled value is integrity-checked end to end.
  kChunkEnd = 3,
};

struct Frame {
  FrameType type = FrameType::kData;
  uint64_t id = 0;
  std::string payload;
};

/// Appends one 14-byte frame header (no payload) to `out` — the scatter-
/// gather send paths pair it with the payload in an iovec instead of
/// coalescing them into one buffer.
void AppendFrameHeader(std::string* out, FrameType type, uint64_t id,
                       uint32_t payload_size, uint8_t version = kWireVersion);

/// Appends one fully encoded frame to `out`. `version` is overridable so
/// tests can forge mismatched peers; production callers never pass it.
void AppendFrame(std::string* out, FrameType type, uint64_t id,
                 std::string_view payload, uint8_t version = kWireVersion);

/// Encodes a transport-level error as an error frame payload / decodes it
/// back. A payload that does not parse decodes as Corruption.
std::string EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(std::string_view payload);

/// Incremental frame parser for one byte stream. Feed() appends raw bytes;
/// Next() extracts complete frames. All failure modes surface as statuses —
/// the decoder never throws, never over-reads, and never buffers an
/// oversized frame:
///
///   truncated   Next() returns false (need more bytes); Finish() at stream
///               end reports Corruption if a partial frame is buffered
///   oversized   length field beyond max_payload -> Corruption
///   bad type    unknown frame type -> Corruption
///   version     any version other than kWireVersion -> Unimplemented,
///               with out->id still filled from the (frozen-layout)
///               header so a server can answer the right request with an
///               error frame
///
/// Corruption errors are STICKY — the stream is unrecoverable and further
/// Next() calls return the same error. The version-mismatch Unimplemented
/// is NOT: the offending frame is consumed whole (its length field is
/// trustworthy, the header layout being frozen) and the stream stays
/// decodable, so one foreign-version message never takes down a session.
///
/// Buffering is offset-based: consumed frames advance a read cursor and the
/// prefix is compacted lazily, so a burst of small chunk frames costs one
/// amortized move instead of one erase() per frame. peak_buffer_bytes()
/// reports the high-water mark of live buffered bytes — the number the
/// chunk-streaming acceptance bound (receive buffer is O(chunk), not
/// O(value)) is asserted against.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(std::string_view bytes) {
    buffer_.append(bytes);
    const uint64_t live = buffer_.size() - pos_;
    if (live > peak_buffer_bytes_) peak_buffer_bytes_ = live;
  }

  /// True: one frame extracted into *out. False: need more bytes.
  /// Error: stream corrupt/unsupported (see above).
  StatusOr<bool> Next(Frame* out);

  /// Call at orderly stream end: Ok if no partial frame was buffered.
  Status Finish() const;

  /// High-water mark of live (unconsumed) buffered bytes.
  uint64_t peak_buffer_bytes() const { return peak_buffer_bytes_; }

 private:
  /// Drops the consumed prefix once it outweighs the live remainder, so the
  /// buffer never holds more than ~2x the live bytes.
  void Compact();

  uint32_t max_payload_;
  std::string buffer_;
  size_t pos_ = 0;  ///< Read cursor: bytes before it are consumed.
  uint64_t peak_buffer_bytes_ = 0;
  Status fatal_;  ///< Sticky decode failure.
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_FRAME_H_
