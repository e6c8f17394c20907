#include "common/sha256.h"

#include <cstring>

#include "common/sha256_internal.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace mlcask {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t RotR(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Hash256::ToHex() const {
  std::string out;
  out.reserve(64);
  for (uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

std::string Hash256::ShortHex(size_t n) const {
  std::string full = ToHex();
  return full.substr(0, n < full.size() ? n : full.size());
}

bool Hash256::FromHex(std::string_view hex, Hash256* out) {
  if (hex.size() != 64 || out == nullptr) return false;
  for (size_t i = 0; i < 32; ++i) {
    int hi = HexValue(hex[2 * i]);
    int lo = HexValue(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->bytes[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return true;
}

bool Hash256::IsZero() const {
  for (uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

namespace sha256_internal {

void ScalarBlocks(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

namespace {

// Each SHA256RNDS2 does two rounds on the state split as ABEF/CDGH; a loop
// step does four rounds and, from the fifth step on, derives its four
// schedule words from the previous sixteen (SHA256MSG1/MSG2). Loads are
// unaligned: callers hash straight from arbitrary buffers.
__attribute__((target("sha,sse4.1,ssse3"))) void ShaNiBlocksImpl(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  // Byte-swaps each 32-bit lane: message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);          // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int step = 0; step < 16; ++step) {
      __m128i words;
      if (step < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(data + 16 * step)),
            kByteSwap);
      } else {
        // W[t..t+3] from W[t-16..t-1]: msg1 adds sigma0(W[t-15..]) to
        // W[t-16..], then W[t-7..t-4] is added, and msg2 adds sigma1.
        const __m128i& w16 = msg[step & 3];
        const __m128i& w12 = msg[(step + 1) & 3];
        const __m128i& w8 = msg[(step + 2) & 3];
        const __m128i& w4 = msg[(step + 3) & 3];
        words = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                              _mm_alignr_epi8(w4, w8, 4));
        words = _mm_sha256msg2_epu32(words, w4);
      }
      msg[step & 3] = words;
      __m128i k = _mm_add_epi32(
          words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                     &kRoundConstants[4 * step])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, k);
      k = _mm_shuffle_epi32(k, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, k);
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

}  // namespace

BlockFn ShaNiBlocks() {
  static const bool supported = CpuHasShaNi();
  return supported ? ShaNiBlocksImpl : nullptr;
}

#else

BlockFn ShaNiBlocks() { return nullptr; }

#endif  // defined(__x86_64__)

BlockFn DispatchedBlocks() {
  // A function-local static: initialized on first use, thread-safe, and
  // therefore correct even when a static initializer hashes something.
  static const BlockFn chosen =
      ShaNiBlocks() != nullptr ? ShaNiBlocks() : ScalarBlocks;
  return chosen;
}

}  // namespace sha256_internal

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  if (len == 0) return;  // `data` may be null; memcpy must not see it
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  const sha256_internal::BlockFn blocks_fn =
      sha256_internal::DispatchedBlocks();
  if (buffer_len_ > 0) {
    // Top up the pending partial block first.
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    blocks_fn(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer, no copy.
  const size_t whole = len / 64;
  if (whole > 0) {
    blocks_fn(state_, p, whole);
    p += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit count, written
  // into buffer_ directly (the length field is not message data).
  const sha256_internal::BlockFn blocks_fn =
      sha256_internal::DispatchedBlocks();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    blocks_fn(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  blocks_fn(state_, buffer_, 1);
  buffer_len_ = 0;

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i + 0] = static_cast<uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256::Digest(std::string_view data) {
  return Digest(data.data(), data.size());
}

Hash256 Sha256::Digest(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

const char* Sha256::Implementation() {
  return sha256_internal::DispatchedBlocks() == sha256_internal::ScalarBlocks
             ? "scalar"
             : "sha-ni";
}

}  // namespace mlcask
