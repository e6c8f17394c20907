#include "common/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha256_internal.h"

namespace mlcask {
namespace {

// NIST FIPS 180-4 test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::Digest(input).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  // Feed in awkward pieces to cross the 64-byte block boundary.
  h.Update(data.substr(0, 1));
  h.Update(data.substr(1, 30));
  h.Update(data.substr(31));
  EXPECT_EQ(h.Finish().ToHex(), Sha256::Digest(data).ToHex());
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update("abc");
  Hash256 first = h.Finish();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(h.Finish(), first);
}

TEST(Sha256Test, EmptyUpdateMidBlockIsANoOp) {
  // A default string_view has a null data(); mid-block it must not reach
  // memcpy (UBSan's nonnull check) nor change the digest.
  Sha256 h;
  h.Update("ab");
  h.Update(std::string_view());
  h.Update(nullptr, 0);
  EXPECT_EQ(h.Finish(), Sha256::Digest("ab"));
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::Digest("a"), Sha256::Digest("b"));
  EXPECT_NE(Sha256::Digest("ab"), Sha256::Digest("ba"));
}

TEST(Hash256Test, HexRoundTrip) {
  Hash256 h = Sha256::Digest("round trip");
  Hash256 parsed;
  ASSERT_TRUE(Hash256::FromHex(h.ToHex(), &parsed));
  EXPECT_EQ(parsed, h);
}

TEST(Hash256Test, FromHexRejectsMalformed) {
  Hash256 out;
  EXPECT_FALSE(Hash256::FromHex("zz", &out));
  EXPECT_FALSE(Hash256::FromHex(std::string(63, 'a'), &out));
  EXPECT_FALSE(Hash256::FromHex(std::string(64, 'g'), &out));
  EXPECT_TRUE(Hash256::FromHex(std::string(64, 'a'), &out));
}

TEST(Hash256Test, ShortHexIsPrefix) {
  Hash256 h = Sha256::Digest("prefix");
  EXPECT_EQ(h.ShortHex(8), h.ToHex().substr(0, 8));
  EXPECT_EQ(h.ShortHex(100), h.ToHex());
}

TEST(Hash256Test, ZeroDetection) {
  Hash256 z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(Sha256::Digest("x").IsZero());
}

TEST(Hash256Test, OrderingIsLexicographic) {
  Hash256 a, b;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
}

// Property: digests over a sweep of lengths around block boundaries never
// collide and incremental always equals one-shot.
class Sha256BoundarySweep : public ::testing::TestWithParam<int> {};

TEST_P(Sha256BoundarySweep, IncrementalEqualsOneShotAtBoundary) {
  int len = GetParam();
  std::string data(static_cast<size_t>(len), 'x');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i % 251);
  Sha256 h;
  size_t half = data.size() / 2;
  h.Update(data.substr(0, half));
  h.Update(data.substr(half));
  EXPECT_EQ(h.Finish(), Sha256::Digest(data));
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, Sha256BoundarySweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 127, 128, 129, 1000));

// ---------------------------------------------------------------------------
// Cross-path checks: the scalar and SHA-NI block functions against the FIPS
// vectors, and the dispatched Sha256 against a scalar-only reference.
// ---------------------------------------------------------------------------

using sha256_internal::BlockFn;

/// One-shot SHA-256 over `data` through `blocks_fn` alone: the same padding
/// as Sha256::Finish, written out independently so neither side is checked
/// against itself.
std::string DigestWith(BlockFn blocks_fn, std::string_view data) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const size_t whole = data.size() / 64;
  blocks_fn(state, reinterpret_cast<const uint8_t*>(data.data()), whole);
  std::string tail(data.substr(whole * 64));
  tail.push_back('\x80');
  while (tail.size() % 64 != 56) tail.push_back('\0');
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    tail.push_back(static_cast<char>(bits >> (8 * i)));
  }
  blocks_fn(state, reinterpret_cast<const uint8_t*>(tail.data()),
            tail.size() / 64);
  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out.bytes[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out.ToHex();
}

/// Pseudo-random bytes, fixed by `seed`.
std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng());
  return out;
}

struct FipsVector {
  std::string input;
  const char* hex;
};

std::vector<FipsVector> FipsVectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256PathsTest, DispatchPicksShaNiExactlyWhenTheCpuHasIt) {
  std::printf("[ sha-256  ] dispatched block function: %s\n",
              Sha256::Implementation());
  const BlockFn expected = sha256_internal::ShaNiBlocks() != nullptr
                               ? sha256_internal::ShaNiBlocks()
                               : sha256_internal::ScalarBlocks;
  EXPECT_EQ(sha256_internal::DispatchedBlocks(), expected);
  EXPECT_STREQ(Sha256::Implementation(),
               expected == sha256_internal::ScalarBlocks ? "scalar" : "sha-ni");
}

TEST(Sha256PathsTest, ScalarBlocksMatchFipsVectors) {
  for (const FipsVector& v : FipsVectors()) {
    EXPECT_EQ(DigestWith(sha256_internal::ScalarBlocks, v.input), v.hex)
        << "input length " << v.input.size();
  }
}

TEST(Sha256PathsTest, ShaNiBlocksMatchFipsVectors) {
  const BlockFn sha_ni = sha256_internal::ShaNiBlocks();
  if (sha_ni == nullptr) GTEST_SKIP() << "this CPU has no sha_ni";
  for (const FipsVector& v : FipsVectors()) {
    EXPECT_EQ(DigestWith(sha_ni, v.input), v.hex)
        << "input length " << v.input.size();
  }
}

TEST(Sha256PathsTest, DispatchedEqualsScalarForEveryLengthUpTo1100) {
  const std::string data = RandomBytes(1100, 11);
  for (size_t len = 0; len <= data.size(); ++len) {
    const std::string_view prefix(data.data(), len);
    ASSERT_EQ(Sha256::Digest(prefix).ToHex(),
              DigestWith(sha256_internal::ScalarBlocks, prefix))
        << "length " << len;
  }
}

TEST(Sha256PathsTest, DispatchedIncrementalEqualsScalarOnRandomSplits) {
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t total = rng() % (200u * 1024 + 1);
    const std::string data = RandomBytes(total, static_cast<uint32_t>(trial));
    Sha256 h;
    size_t fed = 0;
    while (fed < total) {
      // Mostly small pieces (partial-block top-ups), sometimes large runs.
      const size_t cap = rng() % 4 == 0 ? 20000 : 130;
      const size_t piece = std::min<size_t>(total - fed, rng() % (cap + 1));
      h.Update(data.data() + fed, piece);
      fed += piece;
    }
    ASSERT_EQ(h.Finish().ToHex(),
              DigestWith(sha256_internal::ScalarBlocks, data))
        << "trial " << trial << ", " << total << " bytes";
  }
}

}  // namespace
}  // namespace mlcask
