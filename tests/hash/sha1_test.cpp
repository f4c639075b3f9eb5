#include "hash/sha1.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>

#include "hash/kernel_words.h"
#include "hash/sha1_kernel.h"

namespace gks::hash {
namespace {

struct Sha1Vector {
  const char* message;
  const char* digest;
};

// gtest prints the parameter into each case's name; the default printer
// would dump the pointer bytes, which change from run to run.
void PrintTo(const Sha1Vector& v, std::ostream* os) {
  const std::string_view m(v.message);
  *os << '"' << m.substr(0, 20) << (m.size() > 20 ? "...\"" : "\"");
}

class Sha1KnownVectors : public ::testing::TestWithParam<Sha1Vector> {};

TEST_P(Sha1KnownVectors, MatchesReferenceDigest) {
  const auto& v = GetParam();
  EXPECT_EQ(Sha1::digest(v.message).to_hex(), v.digest);
}

// RFC 3174 section 7.3 test cases plus standard extras.
INSTANTIATE_TEST_SUITE_P(
    Rfc3174, Sha1KnownVectors,
    ::testing::Values(
        Sha1Vector{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        Sha1Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
        Sha1Vector{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        Sha1Vector{"a", "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8"},
        Sha1Vector{"The quick brown fox jumps over the lazy dog",
                   "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"}));

TEST(Sha1, MillionAs) {
  // RFC 3174 TEST3: one million repetitions of "a".
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, ChunkedUpdateMatchesOneShot) {
  const std::string msg =
      "Streaming SHA1 must agree with the one-shot digest across all "
      "chunkings, including ones that straddle the 64-byte block edge.";
  const auto expected = Sha1::digest(msg);
  for (std::size_t chunk : {1u, 3u, 7u, 16u, 63u, 64u, 65u}) {
    Sha1 h;
    for (std::size_t i = 0; i < msg.size(); i += chunk) {
      h.update(std::string_view(msg).substr(i, chunk));
    }
    EXPECT_EQ(h.finalize(), expected) << "chunk size " << chunk;
  }
}

TEST(Sha1, SingleBlockKernelMatchesStreamingForShortKeys) {
  for (const char* key :
       {"", "a", "abcd", "p4ssw0rd", "exactly20characters!"}) {
    const auto block = pack_sha_block(key);
    const auto s = sha1_single_block(block.words);
    Sha1Digest d;
    const std::uint32_t words[5] = {s.a, s.b, s.c, s.d, s.e};
    for (int i = 0; i < 5; ++i) {
      d.bytes[4 * i + 0] = static_cast<std::uint8_t>(words[i] >> 24);
      d.bytes[4 * i + 1] = static_cast<std::uint8_t>(words[i] >> 16);
      d.bytes[4 * i + 2] = static_cast<std::uint8_t>(words[i] >> 8);
      d.bytes[4 * i + 3] = static_cast<std::uint8_t>(words[i]);
    }
    EXPECT_EQ(d, Sha1::digest(key)) << key;
  }
}

TEST(Sha1, RoundFunctionsMatchRfcDefinitions) {
  const std::uint32_t b = 0x5a5a5a5a, c = 0x0ff00ff0, d = 0x12345678;
  EXPECT_EQ(sha1_round_fn(0, b, c, d), (b & c) | (~b & d));
  EXPECT_EQ(sha1_round_fn(25, b, c, d), b ^ c ^ d);
  EXPECT_EQ(sha1_round_fn(45, b, c, d), (b & c) | (b & d) | (c & d));
  EXPECT_EQ(sha1_round_fn(79, b, c, d), b ^ c ^ d);
}

TEST(Sha1, PartialForwardStepsCompose) {
  // Running 80 steps at once equals running 40 + 40 with the same ring —
  // guarded here because the crack kernel interrupts the loop mid-way.
  const auto block = pack_sha_block("composeTest");
  Sha1State<std::uint32_t> whole{kSha1Init[0], kSha1Init[1], kSha1Init[2],
                                 kSha1Init[3], kSha1Init[4]};
  sha1_forward_steps(whole, block.words, 80);

  // Manual split: the ring must be carried across, so reuse the
  // expansion helper directly.
  std::array<std::uint32_t, 16> ring = block.words;
  std::uint32_t a = kSha1Init[0], b = kSha1Init[1], c = kSha1Init[2],
                d = kSha1Init[3], e = kSha1Init[4];
  for (unsigned t = 0; t < 80; ++t) {
    const std::uint32_t wt = t < 16 ? ring[t] : sha1_expand(ring, t);
    const std::uint32_t f = sha1_round_fn(t, b, c, d);
    const std::uint32_t temp = rotl(a, 5) + f + e + wt + kSha1K[t / 20];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  }
  EXPECT_EQ(whole.a, a);
  EXPECT_EQ(whole.e, e);
}

}  // namespace
}  // namespace gks::hash
