#include "hash/md5.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>
#include <tuple>

#include "hash/kernel_words.h"
#include "hash/md5_kernel.h"

namespace gks::hash {
namespace {

// RFC 1321 appendix A.5 test suite.
struct Rfc1321Vector {
  const char* message;
  const char* digest;
};

// gtest prints the parameter into each case's name; the default printer
// would dump the pointer bytes, which change from run to run.
void PrintTo(const Rfc1321Vector& v, std::ostream* os) {
  const std::string_view m(v.message);
  *os << '"' << m.substr(0, 20) << (m.size() > 20 ? "...\"" : "\"");
}

class Md5Rfc1321 : public ::testing::TestWithParam<Rfc1321Vector> {};

TEST_P(Md5Rfc1321, MatchesReferenceDigest) {
  const auto& v = GetParam();
  EXPECT_EQ(Md5::digest(v.message).to_hex(), v.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Rfc1321,
    ::testing::Values(
        Rfc1321Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Rfc1321Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Rfc1321Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Rfc1321Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Rfc1321Vector{"abcdefghijklmnopqrstuvwxyz",
                      "c3fcd3d76192e4007dfb496cca67e13b"},
        Rfc1321Vector{
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f"},
        Rfc1321Vector{"1234567890123456789012345678901234567890123456789012345"
                      "6789012345678901234567890",
                      "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, ChunkedUpdateMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "several 64-byte block boundaries in this streaming test.";
  const auto expected = Md5::digest(msg);
  for (std::size_t chunk = 1; chunk <= msg.size(); ++chunk) {
    Md5 h;
    for (std::size_t i = 0; i < msg.size(); i += chunk) {
      h.update(std::string_view(msg).substr(i, chunk));
    }
    EXPECT_EQ(h.finalize(), expected) << "chunk size " << chunk;
  }
}

TEST(Md5, ExactBlockBoundaryLengths) {
  // 55 is the largest single-block message; 56, 63, 64, 65 force the
  // two-block padding paths.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Md5 a;
    a.update(msg);
    Md5 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finalize(), b.finalize()) << "len " << len;
  }
}

TEST(Md5, DigestOfBinaryData) {
  const std::uint8_t data[] = {0x00, 0xff, 0x80, 0x7f};
  EXPECT_EQ(Md5::digest(std::span<const std::uint8_t>(data)).to_hex().size(),
            32u);
}

TEST(Md5, SingleBlockKernelMatchesStreamingForShortKeys) {
  for (const char* key : {"", "a", "abcd", "p4ssw0rd", "exactly20characters!",
                          "a-55-byte-message-that-fills-the-single-block-path-xx"}) {
    const auto block = pack_md5_block(key);
    std::array<std::uint32_t, 16> m = block.words;
    const auto s = md5_single_block(m);
    Md5Digest d;
    for (int i = 0; i < 4; ++i) {
      const std::uint32_t w = (i == 0 ? s.a : i == 1 ? s.b : i == 2 ? s.c : s.d);
      d.bytes[4 * i + 0] = static_cast<std::uint8_t>(w);
      d.bytes[4 * i + 1] = static_cast<std::uint8_t>(w >> 8);
      d.bytes[4 * i + 2] = static_cast<std::uint8_t>(w >> 16);
      d.bytes[4 * i + 3] = static_cast<std::uint8_t>(w >> 24);
    }
    EXPECT_EQ(d, Md5::digest(key)) << key;
  }
}

TEST(Md5, ReverseStepsInvertsForwardSteps) {
  const auto block = pack_md5_block("someKey9");
  Md5State<std::uint32_t> s{kMd5Init[0], kMd5Init[1], kMd5Init[2],
                            kMd5Init[3]};
  md5_forward_steps(s, block.words, 64);
  const Md5State<std::uint32_t> full = s;

  // Reverting 63..49 must land exactly on the state after step 48.
  Md5State<std::uint32_t> fwd49{kMd5Init[0], kMd5Init[1], kMd5Init[2],
                                kMd5Init[3]};
  md5_forward_steps(fwd49, block.words, 49);

  Md5State<std::uint32_t> rev = full;
  md5_reverse_steps(rev, block.words, 49);
  EXPECT_EQ(rev.a, fwd49.a);
  EXPECT_EQ(rev.b, fwd49.b);
  EXPECT_EQ(rev.c, fwd49.c);
  EXPECT_EQ(rev.d, fwd49.d);
}

TEST(Md5, ReverseAllStepsRecoversInitialState) {
  const auto block = pack_md5_block("xyz");
  Md5State<std::uint32_t> s{kMd5Init[0], kMd5Init[1], kMd5Init[2],
                            kMd5Init[3]};
  md5_forward_steps(s, block.words, 64);
  md5_reverse_steps(s, block.words, 0);
  EXPECT_EQ(s.a, kMd5Init[0]);
  EXPECT_EQ(s.b, kMd5Init[1]);
  EXPECT_EQ(s.c, kMd5Init[2]);
  EXPECT_EQ(s.d, kMd5Init[3]);
}

TEST(Md5, MessageIndexMatchesRfcSchedule) {
  // Round openings from RFC 1321: step 16 uses m[1], step 32 uses m[5],
  // step 48 uses m[0].
  EXPECT_EQ(md5_msg_index(0), 0u);
  EXPECT_EQ(md5_msg_index(15), 15u);
  EXPECT_EQ(md5_msg_index(16), 1u);
  EXPECT_EQ(md5_msg_index(32), 5u);
  EXPECT_EQ(md5_msg_index(48), 0u);
}

TEST(Md5, Word0NotUsedInLast15Steps) {
  // The property the reversal optimization rests on (Section V-B).
  for (unsigned step = 49; step < 64; ++step) {
    EXPECT_NE(md5_msg_index(step), 0u) << "step " << step;
  }
  // And word 0 is used exactly four times in total.
  int uses = 0;
  for (unsigned step = 0; step < 64; ++step) {
    if (md5_msg_index(step) == 0) ++uses;
  }
  EXPECT_EQ(uses, 4);
}

}  // namespace
}  // namespace gks::hash
