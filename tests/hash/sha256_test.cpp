#include "hash/sha256.h"

#include <gtest/gtest.h>

#include "support/error.h"

#include <ostream>
#include <string>
#include <string_view>

namespace gks::hash {
namespace {

struct Sha256Vector {
  const char* message;
  const char* digest;
};

// gtest prints the parameter into each case's name; the default printer
// would dump the pointer bytes, which change from run to run.
void PrintTo(const Sha256Vector& v, std::ostream* os) {
  const std::string_view m(v.message);
  *os << '"' << m.substr(0, 20) << (m.size() > 20 ? "...\"" : "\"");
}

class Sha256KnownVectors : public ::testing::TestWithParam<Sha256Vector> {};

TEST_P(Sha256KnownVectors, MatchesReferenceDigest) {
  const auto& v = GetParam();
  EXPECT_EQ(Sha256::digest(v.message).to_hex(), v.digest);
}

// FIPS 180-4 / NIST CAVP examples.
INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha256KnownVectors,
    ::testing::Values(
        Sha256Vector{
            "abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        Sha256Vector{
            "",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        Sha256Vector{
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        Sha256Vector{
            "The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"}));

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ChunkedUpdateMatchesOneShot) {
  const std::string msg(200, 'q');
  const auto expected = Sha256::digest(msg);
  for (std::size_t chunk : {1u, 13u, 64u, 100u}) {
    Sha256 h;
    for (std::size_t i = 0; i < msg.size(); i += chunk) {
      h.update(std::string_view(msg).substr(i, chunk));
    }
    EXPECT_EQ(h.finalize(), expected) << "chunk " << chunk;
  }
}

TEST(Sha256, MidstateResumptionMatchesDirectDigest) {
  // The nonce search hashes an 80-byte header: 64 fixed bytes (block 1)
  // and 16 varying bytes. Capturing the midstate after block 1 and
  // restoring it per nonce must give identical digests.
  std::string header(80, '\0');
  for (std::size_t i = 0; i < header.size(); ++i)
    header[i] = static_cast<char>('A' + (i % 26));

  Sha256 first;
  first.update(std::string_view(header).substr(0, 64));
  const auto mid = first.midstate();

  for (int nonce = 0; nonce < 16; ++nonce) {
    header[76] = static_cast<char>(nonce);
    Sha256 direct;
    direct.update(header);
    const auto expected = direct.finalize();

    Sha256 resumed;
    resumed.restore(mid, 64);
    resumed.update(std::string_view(header).substr(64));
    EXPECT_EQ(resumed.finalize(), expected) << "nonce " << nonce;
  }
}

TEST(Sha256, MidstateRequiresBlockBoundary) {
  Sha256 h;
  h.update("abc");
  EXPECT_THROW(h.midstate(), InvalidArgument);
}

TEST(Sha256, DoubleHashForBitcoinStyleBlocks) {
  // SHA256d — digest of a digest — as used by the Section I Bitcoin
  // mining motivation.
  const auto inner = Sha256::digest("block");
  const auto outer =
      Sha256::digest(std::span<const std::uint8_t>(inner.bytes));
  EXPECT_NE(outer, inner);
  EXPECT_EQ(outer, Sha256::digest(std::span<const std::uint8_t>(
                       Sha256::digest("block").bytes)));
}

}  // namespace
}  // namespace gks::hash
