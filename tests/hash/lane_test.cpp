#include "hash/lane.h"

#include <gtest/gtest.h>

#include "hash/kernel_words.h"
#include "hash/md5.h"
#include "hash/md5_kernel.h"
#include "hash/sha1.h"
#include "hash/sha1_kernel.h"
#include "hash/simd/lane_vec.h"

namespace gks::hash {
namespace {

TEST(Lane, BroadcastConstructorFillsAllLanes) {
  const Lane<std::uint32_t, 4> l(0xdeadbeef);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(l[i], 0xdeadbeefu);
}

TEST(Lane, ElementwiseOperators) {
  Lane<std::uint32_t, 2> a;
  a[0] = 0xf0f0f0f0;
  a[1] = 0x12345678;
  Lane<std::uint32_t, 2> b;
  b[0] = 0x0f0f0f0f;
  b[1] = 0x11111111;

  const auto sum = a + b;
  EXPECT_EQ(sum[0], 0xffffffffu);
  EXPECT_EQ(sum[1], 0x23456789u);

  const auto conj = a & b;
  EXPECT_EQ(conj[0], 0u);

  const auto neg = ~a;
  EXPECT_EQ(neg[0], 0x0f0f0f0fu);

  const auto rot = rotl(a, 4);
  EXPECT_EQ(rot[1], 0x23456781u);
}

template <std::size_t N>
void expect_laned_md5_matches_scalar() {
  // N different keys hashed in lockstep must each match the scalar
  // reference — the correctness contract behind the ILP interleaving.
  const char* keys[4] = {"aaaa", "bbbb", "cccc", "dddd"};
  std::array<Lane<std::uint32_t, N>, 16> m{};
  for (std::size_t w = 0; w < 16; ++w) {
    for (std::size_t lane = 0; lane < N; ++lane) {
      m[w][lane] = pack_md5_block(keys[lane]).words[w];
    }
  }
  const auto s = md5_single_block(m);
  for (std::size_t lane = 0; lane < N; ++lane) {
    const auto scalar = md5_single_block(pack_md5_block(keys[lane]).words);
    EXPECT_EQ(s.a[lane], scalar.a) << "lane " << lane;
    EXPECT_EQ(s.b[lane], scalar.b) << "lane " << lane;
    EXPECT_EQ(s.c[lane], scalar.c) << "lane " << lane;
    EXPECT_EQ(s.d[lane], scalar.d) << "lane " << lane;
  }
}

TEST(Lane, Md5TwoLanesMatchScalar) { expect_laned_md5_matches_scalar<2>(); }
TEST(Lane, Md5FourLanesMatchScalar) { expect_laned_md5_matches_scalar<4>(); }

TEST(Lane, Sha1LanesMatchScalar) {
  constexpr std::size_t N = 2;
  const char* keys[N] = {"helloKey", "worldKey"};
  std::array<Lane<std::uint32_t, N>, 16> m{};
  for (std::size_t w = 0; w < 16; ++w) {
    for (std::size_t lane = 0; lane < N; ++lane) {
      m[w][lane] = pack_sha_block(keys[lane]).words[w];
    }
  }
  const auto s = sha1_single_block(m);
  for (std::size_t lane = 0; lane < N; ++lane) {
    const auto scalar = sha1_single_block(pack_sha_block(keys[lane]).words);
    EXPECT_EQ(s.a[lane], scalar.a);
    EXPECT_EQ(s.e[lane], scalar.e);
  }
}

template <std::size_t N>
void expect_lane_pair_round_trips() {
  // Lanes 0..N-1 live in `lo` and N..2N-1 in `hi`: load, lane_get and
  // lane_store must agree on all 2N positions.
  using P = simd::LanePair<N>;
  std::array<std::uint32_t, 2 * N> in;
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = 0x9e3779b9u * static_cast<std::uint32_t>(i + 1);
  }
  const P p = simd::lane_pair_load<N>(in.data());
  std::array<std::uint32_t, 2 * N> out{};
  simd::lane_store(p, out.data());
  EXPECT_EQ(out, in);

  const P mixed = rotl(p ^ P(0xffffffffu), 8) + P(1);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(simd::lane_get(p, i), in[i]) << "lane " << i;
    EXPECT_EQ(simd::lane_get(mixed, i), rotl(~in[i], 8) + 1) << "lane " << i;
  }

  // The test must see a match that only the hi half holds.
  EXPECT_TRUE(simd::any_lane_eq(p, in[N]));
  EXPECT_TRUE(simd::any_lane_eq(p, in[2 * N - 1]));
  EXPECT_TRUE(simd::any_lane_eq(p, in[0]));
  EXPECT_FALSE(simd::any_lane_eq(p, 0u));
}

TEST(LanePair, FourLaneVectorsRoundTrip) {
  expect_lane_pair_round_trips<4>();
}
TEST(LanePair, SixteenLaneVectorsRoundTrip) {
  expect_lane_pair_round_trips<16>();
}

}  // namespace
}  // namespace gks::hash
