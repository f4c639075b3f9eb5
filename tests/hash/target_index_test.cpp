#include "hash/target_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "support/rng.h"

namespace gks::hash {
namespace {

TEST(TargetIndex, FindsEverySlotOfAWord) {
  const std::vector<std::uint32_t> words = {5, 9, 5, 7, 5};
  const TargetIndex index(words);
  EXPECT_EQ(index.size(), words.size());

  const auto m5 = index.matches(5);
  ASSERT_EQ(m5.size(), 3u);
  // Colliding words report every slot, ascending — a first-match-only
  // lookup would silently drop the later ones.
  EXPECT_EQ(m5[0], 0u);
  EXPECT_EQ(m5[1], 2u);
  EXPECT_EQ(m5[2], 4u);

  const auto m7 = index.matches(7);
  ASSERT_EQ(m7.size(), 1u);
  EXPECT_EQ(m7[0], 3u);

  EXPECT_TRUE(index.matches(6).empty());
}

TEST(TargetIndex, FilterHasNoFalseNegatives) {
  SplitMix64 rng(42);
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 5000; ++i) {
    words.push_back(static_cast<std::uint32_t>(rng()));
  }
  const TargetIndex index(words);
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_TRUE(index.may_match(words[i])) << words[i];
    const auto slots = index.matches(words[i]);
    EXPECT_TRUE(std::find(slots.begin(), slots.end(),
                          static_cast<std::uint32_t>(i)) != slots.end());
  }
}

TEST(TargetIndex, FilterRejectsMostForeignWords) {
  SplitMix64 rng(7);
  std::set<std::uint32_t> in_set;
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 4096; ++i) {
    const auto w = static_cast<std::uint32_t>(rng());
    words.push_back(w);
    in_set.insert(w);
  }
  const TargetIndex index(words);

  // Sized at >= 64 bits per target, the expected false-positive rate is
  // <= 1/64; assert a generous 1/8 so the test never flakes.
  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    const auto w = static_cast<std::uint32_t>(rng());
    if (in_set.count(w)) continue;
    if (index.may_match(w)) {
      ++false_positives;
      // A filter pass on a foreign word must still resolve to no match.
      EXPECT_TRUE(index.matches(w).empty()) << w;
    }
  }
  EXPECT_LT(false_positives, probes / 8);
}

TEST(TargetIndex, SingleTargetAndMinimumFilter) {
  const std::vector<std::uint32_t> words = {0xdeadbeefu};
  const TargetIndex index(words);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_GE(index.bucket_mask() + 1u, 64u);  // 64-bit floor
  EXPECT_TRUE(index.may_match(0xdeadbeefu));
  ASSERT_EQ(index.matches(0xdeadbeefu).size(), 1u);
  EXPECT_EQ(index.matches(0xdeadbeefu)[0], 0u);
}

TEST(TargetIndex, FilterScalesWithTargetCount) {
  std::vector<std::uint32_t> words(65536);
  SplitMix64 rng(3);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng());
  const TargetIndex index(words);
  // 64 bits per target, next power of two: 2^22 buckets.
  EXPECT_EQ(index.bucket_mask() + 1u, 1u << 22);
  EXPECT_STREQ(index.filter_kind(), "direct");
}

TargetIndex::Config forced_bloom() {
  TargetIndex::Config cfg;
  cfg.max_direct_bits = 1;  // any batch overflows the direct cap
  return cfg;
}

TEST(TargetIndex, BloomModeHasNoFalseNegatives) {
  SplitMix64 rng(11);
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 50000; ++i) {
    words.push_back(static_cast<std::uint32_t>(rng()));
  }
  const TargetIndex index(words, forced_bloom());
  EXPECT_STREQ(index.filter_kind(), "bloom");
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_TRUE(index.may_match(words[i])) << words[i];
    const auto slots = index.matches(words[i]);
    ASSERT_TRUE(std::find(slots.begin(), slots.end(),
                          static_cast<std::uint32_t>(i)) != slots.end());
  }
}

TEST(TargetIndex, BloomModeHoldsDesignedFalsePositiveRate) {
  SplitMix64 rng(13);
  std::set<std::uint32_t> in_set;
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 4096; ++i) {
    const auto w = static_cast<std::uint32_t>(rng());
    words.push_back(w);
    in_set.insert(w);
  }
  const TargetIndex index(words, forced_bloom());
  ASSERT_STREQ(index.filter_kind(), "bloom");

  // Designed for 1/64; assert a generous 1/8 so the test never flakes.
  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    const auto w = static_cast<std::uint32_t>(rng());
    if (in_set.count(w)) continue;
    if (index.may_match(w)) {
      ++false_positives;
      EXPECT_TRUE(index.matches(w).empty()) << w;
    }
  }
  EXPECT_LT(false_positives, probes / 8);
}

TEST(TargetIndex, MillionTargetsEngageCacheResidentBloom) {
  SplitMix64 rng(17);
  std::vector<std::uint32_t> words(1u << 20);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng());
  const TargetIndex index(words);  // default config
  // A direct array would want 8 MiB at 1/64; the Bloom gate fits the
  // same rate in ~16 bits/key.
  EXPECT_STREQ(index.filter_kind(), "bloom");
  EXPECT_LE(index.filter_bytes(), std::size_t{4} << 20);

  for (std::size_t i = 0; i < words.size(); i += 997) {
    ASSERT_TRUE(index.may_match(words[i]));
    const auto slots = index.matches(words[i]);
    ASSERT_TRUE(std::find(slots.begin(), slots.end(),
                          static_cast<std::uint32_t>(i)) != slots.end());
  }

  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (index.may_match(static_cast<std::uint32_t>(rng()))) {
      ++false_positives;
    }
  }
  // ~1/64 designed + ~1/4096 true word matches; 1/8 is flake-proof.
  EXPECT_LT(false_positives, probes / 8);
}

TEST(TargetIndex, GateOffAlwaysPassesAndLookupStaysExact) {
  TargetIndex::Config cfg;
  cfg.gate = false;
  const std::vector<std::uint32_t> words = {5, 9, 5};
  const TargetIndex index(words, cfg);
  EXPECT_STREQ(index.filter_kind(), "off");
  SplitMix64 rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(index.may_match(static_cast<std::uint32_t>(rng())));
  }
  ASSERT_EQ(index.matches(5).size(), 2u);
  EXPECT_TRUE(index.matches(6).empty());
}

TEST(TargetIndex, RetiredAtBuildKeepsSlotsAscending) {
  // Retired slots interleave with live ones on an equal word: the
  // survivors keep their numbers and come back ascending.
  const std::vector<std::uint32_t> words = {5, 9, 5, 7, 5, 11};
  const std::vector<std::uint32_t> retired = {2, 3};
  const TargetIndex index(words, TargetIndex::Config(), retired);
  EXPECT_EQ(index.size(), 4u);
  const auto m5 = index.matches(5);
  ASSERT_EQ(m5.size(), 2u);
  EXPECT_EQ(m5[0], 0u);
  EXPECT_EQ(m5[1], 4u);
  EXPECT_TRUE(index.matches(7).empty());
  ASSERT_EQ(index.matches(11).size(), 1u);
  EXPECT_EQ(index.matches(11)[0], 5u);

  // The same on the radix-sort path (>= 4096 live entries): 97 words
  // shared by ~100 slots each, every third slot retired.
  std::vector<std::uint32_t> many(20000);
  std::vector<std::uint32_t> dead;
  for (std::uint32_t i = 0; i < many.size(); ++i) {
    many[i] = i % 97;
    if (i % 3 == 0) dead.push_back(i);
  }
  const TargetIndex big(many, TargetIndex::Config(), dead);
  EXPECT_EQ(big.size(), many.size() - dead.size());
  for (std::uint32_t w = 0; w < 97; w += 12) {
    std::vector<std::uint32_t> expect;
    for (std::uint32_t i = w; i < many.size(); i += 97) {
      if (i % 3 != 0) expect.push_back(i);
    }
    const auto got = big.matches(w);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expect);
  }
}

TEST(TargetIndex, GateIsSizedForTheLiveSlots) {
  // 6000 words, 5000 of them retired: the gate is built for the 1000
  // live ones, exactly as an index over those alone would be.
  SplitMix64 rng(29);
  std::vector<std::uint32_t> words(6000);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng());
  std::vector<std::uint32_t> retired;
  for (std::uint32_t slot = 1000; slot < words.size(); ++slot) {
    retired.push_back(slot);
  }
  const TargetIndex index(words, forced_bloom(), retired);
  const std::vector<std::uint32_t> live(words.begin(), words.begin() + 1000);
  const TargetIndex live_only(live, forced_bloom());
  EXPECT_EQ(index.size(), 1000u);
  EXPECT_EQ(index.filter_bytes(), live_only.filter_bytes());
  for (std::size_t i = 0; i < live.size(); i += 97) {
    const auto slots = index.matches(live[i]);
    ASSERT_TRUE(std::find(slots.begin(), slots.end(),
                          static_cast<std::uint32_t>(i)) != slots.end());
  }
}

TEST(TargetIndex, RetiredAtBuildLeavesNoGhostBits) {
  const std::vector<std::uint32_t> words = {100, 200, 300};
  const TargetIndex index(words, TargetIndex::Config(),
                          std::vector<std::uint32_t>{1});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.matches(200).empty());
  // Direct mode: the retired word set no bit of the array, so it is
  // genuinely absent, not just unreachable.
  EXPECT_FALSE(index.may_match(200));
  EXPECT_TRUE(index.may_match(100));
  ASSERT_EQ(index.matches(300).size(), 1u);
  EXPECT_EQ(index.matches(300)[0], 2u);  // surviving slots keep numbers
}

TEST(TargetIndex, StatsCountGateTraffic) {
  TargetIndexStats stats;
  TargetIndex::Config cfg;
  cfg.stats = &stats;
  const std::vector<std::uint32_t> words = {5, 9};
  const TargetIndex index(words, cfg);

  EXPECT_FALSE(index.matches(5).empty());  // gate hit, real match
  EXPECT_TRUE(index.matches(6).empty());   // gate hit, word-level FP
  index.note_false_positive();             // confirm-level FP
  EXPECT_EQ(stats.gate_hits.load(), 2u);
  EXPECT_EQ(stats.false_positives.load(), 2u);
}

}  // namespace
}  // namespace gks::hash
