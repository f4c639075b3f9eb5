// Block fill and lane positions of the lane kernels. A lane kernel
// fills a block's word-0 lanes with PrefixWord0Iterator::next_words,
// which steps the first character in-line and leaves its carries to
// advance(). These tests pin that fill to n word0()/advance() pairs and
// plant a hit at every lane of a block, and in the scalar tail, at each
// width the host can execute: MD5 and SHA1, single- and multi-target.
// The scenarios include a 3-character charset (one block crosses
// several first-character carries), a charset of exactly N characters,
// and key lengths 1-3, where the 0x80 pad byte sits inside word 0.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "hash/md5.h"
#include "hash/md5_crack.h"
#include "hash/multi_crack.h"
#include "hash/sha1.h"
#include "hash/sha1_crack.h"
#include "hash/simd/dispatch.h"

namespace gks::hash::simd {
namespace {

struct Scenario {
  std::string charset;
  std::size_t key_len;
};

unsigned prefix_chars(std::size_t key_len) {
  return static_cast<unsigned>(key_len < 4 ? key_len : 4);
}

PrefixWord0Iterator iterator_for(const Scenario& sc, bool big_endian) {
  return PrefixWord0Iterator({sc.charset.data(), sc.charset.size()},
                             prefix_chars(sc.key_len), sc.key_len,
                             big_endian);
}

std::uint64_t combinations(const Scenario& sc) {
  std::uint64_t n = 1;
  for (unsigned i = 0; i < prefix_chars(sc.key_len); ++i) {
    n *= sc.charset.size();
  }
  return n;
}

/// The key `offset` advances into the scan; every key of a scenario
/// shares one tail, so a multi-target context can hold them all.
std::string key_at_offset(const Scenario& sc, std::uint64_t offset,
                          bool big_endian) {
  auto it = iterator_for(sc, big_endian);
  for (std::uint64_t i = 0; i < offset; ++i) it.advance();
  std::string key(it.prefix().begin(), it.prefix().end());
  for (std::size_t i = 0; key.size() < sc.key_len; ++i) {
    key.push_back(sc.charset[(3 * i + 1) % sc.charset.size()]);
  }
  return key;
}

std::string tail_of(const std::string& key) {
  return key.size() > 4 ? key.substr(4) : std::string();
}

std::string first_chars(std::size_t n) {
  return std::string("abcdefghijklmnopqrstuvwxyz").substr(0, n);
}

/// Scenarios for lane width n: three characters at several lengths, n
/// characters at key lengths 1-4, and one longer key.
std::vector<Scenario> scenarios(unsigned n) {
  std::vector<Scenario> out;
  for (const std::size_t len : {2u, 3u, 4u, 5u}) out.push_back({"abc", len});
  for (const std::size_t len : {1u, 2u, 3u, 4u}) {
    out.push_back({first_chars(n), len});
  }
  out.push_back({first_chars(n), 7});
  return out;
}

/// Scan length and hit positions for one scenario: every lane of the
/// second block (the first if the space holds fewer than two), plus
/// the last candidate when it falls in the scalar tail.
struct Plan {
  std::uint64_t count;
  std::vector<std::uint64_t> plants;
};

Plan plan_for(const Scenario& sc, unsigned n) {
  Plan p;
  p.count = std::min<std::uint64_t>(combinations(sc), 2 * n + 3);
  const std::uint64_t block = p.count >= 2 * n ? 1 : 0;
  for (unsigned l = 0; l < n; ++l) {
    if (block * n + l < p.count) p.plants.push_back(block * n + l);
  }
  if (p.count % n != 0 && p.plants.back() != p.count - 1) {
    p.plants.push_back(p.count - 1);
  }
  return p;
}

std::string label(const char* algo, unsigned n, const Scenario& sc) {
  return std::string(algo) + " w" + std::to_string(n) + " cs=" + sc.charset +
         " len=" + std::to_string(sc.key_len);
}

/// Runs `scan` from a fresh iterator and checks the hit offset and the
/// position it leaves the iterator at against the scalar engine and
/// against the planted offset.
template <class Ctx, class Scan>
void expect_single_hit(const Ctx& ctx, const Scenario& sc, bool big_endian,
                       std::uint64_t count, std::uint64_t plant,
                       const Scan& scalar, const Scan& lane,
                       const std::string& what) {
  auto scalar_it = iterator_for(sc, big_endian);
  auto lane_it = iterator_for(sc, big_endian);
  const std::optional<std::uint64_t> ref = scalar(ctx, scalar_it, count);
  const std::optional<std::uint64_t> got = lane(ctx, lane_it, count);
  ASSERT_TRUE(ref.has_value()) << what;
  ASSERT_TRUE(got.has_value()) << what;
  EXPECT_EQ(*ref, plant) << what;
  EXPECT_EQ(*got, plant) << what;
  EXPECT_EQ(lane_it.word0(), scalar_it.word0()) << what;
  EXPECT_TRUE(std::ranges::equal(lane_it.prefix(), scalar_it.prefix()))
      << what;
}

TEST(LaneBlockFill, NextWordsEqualsWord0AdvancePairs) {
  const std::vector<std::string> charsets = {"x", "abc", "abcd",
                                             first_chars(16), first_chars(26)};
  for (const std::string& cs : charsets) {
    for (std::size_t key_len = 1; key_len <= 5; ++key_len) {
      for (const bool big_endian : {false, true}) {
        const Scenario sc{cs, key_len};
        const std::uint64_t combos = combinations(sc);
        // Spaces under 400 prefixes wrap at least once.
        const std::uint64_t total = std::min<std::uint64_t>(combos, 400) + 37;
        for (const std::size_t n : {0u, 1u, 3u, 4u, 8u, 16u, 17u}) {
          const std::string what = "cs=" + cs + " len=" +
                                   std::to_string(key_len) + " be=" +
                                   std::to_string(big_endian) +
                                   " n=" + std::to_string(n);
          auto ref = iterator_for(sc, big_endian);
          auto it = iterator_for(sc, big_endian);
          // Start at a position that is not block-aligned.
          for (std::uint64_t i = 0; i < combos - 1 && i < 5; ++i) {
            ref.advance();
            it.advance();
          }
          std::vector<std::uint32_t> want, got(n);
          for (std::uint64_t done = 0; done + n <= total && n > 0;
               done += n) {
            want.clear();
            for (std::size_t l = 0; l < n; ++l) {
              want.push_back(ref.word0());
              ref.advance();
            }
            it.next_words(got.data(), n);
            ASSERT_EQ(got, want) << what << " at " << done;
            ASSERT_EQ(it.word0(), ref.word0()) << what << " at " << done;
            ASSERT_TRUE(std::ranges::equal(it.prefix(), ref.prefix()))
                << what << " at " << done;
          }
          it.next_words(got.data(), 0);
          EXPECT_EQ(it.word0(), ref.word0()) << what;
          // The iterator stays usable by advance() after a fill.
          EXPECT_EQ(it.advance(), ref.advance()) << what;
          EXPECT_EQ(it.word0(), ref.word0()) << what;
        }
      }
    }
  }
}

TEST(LaneBlockFill, NextWordsWrapsPastTheLastPrefix) {
  // 9 prefixes: a 16-word fill runs through all of them, wraps to the
  // first, and stops at prefix 16 mod 9 = 7.
  const Scenario sc{"abc", 2};
  auto it = iterator_for(sc, false);
  std::vector<std::uint32_t> words(16);
  it.next_words(words.data(), words.size());
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(words[i], words[j]);
  }
  for (std::size_t i = 9; i < 16; ++i) EXPECT_EQ(words[i], words[i - 9]);
  auto ref = iterator_for(sc, false);
  for (int i = 0; i < 7; ++i) ref.advance();
  EXPECT_EQ(it.word0(), ref.word0());
  EXPECT_TRUE(std::ranges::equal(it.prefix(), ref.prefix()));
}

TEST(LaneBlockFill, Md5HitAtEveryLaneSingleTarget) {
  for (const ScanKernels& k : available_kernels()) {
    for (const Scenario& sc : scenarios(k.width)) {
      const Plan p = plan_for(sc, k.width);
      for (const std::uint64_t plant : p.plants) {
        const std::string key = key_at_offset(sc, plant, false);
        const Md5CrackContext ctx(Md5::digest(key), tail_of(key),
                                  key.size());
        expect_single_hit(ctx, sc, false, p.count, plant,
                          Md5ScanFn(&md5_scan_prefixes), k.md5_scan,
                          label("md5", k.width, sc) + " plant=" +
                              std::to_string(plant));
      }
    }
  }
}

TEST(LaneBlockFill, Sha1HitAtEveryLaneSingleTarget) {
  for (const ScanKernels& k : available_kernels()) {
    for (const Scenario& sc : scenarios(k.width)) {
      const Plan p = plan_for(sc, k.width);
      for (const std::uint64_t plant : p.plants) {
        const std::string key = key_at_offset(sc, plant, true);
        const Sha1CrackContext ctx(Sha1::digest(key), tail_of(key),
                                   key.size());
        expect_single_hit(ctx, sc, true, p.count, plant,
                          Sha1ScanFn(&sha1_scan_prefixes), k.sha1_scan,
                          label("sha1", k.width, sc) + " plant=" +
                              std::to_string(plant));
      }
    }
  }
}

/// One multi-target context holding every planted key: the lane and
/// scalar engines must both report exactly one hit per plant, at its
/// offset, and leave the iterator in the same place.
template <class Ctx, class Scan>
void expect_multi_hits(const Ctx& ctx, const Scenario& sc, bool big_endian,
                       const Plan& p, const Scan& scalar, const Scan& lane,
                       const std::string& what) {
  auto scalar_it = iterator_for(sc, big_endian);
  auto lane_it = iterator_for(sc, big_endian);
  std::vector<MultiHit> ref, got;
  scalar(ctx, scalar_it, p.count, ref);
  lane(ctx, lane_it, p.count, got);
  EXPECT_EQ(got, ref) << what;
  ASSERT_EQ(got.size(), p.plants.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].offset, p.plants[i]) << what;
    EXPECT_EQ(got[i].slot, i) << what;
  }
  EXPECT_EQ(lane_it.word0(), scalar_it.word0()) << what;
  EXPECT_TRUE(std::ranges::equal(lane_it.prefix(), scalar_it.prefix()))
      << what;
}

TEST(LaneBlockFill, Md5HitAtEveryLaneMultiTarget) {
  for (const ScanKernels& k : available_kernels()) {
    for (const Scenario& sc : scenarios(k.width)) {
      const Plan p = plan_for(sc, k.width);
      std::vector<Md5Digest> targets;
      for (const std::uint64_t plant : p.plants) {
        targets.push_back(Md5::digest(key_at_offset(sc, plant, false)));
      }
      const std::string key = key_at_offset(sc, 0, false);
      const Md5MultiContext ctx(targets, tail_of(key), key.size());
      expect_multi_hits(ctx, sc, false, p,
                        Md5MultiScanFn(&md5_multi_scan_prefixes),
                        k.md5_multi_scan, label("md5 multi", k.width, sc));
    }
  }
}

TEST(LaneBlockFill, Sha1HitAtEveryLaneMultiTarget) {
  for (const ScanKernels& k : available_kernels()) {
    for (const Scenario& sc : scenarios(k.width)) {
      const Plan p = plan_for(sc, k.width);
      std::vector<Sha1Digest> targets;
      for (const std::uint64_t plant : p.plants) {
        targets.push_back(Sha1::digest(key_at_offset(sc, plant, true)));
      }
      const std::string key = key_at_offset(sc, 0, true);
      const Sha1MultiContext ctx(targets, tail_of(key), key.size());
      expect_multi_hits(ctx, sc, true, p,
                        Sha1MultiScanFn(&sha1_multi_scan_prefixes),
                        k.sha1_multi_scan, label("sha1 multi", k.width, sc));
    }
  }
}

}  // namespace
}  // namespace gks::hash::simd
