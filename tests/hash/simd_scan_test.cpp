// Differential sweep of the runtime-dispatched SIMD lane engine: every
// width the host can execute must be bit-identical to the scalar
// engines — same hit offsets, same iterator positions — across
// randomized charsets and key lengths, with hits planted at lane
// boundaries (offsets N-1, N, N+1) and in the scalar tail.

#include "hash/simd/dispatch.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "hash/md5.h"
#include "hash/md5_crack.h"
#include "hash/sha1.h"
#include "hash/sha1_crack.h"
#include "support/rng.h"

namespace gks::hash::simd {
namespace {

struct Scenario {
  std::string charset;
  std::size_t key_len;
};

PrefixWord0Iterator iterator_for(const Scenario& sc, bool big_endian) {
  const unsigned prefix_chars =
      static_cast<unsigned>(sc.key_len < 4 ? sc.key_len : 4);
  return PrefixWord0Iterator({sc.charset.data(), sc.charset.size()},
                             prefix_chars, sc.key_len, big_endian);
}

/// The key whose word-0 prefix sits `offset` advances into the scan,
/// with deterministic filler for the fixed tail characters.
std::string key_at_offset(const Scenario& sc, std::uint64_t offset,
                          bool big_endian) {
  auto it = iterator_for(sc, big_endian);
  for (std::uint64_t i = 0; i < offset; ++i) it.advance();
  std::string key(it.prefix().begin(), it.prefix().end());
  SplitMix64 rng(offset * 1000003 + sc.key_len);
  while (key.size() < sc.key_len) {
    key.push_back(sc.charset[rng.below(sc.charset.size())]);
  }
  return key;
}

template <class Ctx, class ScalarFn, class LaneFn>
void expect_identical(const Ctx& ctx, const Scenario& sc, bool big_endian,
                      std::uint64_t count, const ScalarFn& scalar_scan,
                      const LaneFn& lane_scan, const std::string& label) {
  auto scalar_it = iterator_for(sc, big_endian);
  auto lane_it = iterator_for(sc, big_endian);
  const std::optional<std::uint64_t> ref = scalar_scan(ctx, scalar_it, count);
  const std::optional<std::uint64_t> got = lane_scan(ctx, lane_it, count);
  ASSERT_EQ(ref.has_value(), got.has_value()) << label;
  if (ref) {
    EXPECT_EQ(*ref, *got) << label;
  }
  // Both engines leave the iterator at the same position (past the
  // scanned range, or just past the hit).
  EXPECT_EQ(scalar_it.word0(), lane_it.word0()) << label;
}

std::vector<Scenario> scenarios(std::uint64_t seed) {
  const std::vector<std::string> charsets = {
      "ab", "abcdef", "abcdefghijklmnop", "0123456789abcdefATZ"};
  const std::vector<std::size_t> lengths = {1, 2, 3, 4, 5, 8, 12};
  SplitMix64 rng(seed);
  std::vector<Scenario> out;
  for (int i = 0; i < 6; ++i) {
    out.push_back({charsets[rng.below(charsets.size())],
                   lengths[rng.below(lengths.size())]});
  }
  return out;
}

std::uint64_t combinations(const Scenario& sc) {
  std::uint64_t n = 1;
  const std::size_t prefix = sc.key_len < 4 ? sc.key_len : 4;
  for (std::size_t i = 0; i < prefix; ++i) n *= sc.charset.size();
  return n;
}

TEST(SimdDispatch, BaselineWidthAlwaysAvailable) {
  ASSERT_FALSE(available_kernels().empty());
  EXPECT_EQ(available_kernels().front().width, 4u);
  EXPECT_EQ(kernels_for_width(3), nullptr);
}

TEST(SimdDispatch, AvailableIsSubsetOfCompiled) {
  ASSERT_GE(compiled_kernels().size(), available_kernels().size());
  for (const auto& a : available_kernels()) {
    bool found = false;
    for (const auto& c : compiled_kernels()) {
      if (c.width == a.width && c.md5_scan == a.md5_scan &&
          c.sha1_scan == a.sha1_scan) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << a.width;
  }
}

TEST(SimdScanDifferential, Md5EveryWidthMatchesScalar) {
  for (const ScanKernels& k : available_kernels()) {
    const std::uint64_t n = k.width;
    for (const Scenario& sc : scenarios(n * 7919)) {
      const std::uint64_t combos = combinations(sc);
      // Hits at the lane boundaries, in the scalar tail, at the very
      // first candidate, and a guaranteed miss (offset == combos maps
      // to no plant).
      const std::uint64_t plant_offsets[] = {0,     n - 1,      n,
                                             n + 1, 3 * n + 2,  combos};
      for (const std::uint64_t plant : plant_offsets) {
        const std::uint64_t count = std::min<std::uint64_t>(
            combos, 3 * n + 5);  // odd count: forces a scalar tail
        const std::string key =
            key_at_offset(sc, plant < combos ? plant : 0, false);
        const auto target =
            plant < combos ? Md5::digest(key) : Md5::digest("\x01outside");
        const std::string tail =
            key.size() > 4 ? key.substr(4) : std::string();
        const Md5CrackContext ctx(target, tail, key.size());
        expect_identical(
            ctx, sc, false, count,
            [](const Md5CrackContext& c, PrefixWord0Iterator& it,
               std::uint64_t m) { return md5_scan_prefixes(c, it, m); },
            [&](const Md5CrackContext& c, PrefixWord0Iterator& it,
                std::uint64_t m) { return k.md5_scan(c, it, m); },
            "md5 w" + std::to_string(n) + " cs=" + sc.charset + " len=" +
                std::to_string(sc.key_len) + " plant=" +
                std::to_string(plant));
      }
    }
  }
}

TEST(SimdScanDifferential, Sha1EveryWidthMatchesScalar) {
  for (const ScanKernels& k : available_kernels()) {
    const std::uint64_t n = k.width;
    for (const Scenario& sc : scenarios(n * 104729)) {
      const std::uint64_t combos = combinations(sc);
      const std::uint64_t plant_offsets[] = {0,     n - 1,     n,
                                             n + 1, 3 * n + 2, combos};
      for (const std::uint64_t plant : plant_offsets) {
        const std::uint64_t count =
            std::min<std::uint64_t>(combos, 3 * n + 5);
        const std::string key =
            key_at_offset(sc, plant < combos ? plant : 0, true);
        const auto target =
            plant < combos ? Sha1::digest(key) : Sha1::digest("\x01outside");
        const std::string tail =
            key.size() > 4 ? key.substr(4) : std::string();
        const Sha1CrackContext ctx(target, tail, key.size());
        expect_identical(
            ctx, sc, true, count,
            [](const Sha1CrackContext& c, PrefixWord0Iterator& it,
               std::uint64_t m) { return sha1_scan_prefixes(c, it, m); },
            [&](const Sha1CrackContext& c, PrefixWord0Iterator& it,
                std::uint64_t m) { return k.sha1_scan(c, it, m); },
            "sha1 w" + std::to_string(n) + " cs=" + sc.charset + " len=" +
                std::to_string(sc.key_len) + " plant=" +
                std::to_string(plant));
      }
    }
  }
}

TEST(SimdScanDifferential, FullSpaceSweepFindsEveryPlantedOffset) {
  // Exhaustive position sweep on a small space: the hit offset and the
  // post-hit iterator position must match the scalar engine at every
  // single candidate position, for every width.
  const Scenario sc{"abcd", 3};
  const std::uint64_t combos = combinations(sc);
  for (const ScanKernels& k : available_kernels()) {
    for (std::uint64_t plant = 0; plant < combos; ++plant) {
      const std::string key = key_at_offset(sc, plant, false);
      const Md5CrackContext ctx(Md5::digest(key), "", sc.key_len);
      expect_identical(
          ctx, sc, false, combos,
          [](const Md5CrackContext& c, PrefixWord0Iterator& it,
             std::uint64_t m) { return md5_scan_prefixes(c, it, m); },
          [&](const Md5CrackContext& c, PrefixWord0Iterator& it,
              std::uint64_t m) { return k.md5_scan(c, it, m); },
          "sweep w" + std::to_string(k.width) + " plant=" +
              std::to_string(plant));
    }
  }
}

TEST(SimdScanDifferential, ResumesAfterHitAcrossWidths) {
  // Two candidates hashing to the same scan: after the first hit the
  // engine must leave the iterator at hit+1 so a rescan of the
  // remainder finds nothing extra.
  const Scenario sc{"ab", 2};
  for (const ScanKernels& k : available_kernels()) {
    const Md5CrackContext ctx(Md5::digest("aa"), "", 2);
    auto it = iterator_for(sc, false);
    const auto first = k.md5_scan(ctx, it, 4);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, 0u);
    EXPECT_FALSE(k.md5_scan(ctx, it, 3).has_value());
  }
}

}  // namespace
}  // namespace gks::hash::simd
