// The per-process lane-width pick (simd::kernels_for): one memoized
// choice per algorithm, safe for concurrent first callers, and the
// picked MD5 scanner agreeing with the scalar engine on the iterator
// contract the scan engines rely on.

#include "hash/simd/dispatch.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hash/md5.h"
#include "hash/md5_crack.h"
#include "support/error.h"

namespace gks::hash {
namespace {

TEST(KernelsFor, ConcurrentFirstCallersGetOnePick) {
  for (const Algorithm alg : {Algorithm::kMd5, Algorithm::kSha1}) {
    std::vector<const simd::ScanKernels*> picks(8, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < picks.size(); ++i) {
      threads.emplace_back([&picks, alg, i] {
        picks[i] = &simd::kernels_for(alg);
      });
    }
    for (auto& t : threads) t.join();
    for (const auto* pick : picks) EXPECT_EQ(pick, picks.front());
    EXPECT_EQ(&simd::kernels_for(alg), picks.front());

    bool available = false;
    for (const auto& k : simd::available_kernels()) {
      if (&k == picks.front()) available = true;
    }
    EXPECT_TRUE(available) << algorithm_name(alg);
  }
}

TEST(KernelsFor, RejectsAlgorithmsWithoutLaneKernels) {
  EXPECT_THROW(simd::kernels_for(Algorithm::kSha256), InvalidArgument);
}

Md5CrackContext context_for(const std::string& key) {
  const auto target = Md5::digest(key);
  const std::string tail = key.size() > 4 ? key.substr(4) : std::string();
  return Md5CrackContext(target, tail, key.size());
}

PrefixWord0Iterator fresh_iterator(const std::string& cs, unsigned chars,
                                   std::size_t key_len) {
  return PrefixWord0Iterator({cs.data(), cs.size()}, chars, key_len, false);
}

std::optional<std::uint64_t> picked_md5_scan(const Md5CrackContext& ctx,
                                             PrefixWord0Iterator& it,
                                             std::uint64_t count) {
  return simd::kernels_for(Algorithm::kMd5).md5_scan(ctx, it, count);
}

TEST(LaneScan, AgreesWithScalarOnHitOffset) {
  const std::string cs = "abcdef";
  for (const std::string key : {"aaaa", "fade", "cafe", "feed"}) {
    const auto ctx = context_for(key);
    auto scalar_it = fresh_iterator(cs, 4, 4);
    auto lanes_it = fresh_iterator(cs, 4, 4);
    const auto scalar = md5_scan_prefixes(ctx, scalar_it, 1296);
    const auto lanes = picked_md5_scan(ctx, lanes_it, 1296);
    ASSERT_EQ(scalar.has_value(), lanes.has_value()) << key;
    if (scalar) {
      EXPECT_EQ(*scalar, *lanes) << key;
      // Both engines leave the iterator just past the hit.
      EXPECT_EQ(scalar_it.word0(), lanes_it.word0()) << key;
    }
  }
}

TEST(LaneScan, AgreesWithScalarOnMiss) {
  const std::string cs = "abc";
  const auto ctx = context_for("zzzz");  // not in the charset
  auto scalar_it = fresh_iterator(cs, 4, 4);
  auto lanes_it = fresh_iterator(cs, 4, 4);
  EXPECT_FALSE(md5_scan_prefixes(ctx, scalar_it, 81).has_value());
  EXPECT_FALSE(picked_md5_scan(ctx, lanes_it, 81).has_value());
  EXPECT_EQ(scalar_it.word0(), lanes_it.word0());
}

TEST(LaneScan, CountsBelowOneBlockFallBackCorrectly) {
  const std::string cs = "abcdef";
  const auto ctx = context_for("bada");
  auto it = fresh_iterator(cs, 4, 4);
  // Hit is at offset (encode of "bada" prefix-major): scan in counts
  // smaller than kScanLanes so only the scalar tail runs.
  std::uint64_t total = 0;
  std::optional<std::uint64_t> hit;
  while (total < 1296 && !hit) {
    hit = picked_md5_scan(ctx, it, 5);
    if (!hit) total += 5;
  }
  ASSERT_TRUE(hit.has_value());
  // Verify against a single scalar scan.
  auto ref_it = fresh_iterator(cs, 4, 4);
  const auto ref = md5_scan_prefixes(ctx, ref_it, 1296);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(total + *hit, *ref);
}

TEST(LaneScan, ResumesAfterHitWithoutSkippingCandidates) {
  // Two keys mapping into the same scan range: after the first hit the
  // iterator must resume at hit+1 so the second is still found.
  const std::string cs = "ab";
  const auto ctx = context_for("aa");  // hit at offset 0
  auto it = fresh_iterator(cs, 2, 2);
  const auto first = picked_md5_scan(ctx, it, 4);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 0u);
  // Iterator now at "ba" (offset 1); a fresh scan over the remaining 3
  // candidates must find nothing (only "aa" matches).
  EXPECT_FALSE(picked_md5_scan(ctx, it, 3).has_value());
}

TEST(LaneScan, LongKeysWithTail) {
  const std::string cs = "abcdefgh";
  const std::string key = "gfedrest";
  const auto ctx = context_for(key);
  auto it = fresh_iterator(cs, 4, 8);
  const auto hit = picked_md5_scan(ctx, it, 4096);
  ASSERT_TRUE(hit.has_value());
  auto ref_it = fresh_iterator(cs, 4, 8);
  const auto ref = md5_scan_prefixes(ctx, ref_it, 4096);
  EXPECT_EQ(*hit, *ref);
}

}  // namespace
}  // namespace gks::hash
