#include "hash/multi_crack.h"

#include <gtest/gtest.h>

#include "hash/kernel_words.h"
#include "hash/md5.h"
#include "hash/md5_crack.h"
#include "hash/sha1.h"
#include "hash/sha1_crack.h"
#include "support/error.h"
#include "support/rng.h"

namespace gks::hash {
namespace {

TEST(Md5Multi, FindsEachTargetAtItsOwnPrefix) {
  // Three 8-char keys sharing the tail "rest": the contexts differ only
  // in their first words.
  const std::vector<std::string> keys = {"aaaarest", "bbbbrest", "zQ9xrest"};
  std::vector<Md5Digest> targets;
  for (const auto& k : keys) targets.push_back(Md5::digest(k));

  const Md5MultiContext multi(targets, "rest", 8);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(multi.test(pack_md5_word0(keys[i].data(), 8)), i) << keys[i];
  }
  EXPECT_EQ(multi.test(pack_md5_word0("nope", 8)), Md5MultiContext::npos);
}

TEST(Md5Multi, AgreesWithSingleTargetContext) {
  const std::string key = "Pa55word";
  const auto target = Md5::digest(key);
  const Md5MultiContext multi({target}, "word", 8);
  const Md5CrackContext single(target, "word", 8);
  SplitMix64 rng(7);
  for (int i = 0; i < 3000; ++i) {
    const auto m0 = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(multi.test(m0) == 0u, single.test(m0)) << m0;
  }
}

TEST(Md5Multi, ManyTargetsNoFalsePositives) {
  // 32 random targets; random candidates must never match.
  SplitMix64 rng(12);
  std::vector<Md5Digest> targets;
  for (int i = 0; i < 32; ++i) {
    Md5Digest d;
    for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng());
    targets.push_back(d);
  }
  const Md5MultiContext multi(targets, "xxxx", 8);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(multi.test(static_cast<std::uint32_t>(rng())),
              Md5MultiContext::npos);
  }
}

TEST(Sha1Multi, FindsEachTargetAtItsOwnPrefix) {
  const std::vector<std::string> keys = {"aaaarest", "bbbbrest", "zQ9xrest"};
  std::vector<Sha1Digest> targets;
  for (const auto& k : keys) targets.push_back(Sha1::digest(k));

  const Sha1MultiContext multi(targets, "rest", 8);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(multi.test(pack_sha_word0(keys[i].data(), 8)), i) << keys[i];
  }
  EXPECT_EQ(multi.test(pack_sha_word0("nope", 8)), Sha1MultiContext::npos);
}

TEST(Sha1Multi, AgreesWithSingleTargetContext) {
  const std::string key = "Pa55word";
  const auto target = Sha1::digest(key);
  const Sha1MultiContext multi({target}, "word", 8);
  const Sha1CrackContext single(target, "word", 8);
  SplitMix64 rng(8);
  for (int i = 0; i < 3000; ++i) {
    const auto w0 = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(multi.test(w0) == 0u, single.test(w0)) << w0;
  }
}

TEST(MultiContexts, RejectDegenerateInput) {
  EXPECT_THROW(Md5MultiContext({}, "rest", 8), InvalidArgument);
  EXPECT_THROW(Sha1MultiContext({}, "rest", 8), InvalidArgument);
  EXPECT_THROW(Md5MultiContext({Md5Digest{}}, "waytoolongtail", 8),
               InvalidArgument);
}

TEST(MultiContexts, ShortKeysSupported) {
  const auto target = Md5::digest("ab");
  const Md5MultiContext multi({target}, "", 2);
  EXPECT_EQ(multi.test(pack_md5_word0("ab", 2)), 0u);
  EXPECT_EQ(multi.test(pack_md5_word0("ba", 2)), Md5MultiContext::npos);
}

std::uint32_t test_load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void test_store_le32(std::uint8_t* p, std::uint32_t x) {
  p[0] = static_cast<std::uint8_t>(x);
  p[1] = static_cast<std::uint8_t>(x >> 8);
  p[2] = static_cast<std::uint8_t>(x >> 16);
  p[3] = static_cast<std::uint8_t>(x >> 24);
}

/// Builds a decoy MD5 "digest" whose 15-step-reverted state shares its
/// early-exit word (register a, the t45 comparison value) with `real`'s
/// reverted state but differs everywhere else. No key hashes to it, but
/// it occupies the same slot in the early-exit comparison — exactly the
/// 32-bit birthday collision a large audit batch will eventually
/// contain.
Md5Digest md5_word_collider(const Md5Digest& real, const std::string& message) {
  const std::array<std::uint32_t, 16> m = pack_md5_block(message).words;

  Md5State<std::uint32_t> s{
      test_load_le32(real.bytes.data()) - kMd5Init[0],
      test_load_le32(real.bytes.data() + 4) - kMd5Init[1],
      test_load_le32(real.bytes.data() + 8) - kMd5Init[2],
      test_load_le32(real.bytes.data() + 12) - kMd5Init[3]};
  md5_reverse_steps(s, m, 49);

  // Same early-exit word, different b/c/d: a word match that must not
  // shadow the genuine target during confirmation.
  std::uint32_t a = s.a, b = s.b ^ 0x5a5a5a5au, c = s.c + 0x1234567u,
                d = s.d ^ 0xdeadbeefu;
  // Redo steps 49..63 (they never consume message word 0, so the
  // candidate-independent words of `message` fully determine them).
  for (unsigned i = 49; i < 64; ++i) {
    const std::uint32_t t =
        b + rotl(a + md5_round_fn(i, b, c, d) + m[md5_msg_index(i)] + kMd5K[i],
                 kMd5S[i]);
    a = d;
    d = c;
    c = b;
    b = t;
  }

  Md5Digest decoy;
  test_store_le32(decoy.bytes.data(), a + kMd5Init[0]);
  test_store_le32(decoy.bytes.data() + 4, b + kMd5Init[1]);
  test_store_le32(decoy.bytes.data() + 8, c + kMd5Init[2]);
  test_store_le32(decoy.bytes.data() + 12, d + kMd5Init[3]);
  return decoy;
}

TEST(Md5Multi, EarlyExitWordCollisionDoesNotShadowLaterTarget) {
  // Regression: the decoy sits at slot 0 with the same early-exit word
  // as the real target at slot 1. The old engine stopped at the first
  // word match, failed its full confirmation, and silently dropped the
  // real target behind it.
  const std::string key = "aaaarest";
  const auto real = Md5::digest(key);
  const auto decoy = md5_word_collider(real, key);
  ASSERT_NE(decoy, real);

  const Md5MultiContext multi({decoy, real}, "rest", 8);
  EXPECT_EQ(multi.test(pack_md5_word0(key.data(), 8)), 1u);

  // Both orderings work, and a non-matching candidate still misses.
  const Md5MultiContext swapped({real, decoy}, "rest", 8);
  EXPECT_EQ(swapped.test(pack_md5_word0(key.data(), 8)), 0u);
  EXPECT_EQ(multi.test(pack_md5_word0("nope", 8)), Md5MultiContext::npos);
}

TEST(Sha1Multi, EarlyExitWordCollisionDoesNotShadowLaterTarget) {
  // SHA1's early-exit word is the feed-forward-stripped final `e`,
  // i.e. digest bytes 16..19: perturbing the leading bytes yields a
  // decoy colliding on exactly that word.
  const std::string key = "aaaarest";
  const auto real = Sha1::digest(key);
  Sha1Digest decoy = real;
  decoy.bytes[0] ^= 0x5a;
  decoy.bytes[7] ^= 0xa5;

  const Sha1MultiContext multi({decoy, real}, "rest", 8);
  EXPECT_EQ(multi.test(pack_sha_word0(key.data(), 8)), 1u);

  const Sha1MultiContext swapped({real, decoy}, "rest", 8);
  EXPECT_EQ(swapped.test(pack_sha_word0(key.data(), 8)), 0u);
  EXPECT_EQ(multi.test(pack_sha_word0("nope", 8)), Sha1MultiContext::npos);
}

TEST(Md5Multi, TestHitsReportsEveryDuplicateSlot) {
  const std::string key = "bbbbrest";
  const auto target = Md5::digest(key);
  const auto other = Md5::digest("aaaarest");
  // Duplicate digests at slots 0 and 2 plus a decoy word-collider at
  // slot 3: one candidate, two hits, no false ones.
  const auto decoy = md5_word_collider(target, key);
  const Md5MultiContext multi({target, other, target, decoy}, "rest", 8);

  std::vector<MultiHit> hits;
  multi.test_hits(pack_md5_word0(key.data(), 8), 77, hits);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (MultiHit{77, 0}));
  EXPECT_EQ(hits[1], (MultiHit{77, 2}));

  hits.clear();
  multi.test_hits(pack_md5_word0("nope", 8), 0, hits);
  EXPECT_TRUE(hits.empty());
}

TEST(Md5Multi, SharedWordTargetsReportedAmongMillionDecoys) {
  // The high-density regime: ~1M random decoy digests push the index
  // into its Bloom geometry, and the planted targets collide on their
  // 32-bit early-exit word (duplicate digest + a word-collider decoy).
  // Every genuine slot must surface — first-match-only lookups or a
  // lossy gate would drop the duplicate behind the collider.
  const std::string key = "bbbbrest";
  const auto target = Md5::digest(key);
  const auto collider = md5_word_collider(target, key);

  SplitMix64 rng(31);
  std::vector<Md5Digest> targets;
  const std::size_t kDecoys = 1000000;
  targets.reserve(kDecoys + 3);
  targets.push_back(target);  // slot 0
  for (std::size_t i = 0; i < kDecoys; ++i) {
    Md5Digest d;
    for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng());
    targets.push_back(d);
  }
  targets.push_back(target);    // slot kDecoys + 1 (duplicate digest)
  targets.push_back(collider);  // slot kDecoys + 2 (same word, no key)

  TargetIndexStats stats;
  TargetIndex::Config cfg;
  cfg.stats = &stats;
  const Md5MultiContext multi(targets, "rest", 8, cfg);
  EXPECT_STREQ(multi.index().filter_kind(), "bloom");

  std::vector<MultiHit> hits;
  multi.test_hits(pack_md5_word0(key.data(), 8), 42, hits);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (MultiHit{42, 0}));
  EXPECT_EQ(hits[1],
            (MultiHit{42, static_cast<std::uint32_t>(kDecoys + 1)}));

  // Foreign candidates resolve to no hit, and the measured gate traffic
  // lands in the shared stats sink.
  const auto before = stats.false_positives.load();
  for (int i = 0; i < 2000; ++i) {
    std::vector<MultiHit> none;
    multi.test_hits(static_cast<std::uint32_t>(rng()), 0, none);
    ASSERT_TRUE(none.empty());
  }
  EXPECT_GT(stats.gate_hits.load(), 0u);
  EXPECT_GE(stats.false_positives.load(), before);
}

TEST(Md5Multi, RetiredAtBuildIsNeverReported) {
  const std::string key_a = "aaaarest";
  const std::string key_b = "bbbbrest";
  const Md5MultiContext multi({Md5::digest(key_a), Md5::digest(key_b)},
                              "rest", 8, {}, std::vector<std::uint32_t>{0});
  EXPECT_EQ(multi.target_count(), 2u);

  // Slot 0 is left out; key_b keeps slot 1.
  const std::uint32_t word_a = pack_md5_word0(key_a.data(), 8);
  EXPECT_EQ(multi.test(word_a), Md5MultiContext::npos);
  std::vector<MultiHit> hits;
  multi.test_hits(word_a, 0, hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(multi.test(pack_md5_word0(key_b.data(), 8)), 1u);
}

TEST(Sha1Multi, RetiredAtBuildIsNeverReported) {
  const std::string key_a = "aaaarest";
  const std::string key_b = "bbbbrest";
  const Sha1MultiContext multi({Sha1::digest(key_a), Sha1::digest(key_b)},
                               "rest", 8, {}, std::vector<std::uint32_t>{0});

  const std::uint32_t word_a = pack_sha_word0(key_a.data(), 8);
  EXPECT_EQ(multi.test(word_a), Sha1MultiContext::npos);
  std::vector<MultiHit> hits;
  multi.test_hits(word_a, 0, hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(multi.test(pack_sha_word0(key_b.data(), 8)), 1u);
}

TEST(Sha1Multi, TestHitsReportsEveryDuplicateSlot) {
  const std::string key = "bbbbrest";
  const auto target = Sha1::digest(key);
  const auto other = Sha1::digest("aaaarest");
  const Sha1MultiContext multi({target, other, target}, "rest", 8);

  std::vector<MultiHit> hits;
  multi.test_hits(pack_sha_word0(key.data(), 8), 3, hits);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (MultiHit{3, 0}));
  EXPECT_EQ(hits[1], (MultiHit{3, 2}));
}

TEST(MultiScanPrefixes, CollectsAllHitsInRange) {
  // Scalar multi scan over the whole 2-char "ab" space: four targets
  // planted (one duplicated), every hit reported, no early stop.
  const std::vector<std::string> keys = {"aa", "ba", "bb", "ba"};
  std::vector<Md5Digest> targets;
  for (const auto& k : keys) targets.push_back(Md5::digest(k));
  const Md5MultiContext multi(targets, "", 2);

  PrefixWord0Iterator it({"ab", 2}, 2, 2, false);
  std::vector<MultiHit> hits;
  md5_multi_scan_prefixes(multi, it, 4, hits);

  // Prefix-major order: aa(0), ba(1), ab(2), bb(3).
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0], (MultiHit{0, 0}));
  EXPECT_EQ(hits[1], (MultiHit{1, 1}));
  EXPECT_EQ(hits[2], (MultiHit{1, 3}));
  EXPECT_EQ(hits[3], (MultiHit{3, 2}));
}

}  // namespace
}  // namespace gks::hash
