// The candidate walk the sweep engines share, and a differential test
// of the three engines on it: ScanPlan (one target), MultiSweeper (the
// same target plus decoys) and crack_generator (the request's own
// generator) must report the same (id, key) pairs on every window of
// the same space.

#include "core/sweep_walk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/generator_crack.h"
#include "core/multi_crack.h"
#include "core/multi_sweep.h"
#include "core/scan_engine.h"
#include "keyspace/space.h"

namespace gks::core {
namespace {

/// (id, key) pairs, the id spelled in decimal so failures print it.
using HitSet = std::set<std::pair<std::string, std::string>>;

/// Three characters: every tail block of a key longer than four is
/// 3^4 = 81 ids, so lengths 1-6 (1092 ids) cross many of them.
const keyspace::Charset kCharset("kq7");

/// Candidates [ids.begin, ids.end) of another generator, renumbered
/// from 0, so crack_generator can sweep one window of a space.
class Window final : public keyspace::Generator {
 public:
  Window(const keyspace::Generator& base, keyspace::Interval ids)
      : base_(base), ids_(ids) {}
  u128 size() const override { return ids_.size(); }
  void generate(u128 id, std::string& out) const override {
    base_.generate(ids_.begin + id, out);
  }
  void next(u128 id, std::string& key) const override {
    base_.next(ids_.begin + id, key);
  }

 private:
  const keyspace::Generator& base_;
  keyspace::Interval ids_;
};

struct Case {
  const char* name;
  hash::Algorithm algorithm;
  hash::SaltSpec salt;
  unsigned min_length = 1;
  unsigned max_length = 6;
};

CrackRequest request_for(const Case& c, const std::string& key) {
  CrackRequest r;
  r.algorithm = c.algorithm;
  r.charset = kCharset;
  r.min_length = c.min_length;
  r.max_length = c.max_length;
  r.salt = c.salt;
  r.target_hex = salted_digest_hex(c.algorithm, c.salt, key);
  return r;
}

/// A partition of [0, size) whose boundaries fall off the length and
/// tail-block grid as often as on it.
std::vector<keyspace::Interval> windows(u128 size) {
  static constexpr std::uint64_t kSizes[] = {1, 5, 38, 2, 81, 17, 160, 3, 250};
  std::vector<keyspace::Interval> out;
  u128 begin(0);
  for (std::size_t i = 0; begin < size; ++i) {
    const u128 end = std::min(size, begin + u128(kSizes[i % 9]));
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

/// Where a planted key tests the walk hardest: the first, a middle and
/// the last key of every length, and the keys on both sides of the
/// first tail-block boundary of every length above four.
std::vector<u128> planted_ids(const Case& c) {
  const std::size_t n = kCharset.size();
  const u128 origin = keyspace::first_id_of_length(n, c.min_length);
  std::vector<u128> ids;
  for (unsigned len = c.min_length; len <= c.max_length; ++len) {
    const u128 first = keyspace::first_id_of_length(n, len) - origin;
    const u128 count = keyspace::keys_of_length(n, len);
    ids.push_back(first);
    ids.push_back(first + count / u128(2));
    ids.push_back(first + count - u128(1));
    if (len > 4) {
      const u128 block = keyspace::keys_of_length(n, 4);
      ids.push_back(first + block - u128(1));
      ids.push_back(first + block);
    }
  }
  return ids;
}

HitSet scan_plan_hits(const CrackRequest& r) {
  const ScanPlan plan(r);
  HitSet out;
  for (const keyspace::Interval& w : windows(r.space_size())) {
    const dispatch::ScanOutcome o = plan.scan(w);
    EXPECT_EQ(o.tested, w.size());
    for (const auto& f : o.found) out.emplace(to_string(f.id), f.value);
  }
  return out;
}

HitSet sweeper_hits(const CrackRequest& r) {
  MultiCrackRequest m{r, {r.target_hex}};
  // Decoys outside the space: they share the gate and the contexts but
  // must never be reported.
  for (const char* decoy : {"D0", "decoy", "DECOY5", "kqkq8q"}) {
    m.target_hexes.push_back(salted_digest_hex(r.algorithm, r.salt, decoy));
  }
  const MultiSweeper sweeper(m);
  HitSet out;
  for (const keyspace::Interval& w : windows(r.space_size())) {
    std::vector<SweepHit> hits;
    EXPECT_EQ(sweeper.scan(w, hits), w.size());
    for (const SweepHit& h : hits) {
      out.emplace(to_string(r.id_of(h.key)), h.key);
    }
  }
  return out;
}

HitSet generator_hits(const CrackRequest& r) {
  const keyspace::KeyspaceGenerator space = r.make_generator();
  HitSet out;
  for (const keyspace::Interval& w : windows(r.space_size())) {
    const MultiCrackResult res = crack_generator(
        Window(space, w), r.algorithm, {r.target_hex}, r.salt, 1);
    EXPECT_EQ(res.tested, w.size());
    for (const auto& t : res.targets) {
      if (t.found) out.emplace(to_string(r.id_of(t.key)), t.key);
    }
  }
  return out;
}

void expect_engines_agree(const Case& c) {
  const keyspace::KeyspaceGenerator space =
      request_for(c, "k").make_generator();
  for (const u128 id : planted_ids(c)) {
    const std::string key = space.at(id);
    const CrackRequest r = request_for(c, key);
    const HitSet expected{{to_string(id), key}};
    EXPECT_EQ(scan_plan_hits(r), expected) << c.name << ", key " << key;
    if (c.algorithm != hash::Algorithm::kSha256) {
      EXPECT_EQ(sweeper_hits(r), expected) << c.name << ", key " << key;
    }
    EXPECT_EQ(generator_hits(r), expected) << c.name << ", key " << key;
  }
}

const hash::SaltSpec kSuffix{hash::SaltPosition::kSuffix, "$s4lt"};
const hash::SaltSpec kPrefix{hash::SaltPosition::kPrefix, "pr3:"};

TEST(SweepWalk, EnginesAgreeUnsalted) {
  expect_engines_agree({"md5", hash::Algorithm::kMd5, {}});
  expect_engines_agree({"sha1", hash::Algorithm::kSha1, {}});
}

TEST(SweepWalk, EnginesAgreeSuffixSaltedOnBothPaths) {
  // Keys of 1-3 characters take the full-hash loop, 4-6 the word-0
  // kernels.
  expect_engines_agree({"md5 suffix", hash::Algorithm::kMd5, kSuffix});
  expect_engines_agree({"sha1 suffix", hash::Algorithm::kSha1, kSuffix});
}

TEST(SweepWalk, EnginesAgreePrefixSalted) {
  expect_engines_agree({"md5 prefix", hash::Algorithm::kMd5, kPrefix});
  expect_engines_agree({"sha1 prefix", hash::Algorithm::kSha1, kPrefix});
}

TEST(SweepWalk, EnginesAgreeOnASpaceStartingAboveLengthOne) {
  expect_engines_agree({"md5 3-6", hash::Algorithm::kMd5, {}, 3, 6});
  expect_engines_agree({"sha1 suffix 2-5", hash::Algorithm::kSha1, kSuffix,
                        2, 5});
}

TEST(SweepWalk, Sha256ScanPlanAgreesWithCrackGenerator) {
  expect_engines_agree({"sha256", hash::Algorithm::kSha256, {}, 1, 5});
  expect_engines_agree({"sha256 suffix", hash::Algorithm::kSha256, kSuffix,
                        1, 5});
}

TEST(SweepWalk, UpperCaseTargetHexMatchesOnTheFullHashPath) {
  for (const Case& c :
       {Case{"md5 prefix", hash::Algorithm::kMd5, kPrefix, 1, 5},
        Case{"sha256", hash::Algorithm::kSha256, {}, 1, 5}}) {
    const std::string key = "7qk";
    CrackRequest r = request_for(c, key);
    std::ranges::transform(r.target_hex, r.target_hex.begin(),
                           [](unsigned char ch) { return std::toupper(ch); });
    ASSERT_TRUE(r.matches(key));
    const HitSet expected{{to_string(r.id_of(key)), key}};
    EXPECT_EQ(scan_plan_hits(r), expected) << c.name;
    EXPECT_EQ(generator_hits(r), expected) << c.name;
  }
}

TEST(SweepWalk, BlocksShareLengthAndTailAndTakeTheRightPath) {
  for (const hash::SaltSpec& salt : {hash::SaltSpec{}, kSuffix, kPrefix}) {
    const SweepWalk walk({hash::Algorithm::kMd5, kCharset, 1, 6, salt});
    const keyspace::Interval whole(u128(0), walk.generator().size());
    u128 expected_begin(0);
    std::size_t blocks = 0;
    walk.for_each_block(whole, [&](TailBlock& block) {
      ++blocks;
      EXPECT_EQ(block.ids.begin, expected_begin);
      expected_begin = block.ids.end;
      const std::string first = walk.generator().at(block.ids.begin);
      const std::string last = walk.generator().at(block.ids.end - u128(1));
      EXPECT_EQ(block.key_length, first.size());
      // A whole tail block: N^min(4, L) ids from first to last key.
      const unsigned varying = std::min(4u, block.key_length);
      EXPECT_EQ(block.ids.size(), keyspace::keys_of_length(3, varying));
      EXPECT_EQ(last.size(), first.size());
      EXPECT_EQ(last.substr(varying), first.substr(varying));
      EXPECT_EQ(first.substr(0, varying), std::string(varying, 'k'));
      EXPECT_EQ(last.substr(0, varying), std::string(varying, '7'));

      const bool word0 =
          salt.position == hash::SaltPosition::kNone ||
          (salt.position == hash::SaltPosition::kSuffix && first.size() >= 4);
      EXPECT_EQ(block.word0.has_value(), word0) << first;
      if (block.word0) {
        const std::string suffix =
            salt.position == hash::SaltPosition::kSuffix ? salt.salt : "";
        EXPECT_EQ(block.word0->tail, first.substr(varying) + suffix);
        EXPECT_EQ(block.word0->total_length,
                  first.size() + salt.extra_length());
        const auto prefix = block.word0->it.prefix();
        EXPECT_EQ(std::string(prefix.begin(), prefix.end()),
                  first.substr(0, varying));
      }
      return true;
    });
    EXPECT_EQ(expected_begin, walk.generator().size());
    // One block per length up to 4, then 3 and 9 tail blocks.
    EXPECT_EQ(blocks, 4u + 3u + 9u);
  }
}

TEST(SweepWalk, BlocksAreClippedToTheIntervalAndStopOnRequest) {
  const SweepWalk walk({hash::Algorithm::kSha1, kCharset, 1, 6, {}});
  // 3 + 9 + 27 + 81 = 120 ids precede the 5-character keys; start 10
  // ids into their first tail block and stop 5 into the third.
  const keyspace::Interval window(u128(130), u128(120 + 2 * 81 + 5));
  std::vector<keyspace::Interval> seen;
  walk.for_each_block(window, [&](TailBlock& block) {
    seen.push_back(block.ids);
    return true;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], keyspace::Interval(u128(130), u128(201)));
  EXPECT_EQ(seen[1], keyspace::Interval(u128(201), u128(282)));
  EXPECT_EQ(seen[2], keyspace::Interval(u128(282), u128(287)));

  std::size_t calls = 0;
  walk.for_each_block(window, [&](TailBlock&) { return ++calls < 2; });
  EXPECT_EQ(calls, 2u);
}

TEST(SweepWalk, HashCandidatesStepsTheGeneratorOverTheInterval) {
  const keyspace::KeyspaceGenerator space =
      request_for({"md5", hash::Algorithm::kMd5, {}}, "k").make_generator();
  const keyspace::Interval ids(u128(7), u128(130));
  std::vector<std::string> keys;
  hash_candidates<hash::Md5>(
      space, kSuffix, ids,
      [&](u128 id, const std::string& key, const hash::Md5Digest& digest) {
        EXPECT_EQ(id, ids.begin + u128(keys.size()));
        EXPECT_EQ(key, space.at(id));
        EXPECT_EQ(digest, hash::Md5::digest(key + kSuffix.salt));
        keys.push_back(key);
      });
  EXPECT_EQ(keys.size(), 123u);

  std::size_t calls = 0;
  hash_candidates<hash::Md5>(space, {}, keyspace::Interval(u128(5), u128(5)),
                             [&](u128, const std::string&, const auto&) {
                               ++calls;
                             });
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace gks::core
