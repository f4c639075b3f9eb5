#include "core/multi_crack.h"

#include <gtest/gtest.h>

#include <cctype>

#include "core/crack_request.h"
#include "hash/md5.h"
#include "hash/sha1.h"
#include "keyspace/codec.h"
#include "keyspace/space.h"
#include "support/error.h"

namespace gks::core {
namespace {

MultiCrackRequest md5_batch(const std::vector<std::string>& keys,
                            keyspace::Charset charset, unsigned min_len,
                            unsigned max_len, hash::SaltSpec salt = {}) {
  MultiCrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.charset = std::move(charset);
  request.min_length = min_len;
  request.max_length = max_len;
  request.salt = salt;
  for (const auto& k : keys) {
    request.target_hexes.push_back(
        hash::Md5::digest(salt.apply(k)).to_hex());
  }
  return request;
}

TEST(MultiCrack, RecoversEveryKeyInOneSweep) {
  const std::vector<std::string> keys = {"cat", "dog", "fish", "a"};
  const auto request =
      md5_batch(keys, keyspace::Charset("acdfghiost"), 1, 4);
  const auto result = multi_crack(request, 2);

  EXPECT_EQ(result.cracked, keys.size());
  ASSERT_EQ(result.targets.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(result.targets[i].found) << keys[i];
    EXPECT_EQ(result.targets[i].key, keys[i]);
  }
}

TEST(MultiCrack, UncrackableDigestStaysOutstanding) {
  auto request = md5_batch({"ab"}, keyspace::Charset("ab"), 1, 3);
  request.target_hexes.push_back(
      hash::Md5::digest("NOT-in-space").to_hex());
  const auto result = multi_crack(request, 2);
  EXPECT_EQ(result.cracked, 1u);
  EXPECT_TRUE(result.targets[0].found);
  EXPECT_FALSE(result.targets[1].found);
  // The whole space was swept for the missing one.
  EXPECT_EQ(result.tested, u128(2 + 4 + 8));
}

TEST(MultiCrack, StopsEarlyWhenAllFound) {
  // Keys early in the enumeration: the sweep must not test the whole
  // 5-character space.
  const auto request = md5_batch({"a", "b"}, keyspace::Charset::lower(), 1, 5);
  const auto result = multi_crack(request, 2);
  EXPECT_EQ(result.cracked, 2u);
  EXPECT_LT(result.tested,
            keyspace::space_size(26, 1, 5));
}

TEST(MultiCrack, Sha1BatchWorks) {
  MultiCrackRequest request;
  request.algorithm = hash::Algorithm::kSha1;
  request.charset = keyspace::Charset("abc");
  request.min_length = 1;
  request.max_length = 4;
  for (const char* k : {"abc", "cba", "bb"}) {
    request.target_hexes.push_back(hash::Sha1::digest(k).to_hex());
  }
  const auto result = multi_crack(request, 2);
  EXPECT_EQ(result.cracked, 3u);
  EXPECT_EQ(result.targets[1].key, "cba");
}

TEST(MultiCrack, SharedSuffixSaltBatch) {
  const hash::SaltSpec salt{hash::SaltPosition::kSuffix, "2024"};
  const auto request =
      md5_batch({"pass", "word"}, keyspace::Charset("adoprsw"), 4, 4, salt);
  const auto result = multi_crack(request, 2);
  EXPECT_EQ(result.cracked, 2u);
  EXPECT_EQ(result.targets[0].key, "pass");
  EXPECT_EQ(result.targets[1].key, "word");
}

TEST(MultiCrack, DuplicateDigestsBothReported) {
  const auto request = md5_batch({"ba", "ba"}, keyspace::Charset("ab"), 1, 2);
  const auto result = multi_crack(request, 1);
  EXPECT_EQ(result.cracked, 2u);
  EXPECT_EQ(result.targets[0].key, "ba");
  EXPECT_EQ(result.targets[1].key, "ba");
}

TEST(MultiCrack, PrefixSaltUsesGenericPathCorrectly) {
  const hash::SaltSpec salt{hash::SaltPosition::kPrefix, "S!"};
  const auto request =
      md5_batch({"ba", "ab"}, keyspace::Charset("ab"), 1, 3, salt);
  const auto result = multi_crack(request, 2);
  EXPECT_EQ(result.cracked, 2u);
}

TEST(MultiCrack, ValidatesItsRequest) {
  MultiCrackRequest empty;
  EXPECT_THROW(multi_crack(empty), InvalidArgument);

  MultiCrackRequest sha256;
  sha256.algorithm = hash::Algorithm::kSha256;
  sha256.target_hexes = {std::string(64, 'a')};
  EXPECT_THROW(multi_crack(sha256), InvalidArgument);

  MultiCrackRequest bad_digest;
  bad_digest.target_hexes = {"abcd"};  // wrong length for MD5
  EXPECT_THROW(multi_crack(bad_digest), InvalidArgument);
}

TEST(MultiCrack, BatchAgreesWithIndividualCracks) {
  const std::vector<std::string> keys = {"aa", "abc", "ccba"};
  const auto request = md5_batch(keys, keyspace::Charset("abc"), 1, 4);
  const auto batch = multi_crack(request, 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(batch.targets[i].found);
    EXPECT_EQ(batch.targets[i].key, keys[i]);
  }
}

TEST(MultiCrack, LaneAndScalarEnginesAgree) {
  // The lane engine's sweep must agree with a brute-force walk that
  // checks every candidate of the space against each target through
  // CrackRequest::matches: same verdicts, same keys, every candidate
  // tested.
  const std::vector<std::string> keys = {"fish", "cat", "dog", "cat"};
  auto request = md5_batch(keys, keyspace::Charset("acdfghiost"), 1, 4);
  request.target_hexes.push_back(hash::Md5::digest("MISSING").to_hex());

  std::vector<CrackRequest> singles;
  std::vector<MultiTargetVerdict> expected;
  for (const std::string& hex : request.target_hexes) {
    CrackRequest single;
    single.algorithm = request.algorithm;
    single.target_hex = hex;
    single.charset = request.charset;
    single.min_length = request.min_length;
    single.max_length = request.max_length;
    single.salt = request.salt;
    singles.push_back(single);
    expected.push_back({hex, false, {}});
  }
  const keyspace::KeyCodec codec(request.charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  const u128 space = keyspace::space_size(
      request.charset.size(), request.min_length, request.max_length);
  std::string key = codec.decode(keyspace::first_id_of_length(
      request.charset.size(), request.min_length));
  std::size_t expected_cracked = 0;
  for (u128 id(0); id < space; ++id) {
    for (std::size_t i = 0; i < singles.size(); ++i) {
      if (!expected[i].found && singles[i].matches(key)) {
        expected[i] = {expected[i].digest_hex, true, key};
        ++expected_cracked;
      }
    }
    codec.next_inplace(key);
  }

  const auto lanes = multi_crack(request, 2);
  EXPECT_EQ(lanes.cracked, expected_cracked);
  EXPECT_EQ(lanes.tested, space);
  ASSERT_EQ(lanes.targets.size(), expected.size());
  for (std::size_t i = 0; i < lanes.targets.size(); ++i) {
    EXPECT_EQ(lanes.targets[i].found, expected[i].found) << i;
    EXPECT_EQ(lanes.targets[i].key, expected[i].key) << i;
  }
}

TEST(MultiCrack, TenThousandTargetSweep) {
  // The auditing scenario at scale: every key of a 10^4 space as its
  // own target (with a duplicated credential thrown in). One sweep must
  // recover them all — the per-candidate cost is O(1) in the target
  // count, so this runs in the same ballpark as a single-target sweep.
  const keyspace::Charset charset("abcdefghij");
  MultiCrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.charset = charset;
  request.min_length = 4;
  request.max_length = 4;
  std::string key = "aaaa";
  const keyspace::KeyCodec codec(charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  for (int i = 0; i < 10000; ++i) {
    request.target_hexes.push_back(hash::Md5::digest(key).to_hex());
    codec.next_inplace(key);
  }
  request.target_hexes.push_back(request.target_hexes.front());  // duplicate

  const auto result = multi_crack(request, 0);
  EXPECT_EQ(result.cracked, result.targets.size());
  EXPECT_EQ(result.tested, u128(10000));
  for (const auto& verdict : result.targets) {
    EXPECT_TRUE(verdict.found) << verdict.digest_hex;
    EXPECT_EQ(hash::Md5::digest(verdict.key).to_hex(), verdict.digest_hex);
  }
}

TEST(MultiCrack, MixedCaseDuplicateHexesResolveTogether) {
  // The digest->slots map keys on parsed bytes, so upper- and
  // lower-case spellings of the same digest are one unique target.
  const std::string lower = hash::Md5::digest("ba").to_hex();
  std::string upper = lower;
  for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));

  MultiCrackRequest request;
  request.charset = keyspace::Charset("ab");
  request.min_length = 1;
  request.max_length = 2;
  request.target_hexes = {upper, lower};
  const auto result = multi_crack(request, 1);
  EXPECT_EQ(result.cracked, 2u);
  EXPECT_EQ(result.targets[0].key, "ba");
  EXPECT_EQ(result.targets[1].key, "ba");
}

}  // namespace
}  // namespace gks::core
