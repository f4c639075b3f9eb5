#include "core/generator_crack.h"

#include <gtest/gtest.h>

#include <cctype>

#include "hash/md5.h"
#include "hash/sha1.h"
#include "hash/sha256.h"
#include "keyspace/dictionary.h"
#include "keyspace/keyspace_generator.h"
#include "keyspace/mask.h"
#include "support/error.h"

namespace gks::core {
namespace {

TEST(GeneratorCrack, MaskAttackRecoversPatternedKey) {
  const keyspace::MaskGenerator mask("?l?l?d?d");
  const std::string secret = "ab42";
  const auto result = crack_generator(
      mask, hash::Algorithm::kMd5, {hash::Md5::digest(secret).to_hex()}, {},
      2);
  ASSERT_EQ(result.cracked, 1u);
  EXPECT_EQ(result.targets[0].key, secret);
}

TEST(GeneratorCrack, StopsEarlyWhenAllFound) {
  // The target is the mask's first candidate: once its claim reports
  // it, no further claim may start.
  const keyspace::MaskGenerator mask("?l?l?l?l?l");
  const auto result = crack_generator(
      mask, hash::Algorithm::kMd5, {hash::Md5::digest(mask.at(u128(0))).to_hex()},
      {}, 4);
  ASSERT_EQ(result.cracked, 1u);
  EXPECT_LT(result.tested, mask.size());
}

TEST(GeneratorCrack, DictionaryAttackWithMangling) {
  const keyspace::DictionaryGenerator words(
      {"password", "dragon", "letmein"},
      keyspace::DictionaryGenerator::Mangle::kCommonCase);
  const auto result = crack_generator(
      words, hash::Algorithm::kSha1,
      {hash::Sha1::digest("Dragon").to_hex()}, {}, 2);
  ASSERT_EQ(result.cracked, 1u);
  EXPECT_EQ(result.targets[0].key, "Dragon");
}

TEST(GeneratorCrack, HybridAttack) {
  const keyspace::DictionaryGenerator words({"pass", "admin"});
  const keyspace::MaskGenerator tail("?d?d");
  const keyspace::HybridGenerator hybrid(words, tail);
  const auto result = crack_generator(
      hybrid, hash::Algorithm::kMd5,
      {hash::Md5::digest("admin07").to_hex()}, {}, 2);
  ASSERT_EQ(result.cracked, 1u);
  EXPECT_EQ(result.targets[0].key, "admin07");
}

TEST(GeneratorCrack, MultipleTargetsOneSweep) {
  const keyspace::MaskGenerator mask("?d?d?d");
  std::vector<std::string> digests;
  for (const char* k : {"007", "123", "999"}) {
    digests.push_back(hash::Md5::digest(k).to_hex());
  }
  const auto result =
      crack_generator(mask, hash::Algorithm::kMd5, digests, {}, 2);
  EXPECT_EQ(result.cracked, 3u);
  EXPECT_EQ(result.targets[0].key, "007");
  EXPECT_EQ(result.targets[2].key, "999");
}

TEST(GeneratorCrack, SaltApplied) {
  const keyspace::MaskGenerator mask("?d?d");
  const hash::SaltSpec salt{hash::SaltPosition::kPrefix, "s#"};
  const auto result = crack_generator(
      mask, hash::Algorithm::kMd5, {hash::Md5::digest("s#42").to_hex()},
      salt, 1);
  ASSERT_EQ(result.cracked, 1u);
  EXPECT_EQ(result.targets[0].key, "42");
}

TEST(GeneratorCrack, MissReportsExhaustion) {
  const keyspace::MaskGenerator mask("?d");
  const auto result = crack_generator(
      mask, hash::Algorithm::kMd5, {hash::Md5::digest("xx").to_hex()}, {},
      1);
  EXPECT_EQ(result.cracked, 0u);
  EXPECT_EQ(result.tested, u128(10));
}

TEST(GeneratorCrack, Sha256TargetsSupported) {
  // The generic path has no kernel specialization, so SHA256 works too.
  const keyspace::MaskGenerator mask("?l?l");
  const auto result = crack_generator(
      mask, hash::Algorithm::kSha256,
      {hash::Sha256::digest("ok").to_hex()}, {}, 1);
  ASSERT_EQ(result.cracked, 1u);
  EXPECT_EQ(result.targets[0].key, "ok");
}

TEST(GeneratorCrack, AgreesWithSpecializedEngineOnBaseN) {
  // Same key space expressed as a KeyspaceGenerator: the generic loop
  // and the optimized multi_crack sweep must find identical keys.
  const std::string secret = "cab";
  const std::vector<std::string> digests = {
      hash::Md5::digest(secret).to_hex()};

  const keyspace::KeyspaceGenerator gen(
      keyspace::KeyCodec(keyspace::Charset("abc"),
                         keyspace::DigitOrder::kPrefixFastest),
      1, 4);
  const auto generic =
      crack_generator(gen, hash::Algorithm::kMd5, digests, {}, 1);

  MultiCrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.target_hexes = digests;
  request.charset = keyspace::Charset("abc");
  request.min_length = 1;
  request.max_length = 4;
  const auto optimized = multi_crack(request, 1);

  ASSERT_EQ(generic.cracked, 1u);
  ASSERT_EQ(optimized.cracked, 1u);
  EXPECT_EQ(generic.targets[0].key, optimized.targets[0].key);
}

TEST(GeneratorCrack, UpperCaseHexIsFound) {
  const keyspace::MaskGenerator mask("?l?l");
  std::string hex = hash::Md5::digest("ab").to_hex();
  for (char& ch : hex) {
    ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  const auto result = crack_generator(mask, hash::Algorithm::kMd5, {hex}, {},
                                      2);
  ASSERT_EQ(result.cracked, 1u);
  EXPECT_EQ(result.targets[0].digest_hex, hex);
  EXPECT_EQ(result.targets[0].key, "ab");
}

TEST(GeneratorCrack, DigestListedTwiceResolvesBothSlotsInOrder) {
  const keyspace::MaskGenerator mask("?d?d");
  const std::string twice = hash::Sha1::digest("42").to_hex();
  const std::string other = hash::Sha1::digest("07").to_hex();
  const auto result = crack_generator(
      mask, hash::Algorithm::kSha1, {twice, other, twice}, {}, 2);
  ASSERT_EQ(result.cracked, 3u);
  EXPECT_EQ(result.targets[0].digest_hex, twice);
  EXPECT_EQ(result.targets[0].key, "42");
  EXPECT_EQ(result.targets[1].key, "07");
  EXPECT_EQ(result.targets[2].key, "42");
}

TEST(GeneratorCrack, SameFirstWordDecoyIsNotReported) {
  // The decoy shares the planted digest's first 32-bit word, so it
  // passes the index lookup and must fail full-digest confirmation.
  const keyspace::MaskGenerator mask("?l?d");
  const hash::Md5Digest planted = hash::Md5::digest("k7");
  hash::Md5Digest decoy = planted;
  decoy.bytes.back() ^= 0xff;
  const auto result = crack_generator(
      mask, hash::Algorithm::kMd5, {decoy.to_hex(), planted.to_hex()}, {},
      2);
  EXPECT_EQ(result.cracked, 1u);
  EXPECT_FALSE(result.targets[0].found);
  ASSERT_TRUE(result.targets[1].found);
  EXPECT_EQ(result.targets[1].key, "k7");
  EXPECT_EQ(result.tested, mask.size());
}

TEST(GeneratorCrack, RejectsBadInput) {
  const keyspace::MaskGenerator mask("?d");
  EXPECT_THROW(crack_generator(mask, hash::Algorithm::kMd5, {}, {}, 1),
               InvalidArgument);
  EXPECT_THROW(
      crack_generator(mask, hash::Algorithm::kMd5, {"abcd"}, {}, 1),
      InvalidArgument);
}

}  // namespace
}  // namespace gks::core
