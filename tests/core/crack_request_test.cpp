#include "core/crack_request.h"

#include <gtest/gtest.h>

#include "core/multi_crack.h"
#include "hash/md5.h"
#include "hash/sha1.h"
#include "hash/sha256.h"
#include "support/error.h"

namespace gks::core {
namespace {

CrackRequest md5_request(const std::string& plaintext) {
  CrackRequest r;
  r.algorithm = hash::Algorithm::kMd5;
  r.target_hex = hash::Md5::digest(plaintext).to_hex();
  r.charset = keyspace::Charset::lower();
  r.min_length = 1;
  r.max_length = 5;
  return r;
}

TEST(CrackRequest, MatchesRecognizesThePlaintext) {
  const CrackRequest r = md5_request("abcde");
  EXPECT_TRUE(r.matches("abcde"));
  EXPECT_FALSE(r.matches("abcdf"));
  EXPECT_FALSE(r.matches(""));
}

TEST(CrackRequest, MatchesAppliesTheSalt) {
  CrackRequest r;
  r.algorithm = hash::Algorithm::kSha1;
  r.salt = {hash::SaltPosition::kSuffix, "NaCl"};
  r.target_hex = hash::Sha1::digest("pwNaCl").to_hex();
  EXPECT_TRUE(r.matches("pw"));
  EXPECT_FALSE(r.matches("pwNaCl"));  // salt must not be typed by users
}

TEST(CrackRequest, SpaceSizeMatchesEquationTwo) {
  CrackRequest r = md5_request("ab");
  r.min_length = 1;
  r.max_length = 3;
  EXPECT_EQ(r.space_size(), u128(26 + 26 * 26 + 26 * 26 * 26));
  EXPECT_EQ(r.space_interval().begin, u128(0));
  EXPECT_EQ(r.space_interval().end, r.space_size());
}

TEST(CrackRequest, GeneratorUsesPrefixFastestOrder) {
  CrackRequest r = md5_request("x");
  const auto gen = r.make_generator();
  EXPECT_EQ(gen.codec().order(), keyspace::DigitOrder::kPrefixFastest);
  EXPECT_EQ(gen.at(u128(0)), "a");
}

TEST(CrackRequest, ValidateAcceptsAWellFormedRequest) {
  EXPECT_NO_THROW(md5_request("abc").validate());
}

TEST(CrackRequest, ValidateRejectsBadLengths) {
  CrackRequest r = md5_request("abc");
  r.min_length = 0;
  EXPECT_THROW(r.validate(), InvalidArgument);
  r.min_length = 6;
  r.max_length = 5;
  EXPECT_THROW(r.validate(), InvalidArgument);
  r.min_length = 1;
  r.max_length = 21;  // beyond the kernel limit
  EXPECT_THROW(r.validate(), InvalidArgument);
}

/// Both request types over `space`, each with one well-formed MD5
/// digest, so only the space can make validate() throw.
CrackRequest single(const SearchSpace& space) {
  return {space, hash::Md5::digest("abc").to_hex()};
}
MultiCrackRequest batch(const SearchSpace& space) {
  return {space, {hash::Md5::digest("abc").to_hex()}};
}

TEST(SearchSpace, BothRequestTypesRejectTheSameBadSpaces) {
  const keyspace::Charset lower = keyspace::Charset::lower();
  const std::string salt36(36, 's');  // 20 + 36 = 56 bytes: one too many
  const struct {
    const char* name;
    SearchSpace space;
  } bad[] = {
      {"min 0", {hash::Algorithm::kMd5, lower, 0, 5, {}}},
      {"min > max", {hash::Algorithm::kMd5, lower, 6, 5, {}}},
      {"max 21", {hash::Algorithm::kMd5, lower, 1, 21, {}}},
      {"prefix salt to 56",
       {hash::Algorithm::kMd5, lower, 1, 20,
        {hash::SaltPosition::kPrefix, salt36}}},
      {"suffix salt to 56",
       {hash::Algorithm::kMd5, lower, 1, 20,
        {hash::SaltPosition::kSuffix, salt36}}},
  };
  for (const auto& c : bad) {
    EXPECT_THROW(c.space.validate(), InvalidArgument) << c.name;
    EXPECT_THROW(single(c.space).validate(), InvalidArgument) << c.name;
    EXPECT_THROW(batch(c.space).validate(), InvalidArgument) << c.name;
  }
  // 55 bytes still fit one block, either side of the key.
  for (const auto position :
       {hash::SaltPosition::kPrefix, hash::SaltPosition::kSuffix}) {
    const SearchSpace edge{hash::Algorithm::kMd5, lower, 1, 20,
                           {position, std::string(35, 's')}};
    EXPECT_NO_THROW(single(edge).validate());
    EXPECT_NO_THROW(batch(edge).validate());
  }
}

TEST(SearchSpace, Sha256IsASingleTargetAlgorithmOnly) {
  const SearchSpace space{hash::Algorithm::kSha256, keyspace::Charset::lower(),
                          1, 4, {}};
  const std::string hex = hash::Sha256::digest("abc").to_hex();
  EXPECT_NO_THROW((CrackRequest{space, hex}.validate()));
  EXPECT_THROW((MultiCrackRequest{space, {hex}}.validate()), InvalidArgument);
}

TEST(SearchSpace, BothRequestTypesNumberKeysAlike) {
  const CrackRequest r = md5_request("abc");
  const MultiCrackRequest m{r, {r.target_hex}};
  for (const char* key : {"a", "z", "abc", "zzzzz", "qwert"}) {
    EXPECT_EQ(m.id_of(key), r.id_of(key)) << key;
    EXPECT_EQ(r.make_generator().at(r.id_of(key)), key);
  }
  EXPECT_EQ(m.space_size(), r.space_size());
}

TEST(CrackRequest, ValidateRejectsDigestAlgorithmMismatch) {
  CrackRequest r = md5_request("abc");
  r.algorithm = hash::Algorithm::kSha1;  // 16-byte digest vs SHA1's 20
  EXPECT_THROW(r.validate(), InvalidArgument);
}

TEST(CrackRequest, ValidateRejectsOversizedSalt) {
  CrackRequest r = md5_request("abc");
  r.max_length = 20;
  r.salt = {hash::SaltPosition::kSuffix, std::string(40, 's')};
  EXPECT_THROW(r.validate(), InvalidArgument);
}

}  // namespace
}  // namespace gks::core
