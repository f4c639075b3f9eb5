#include "hash/salted.h"

#include <gtest/gtest.h>

#include "hash/md5.h"
#include "hash/sha1.h"

namespace gks::hash {
namespace {

TEST(Salted, NoSaltIsPlainDigest) {
  const SaltSpec none{};
  EXPECT_EQ(Md5::digest(none.apply("secret")), Md5::digest("secret"));
  EXPECT_EQ(Sha1::digest(none.apply("secret")), Sha1::digest("secret"));
}

TEST(Salted, PrefixSaltConcatenatesInFront) {
  const SaltSpec spec{SaltPosition::kPrefix, "NaCl"};
  EXPECT_EQ(spec.apply("pw"), "NaClpw");
  EXPECT_EQ(Md5::digest(spec.apply("pw")), Md5::digest("NaClpw"));
}

TEST(Salted, SuffixSaltConcatenatesBehind) {
  const SaltSpec spec{SaltPosition::kSuffix, "NaCl"};
  EXPECT_EQ(spec.apply("pw"), "pwNaCl");
  EXPECT_EQ(Sha1::digest(spec.apply("pw")), Sha1::digest("pwNaCl"));
}

TEST(Salted, DifferentSaltsChangeTheDigest) {
  // The property that defeats precomputed tables (paper Section I).
  const SaltSpec a{SaltPosition::kSuffix, "salt-a"};
  const SaltSpec b{SaltPosition::kSuffix, "salt-b"};
  EXPECT_NE(Md5::digest(a.apply("hunter2")), Md5::digest(b.apply("hunter2")));
}

TEST(Salted, ExtraLengthReportsSaltBytes) {
  EXPECT_EQ(SaltSpec{}.extra_length(), 0u);
  EXPECT_EQ((SaltSpec{SaltPosition::kPrefix, "abc"}).extra_length(), 3u);
  EXPECT_EQ((SaltSpec{SaltPosition::kSuffix, "abcd"}).extra_length(), 4u);
}

TEST(Salted, EmptySaltStringBehavesLikePlain) {
  const SaltSpec spec{SaltPosition::kSuffix, ""};
  EXPECT_EQ(Md5::digest(spec.apply("k")), Md5::digest("k"));
}

}  // namespace
}  // namespace gks::hash
