#include "core/audit.h"

#include <gtest/gtest.h>

#include "keyspace/space.h"
#include "support/error.h"

namespace gks::core {
namespace {

TEST(Audit, WeakPasswordsAreCracked) {
  const std::vector<AuditEntry> entries = {
      make_entry("alice", hash::Algorithm::kMd5, "cat", {}),
      make_entry("bob", hash::Algorithm::kSha1, "dog", {}),
  };
  AuditPolicy policy;
  policy.charset = keyspace::Charset::lower();
  policy.max_length = 3;
  policy.threads = 2;

  const auto verdicts = run_audit(entries, policy);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].cracked);
  EXPECT_EQ(verdicts[0].recovered_key, "cat");
  EXPECT_TRUE(verdicts[1].cracked);
  EXPECT_EQ(verdicts[1].recovered_key, "dog");
}

TEST(Audit, StrongPasswordSurvivesThePolicy) {
  // Outside the policy's charset/length: not cracked.
  const std::vector<AuditEntry> entries = {
      make_entry("carol", hash::Algorithm::kMd5, "Str0ng!Pass", {}),
  };
  AuditPolicy policy;
  policy.charset = keyspace::Charset::lower();
  policy.max_length = 4;
  const auto verdicts = run_audit(entries, policy);
  EXPECT_FALSE(verdicts[0].cracked);
  EXPECT_EQ(verdicts[0].tested,
            keyspace::space_size(26, policy.min_length, policy.max_length));
}

TEST(Audit, SaltedCredentialsCostTheSameSearch) {
  // The paper's point: salting defeats tables, not brute force.
  const hash::SaltSpec salt{hash::SaltPosition::kSuffix, "perUserSalt01"};
  const std::vector<AuditEntry> entries = {
      make_entry("dave", hash::Algorithm::kMd5, "abc", salt),
  };
  AuditPolicy policy;
  policy.charset = keyspace::Charset::lower();
  policy.max_length = 3;
  const auto verdicts = run_audit(entries, policy);
  EXPECT_TRUE(verdicts[0].cracked);
  EXPECT_EQ(verdicts[0].recovered_key, "abc");
}

TEST(Audit, PrefixSaltAlsoSupported) {
  const hash::SaltSpec salt{hash::SaltPosition::kPrefix, "XX"};
  const std::vector<AuditEntry> entries = {
      make_entry("erin", hash::Algorithm::kSha1, "ba", salt),
  };
  AuditPolicy policy;
  policy.charset = keyspace::Charset("ab");
  policy.max_length = 3;
  const auto verdicts = run_audit(entries, policy);
  EXPECT_TRUE(verdicts[0].cracked);
  EXPECT_EQ(verdicts[0].recovered_key, "ba");
}

TEST(Audit, EmptyEntryListIsFine) {
  EXPECT_TRUE(run_audit({}, AuditPolicy{}).empty());
}

TEST(Audit, MakeEntryRejectsUnsupportedAlgorithms) {
  EXPECT_THROW(make_entry("x", hash::Algorithm::kSha256, "pw", {}),
               InvalidArgument);
}

TEST(Audit, Sha256EntriesSharingASaltAreCrackedOneByOne) {
  // Batch sweeps cover MD5 and SHA1 only, so a shared-salt SHA256 group
  // must not reach multi_crack.
  const hash::SaltSpec pep{hash::SaltPosition::kSuffix, "pep"};
  std::vector<AuditEntry> entries;
  for (const char* pw : {"ab", "ba"}) {
    entries.push_back({pw, hash::Algorithm::kSha256,
                       salted_digest_hex(hash::Algorithm::kSha256, pep, pw),
                       pep});
  }
  AuditPolicy policy;
  policy.charset = keyspace::Charset("ab");
  policy.max_length = 2;
  policy.threads = 1;
  const auto verdicts = run_audit(entries, policy);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].recovered_key, "ab");
  EXPECT_EQ(verdicts[1].recovered_key, "ba");
}

TEST(Audit, EntriesSharingASaltShareOneSweep) {
  // u1..u3 share (MD5, suffix "pep"), u2 and u4 the same password; u4
  // has its own salt and so its own sweep.
  const hash::SaltSpec pep{hash::SaltPosition::kSuffix, "pep"};
  const std::vector<AuditEntry> entries = {
      make_entry("u1", hash::Algorithm::kMd5, "ab", pep),
      make_entry("u2", hash::Algorithm::kMd5, "bba", pep),
      make_entry("u3", hash::Algorithm::kMd5, "bba", pep),
      make_entry("u4", hash::Algorithm::kMd5, "bba",
                 {hash::SaltPosition::kPrefix, "x"}),
  };
  AuditPolicy policy;
  policy.charset = keyspace::Charset("ab");
  policy.max_length = 3;
  policy.threads = 2;
  const auto verdicts = run_audit(entries, policy);
  ASSERT_EQ(verdicts.size(), 4u);
  const char* keys[] = {"ab", "bba", "bba", "bba"};
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].user, entries[i].user);
    EXPECT_TRUE(verdicts[i].cracked) << entries[i].user;
    EXPECT_EQ(verdicts[i].recovered_key, keys[i]);
  }
  EXPECT_EQ(verdicts[0].tested, verdicts[1].tested);
  EXPECT_EQ(verdicts[1].tested, verdicts[2].tested);
  EXPECT_EQ(verdicts[0].elapsed_s, verdicts[2].elapsed_s);
}

TEST(Audit, VerdictsPreserveOrderAndUsers) {
  const std::vector<AuditEntry> entries = {
      make_entry("u1", hash::Algorithm::kMd5, "aa", {}),
      make_entry("u2", hash::Algorithm::kMd5, "ab", {}),
      make_entry("u3", hash::Algorithm::kMd5, "ba", {}),
  };
  AuditPolicy policy;
  policy.charset = keyspace::Charset("ab");
  policy.max_length = 2;
  const auto verdicts = run_audit(entries, policy);
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[0].user, "u1");
  EXPECT_EQ(verdicts[1].user, "u2");
  EXPECT_EQ(verdicts[2].user, "u3");
  for (const auto& v : verdicts) EXPECT_TRUE(v.cracked);
}

}  // namespace
}  // namespace gks::core
