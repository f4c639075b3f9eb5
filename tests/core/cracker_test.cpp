#include "core/cracker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <thread>

#include "support/error.h"

#include "hash/md5.h"
#include "hash/sha1.h"

namespace gks::core {
namespace {

TEST(LocalCracker, CracksAnMd5Password) {
  const LocalCracker cracker(2);
  CrackRequest request;
  request.target_hex = hash::Md5::digest("dog").to_hex();
  request.charset = keyspace::Charset::lower();
  request.max_length = 4;
  const auto result = cracker.crack(request);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.key, "dog");
  EXPECT_GT(result.throughput, 0.0);
}

TEST(LocalCracker, CracksASha1Password) {
  CrackRequest request;
  request.algorithm = hash::Algorithm::kSha1;
  request.target_hex = hash::Sha1::digest("cab").to_hex();
  request.charset = keyspace::Charset("abc");
  request.min_length = 1;
  request.max_length = 4;
  const auto result = LocalCracker(2).crack(request);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.key, "cab");
}

TEST(LocalCracker, CracksASaltedPassword) {
  CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.salt = {hash::SaltPosition::kSuffix, "s4lt"};
  request.target_hex = hash::Md5::digest("keyss4lt").to_hex();
  request.charset = keyspace::Charset::lower();
  request.min_length = 4;
  request.max_length = 5;
  const auto result = LocalCracker(2).crack(request);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.key, "keys");
}

TEST(LocalCracker, UpperCaseTargetOnTheGenericPath) {
  // A prefix salt sends every length through the generic path, which
  // must compare digest bytes, not hex spellings.
  CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.salt = {hash::SaltPosition::kPrefix, "xy"};
  request.target_hex = hash::Md5::digest("xyab").to_hex();
  for (char& ch : request.target_hex) {
    ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  request.charset = keyspace::Charset::lower();
  request.min_length = 1;
  request.max_length = 3;
  const auto result = LocalCracker(2).crack(request);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.key, "ab");
}

TEST(LocalCracker, ReportsExhaustionWhenAbsent) {
  CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.target_hex = hash::Md5::digest("UPPER").to_hex();  // not in space
  request.charset = keyspace::Charset("ab");
  request.min_length = 1;
  request.max_length = 8;
  const auto result = LocalCracker(2).crack(request);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.tested, request.space_size());
}

TEST(LocalCracker, StopsEarlyOnAHit) {
  // A key early in the enumeration must not require scanning the
  // whole space ("a" is id 0).
  CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.target_hex = hash::Md5::digest("a").to_hex();
  request.charset = keyspace::Charset::lower();
  request.min_length = 1;
  request.max_length = 6;
  const auto result = LocalCracker(2).crack(request);
  EXPECT_TRUE(result.found);
  EXPECT_LT(result.tested, request.space_size());
}

TEST(LocalCracker, ProgressCallbackSeesMonotoneCoverage) {
  CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.target_hex = hash::Md5::digest("absent!").to_hex();
  request.charset = keyspace::Charset("abcdef");
  request.min_length = 1;
  request.max_length = 9;  // ~12M candidates: many claims

  u128 last_tested(0);
  u128 seen_total(0);
  int calls = 0;
  const auto result = LocalCracker(2).crack(
      request, [&](const u128& tested, const u128& total) {
        EXPECT_GT(tested, last_tested);
        last_tested = tested;
        seen_total = total;
        ++calls;
        return true;
      });
  EXPECT_FALSE(result.found);
  EXPECT_GE(calls, 2);
  EXPECT_EQ(seen_total, request.space_size());
  EXPECT_EQ(result.tested, request.space_size());
}

TEST(LocalCracker, ProgressCallsNeverOverlap) {
  CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.target_hex = hash::Md5::digest("absent!").to_hex();
  request.charset = keyspace::Charset("abcdef");
  request.min_length = 1;
  request.max_length = 8;  // ~2M candidates: hundreds of claims

  std::atomic<bool> inside{false};
  std::atomic<int> overlaps{0};
  int calls = 0;
  const auto result = LocalCracker(4).crack(
      request, [&](const u128&, const u128&) {
        if (inside.exchange(true)) ++overlaps;
        ++calls;
        // Hold the call open so that an unserialized one would overlap.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        inside.store(false);
        return true;
      });
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_GE(calls, 2);
  EXPECT_EQ(result.tested, request.space_size());
}

TEST(LocalCracker, ProgressCallbackCanCancelTheSearch) {
  CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.target_hex = hash::Md5::digest("absent!").to_hex();
  request.charset = keyspace::Charset("abcdef");
  request.min_length = 1;
  request.max_length = 9;

  // The claims still running when the cancel lands merge their counts
  // but do not call progress again.
  std::atomic<int> calls{0};
  const auto result = LocalCracker(4).crack(
      request, [&](const u128&, const u128&) {
        ++calls;
        return false;
      });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_FALSE(result.found);
  EXPECT_LT(result.tested, request.space_size());
  EXPECT_GT(result.tested, u128(0));
}

TEST(LocalCracker, InvalidRequestRejectedUpFront) {
  CrackRequest request;  // bad digest (empty)
  EXPECT_THROW(LocalCracker(1).crack(request), InvalidArgument);
}

}  // namespace
}  // namespace gks::core
