#include "core/scan_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/error.h"

#include "hash/md5.h"
#include "hash/sha1.h"
#include "hash/sha256.h"
#include "keyspace/codec.h"
#include "keyspace/space.h"

namespace gks::core {
namespace {

CrackRequest request_for(hash::Algorithm alg, const std::string& plaintext,
                         keyspace::Charset charset, unsigned min_len,
                         unsigned max_len, hash::SaltSpec salt = {}) {
  CrackRequest r;
  r.algorithm = alg;
  r.charset = std::move(charset);
  r.min_length = min_len;
  r.max_length = max_len;
  r.salt = salt;
  const std::string message = salt.apply(plaintext);
  r.target_hex = alg == hash::Algorithm::kMd5
                     ? hash::Md5::digest(message).to_hex()
                     : hash::Sha1::digest(message).to_hex();
  return r;
}

TEST(ScanEngine, FindsShortMd5KeyAtItsExactId) {
  const auto req = request_for(hash::Algorithm::kMd5, "cab",
                               keyspace::Charset("abc"), 1, 4);
  const ScanPlan plan(req);
  const u128 id = plan.id_of("cab");
  const auto out = plan.scan(req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "cab");
  EXPECT_EQ(out.found[0].id, id);
  EXPECT_EQ(out.tested, req.space_size());
}

TEST(ScanEngine, FindsSha1Key) {
  const auto req = request_for(hash::Algorithm::kSha1, "bbaa",
                               keyspace::Charset("ab"), 1, 5);
  const ScanPlan plan(req);
  const auto out = plan.scan(req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "bbaa");
}

TEST(ScanEngine, IdOfIsConsistentWithScan) {
  const auto req = request_for(hash::Algorithm::kMd5, "dcba",
                               keyspace::Charset("abcd"), 2, 4);
  const ScanPlan plan(req);
  const u128 id = plan.id_of("dcba");
  // Scanning only the surrounding slice must still find it.
  const keyspace::Interval slice(id - u128(10), id + u128(10));
  const auto out = plan.scan(slice);
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].id, id);
}

TEST(ScanEngine, MissesKeyOutsideTheInterval) {
  const auto req = request_for(hash::Algorithm::kMd5, "ccc",
                               keyspace::Charset("abc"), 1, 4);
  const ScanPlan plan(req);
  const u128 id = plan.id_of("ccc");
  const auto out = plan.scan(keyspace::Interval(u128(0), id));
  EXPECT_TRUE(out.found.empty());
  EXPECT_EQ(out.tested, id);
}

TEST(ScanEngine, KeysLongerThanFourUseTheTailChunking) {
  // 6-char key: the fast path rebuilds a context per tail block.
  const auto req = request_for(hash::Algorithm::kMd5, "fedcba",
                               keyspace::Charset("abcdef"), 6, 6);
  const ScanPlan plan(req);
  const auto out = plan.scan(req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "fedcba");
  EXPECT_EQ(out.tested, u128(46656));  // 6^6
}

TEST(ScanEngine, SuffixSaltedKeysUseTheFastPath) {
  const hash::SaltSpec salt{hash::SaltPosition::kSuffix, "NaCl"};
  const auto req = request_for(hash::Algorithm::kMd5, "abcde",
                               keyspace::Charset("abcde"), 5, 5, salt);
  const ScanPlan plan(req);
  const auto out = plan.scan(req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "abcde");
}

TEST(ScanEngine, PrefixSaltedKeysFallBackToTheGenericPath) {
  const hash::SaltSpec salt{hash::SaltPosition::kPrefix, "NaCl"};
  const auto req = request_for(hash::Algorithm::kSha1, "dcb",
                               keyspace::Charset("abcd"), 1, 3, salt);
  const ScanPlan plan(req);
  const auto out = plan.scan(req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "dcb");
}

TEST(ScanEngine, ShortSuffixSaltedKeysFallBackSafely) {
  // key length < 4 with suffix salt: salt bytes share word 0, so the
  // generic path must take over — results must still be right.
  const hash::SaltSpec salt{hash::SaltPosition::kSuffix, "xy"};
  const auto req = request_for(hash::Algorithm::kMd5, "ba",
                               keyspace::Charset("ab"), 1, 3, salt);
  const ScanPlan plan(req);
  const auto out = plan.scan(req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "ba");
}

TEST(ScanEngine, SplitScansCoverLikeOneScan) {
  // Property: scanning [0,n) in arbitrary pieces finds the same set.
  const auto req = request_for(hash::Algorithm::kMd5, "bcb",
                               keyspace::Charset("abc"), 1, 4);
  const ScanPlan plan(req);
  const u128 n = req.space_size();
  for (const std::uint64_t pieces : {2u, 3u, 7u}) {
    const auto slices =
        keyspace::split_even(keyspace::Interval(u128(0), n), pieces);
    std::size_t found = 0;
    u128 tested(0);
    for (const auto& s : slices) {
      const auto out = plan.scan(s);
      found += out.found.size();
      tested += out.tested;
    }
    EXPECT_EQ(found, 1u) << pieces;
    EXPECT_EQ(tested, n) << pieces;
  }
}

TEST(ScanEngine, IntervalsCrossingLengthBoundaries) {
  const auto req = request_for(hash::Algorithm::kMd5, "aaa",
                               keyspace::Charset("abc"), 1, 4);
  const ScanPlan plan(req);
  const u128 id = plan.id_of("aaa");  // first 3-char key
  // Interval straddling the 2->3 char boundary.
  const auto out = plan.scan(keyspace::Interval(id - u128(3), id + u128(3)));
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "aaa");
}

TEST(ScanEngine, RejectsOutOfSpaceIntervalsAndKeys) {
  const auto req = request_for(hash::Algorithm::kMd5, "ab",
                               keyspace::Charset("ab"), 1, 2);
  const ScanPlan plan(req);
  EXPECT_THROW(plan.scan(keyspace::Interval(u128(0), req.space_size() + u128(1))),
               InvalidArgument);
  EXPECT_THROW(plan.id_of("aaa"), InvalidArgument);
}

TEST(ScanEngine, EmptyIntervalIsANoOp) {
  const auto req = request_for(hash::Algorithm::kMd5, "ab",
                               keyspace::Charset("ab"), 1, 2);
  const ScanPlan plan(req);
  const auto out = plan.scan(keyspace::Interval(u128(3), u128(3)));
  EXPECT_TRUE(out.found.empty());
  EXPECT_EQ(out.tested, u128(0));
}

TEST(ScanEngine, AlphanumericEightCharKeySliceScan) {
  // A realistic paper-style target: 8 alphanumeric chars; scan only
  // the slice around the known id (the full space is 2.2e14).
  const auto req = request_for(hash::Algorithm::kMd5, "Xy3kQ9ab",
                               keyspace::Charset::alphanumeric(), 1, 8);
  const ScanPlan plan(req);
  const u128 id = plan.id_of("Xy3kQ9ab");
  const auto out =
      plan.scan(keyspace::Interval(id - u128(50000), id + u128(50000)));
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "Xy3kQ9ab");
}

/// Every (id, key) of the request's space that matches its target,
/// found by hashing each candidate in id order — the reference the
/// lane engine must reproduce.
std::vector<dispatch::Found> brute_force_hits(const CrackRequest& req) {
  const keyspace::KeyCodec codec(req.charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  std::string key = codec.decode(
      keyspace::first_id_of_length(req.charset.size(), req.min_length));
  std::vector<dispatch::Found> hits;
  for (u128 id(0); id < req.space_size(); ++id) {
    if (req.matches(key)) hits.push_back({id, key});
    codec.next_inplace(key);
  }
  return hits;
}

TEST(ScanEngine, LaneScannerProducesIdenticalResults) {
  // The lane engine must agree with a brute-force walk of the same
  // space on hits, ids and coverage.
  for (const auto alg : {hash::Algorithm::kMd5, hash::Algorithm::kSha1}) {
    const auto req =
        request_for(alg, "fade", keyspace::Charset("abcdef"), 1, 4);
    const auto expected = brute_force_hits(req);
    const auto out = ScanPlan(req).scan(req.space_interval());
    ASSERT_EQ(expected.size(), 1u);
    ASSERT_EQ(out.found.size(), expected.size());
    EXPECT_EQ(out.found[0].id, expected[0].id);
    EXPECT_EQ(out.found[0].value, expected[0].value);
    EXPECT_EQ(out.tested, req.space_size());
  }
}

TEST(ScanEngine, Sha256ScansOnTheGenericPath) {
  // SHA256 has no lane kernels (kernels_for rejects it), so every
  // chunk must take the generic path.
  CrackRequest req;
  req.algorithm = hash::Algorithm::kSha256;
  req.charset = keyspace::Charset("abc");
  req.min_length = 1;
  req.max_length = 4;
  req.target_hex = hash::Sha256::digest("cab").to_hex();
  const ScanPlan plan(req);
  const auto expected = brute_force_hits(req);
  const auto out = plan.scan(req.space_interval());
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0], expected[0]);
  EXPECT_EQ(out.tested, req.space_size());
}

TEST(ScanEngine, LaneScannerHandlesSubIntervalBoundaries) {
  const auto req = request_for(hash::Algorithm::kMd5, "decade",
                               keyspace::Charset("acde"), 6, 6);
  ScanPlan lanes(req);
  const u128 id = lanes.id_of("decade");
  // Odd-sized interval straddling the hit: exercises the scalar tail.
  const auto out =
      lanes.scan(keyspace::Interval(id - u128(3), id + u128(5)));
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "decade");
}

}  // namespace
}  // namespace gks::core
