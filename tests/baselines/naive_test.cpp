#include "baselines/naive.h"

#include <gtest/gtest.h>

#include "core/scan_engine.h"
#include "hash/md5.h"
#include "hash/sha1.h"

namespace gks::baselines {
namespace {

core::CrackRequest request_for(const std::string& plaintext) {
  core::CrackRequest r;
  r.algorithm = hash::Algorithm::kMd5;
  r.target_hex = hash::Md5::digest(plaintext).to_hex();
  r.charset = keyspace::Charset("abcd");
  r.min_length = 1;
  r.max_length = 5;
  return r;
}

TEST(Naive, FindsTheSameKeyAsTheOptimizedEngine) {
  const auto req = request_for("dbca");
  const core::ScanPlan plan(req);
  const auto space = req.space_interval();

  const auto optimized = plan.scan(space);
  const auto naive = naive_scan(req, space);
  const auto middle = next_full_hash_scan(req, space);

  ASSERT_EQ(optimized.found.size(), 1u);
  ASSERT_EQ(naive.found.size(), 1u);
  ASSERT_EQ(middle.found.size(), 1u);
  EXPECT_EQ(naive.found[0].id, optimized.found[0].id);
  EXPECT_EQ(naive.found[0].value, "dbca");
  EXPECT_EQ(middle.found[0].id, optimized.found[0].id);
}

TEST(Naive, AgreesOnEmptyResults) {
  auto req = request_for("dbca");
  req.target_hex = hash::Md5::digest("notinspace9").to_hex();
  const auto space = req.space_interval();
  EXPECT_TRUE(naive_scan(req, space).found.empty());
  EXPECT_TRUE(next_full_hash_scan(req, space).found.empty());
}

TEST(Naive, WorksOnSha1Too) {
  core::CrackRequest req;
  req.algorithm = hash::Algorithm::kSha1;
  req.target_hex = hash::Sha1::digest("cb").to_hex();
  req.charset = keyspace::Charset("abc");
  req.min_length = 1;
  req.max_length = 3;
  const auto out = naive_scan(req, req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "cb");
}

TEST(Naive, RespectsSubIntervals) {
  const auto req = request_for("dd");
  const u128 id = req.id_of("dd");
  EXPECT_EQ(naive_scan(req, {id, id + u128(1)}).found.size(), 1u);
  EXPECT_TRUE(naive_scan(req, {id + u128(1), id + u128(50)}).found.empty());
}

TEST(Naive, TestedCountsMatchIntervalSizes) {
  const auto req = request_for("aa");
  const keyspace::Interval interval(u128(7), u128(399));
  EXPECT_EQ(naive_scan(req, interval).tested, interval.size());
  EXPECT_EQ(next_full_hash_scan(req, interval).tested, interval.size());
}

TEST(Naive, HandlesSaltedRequests) {
  core::CrackRequest req;
  req.algorithm = hash::Algorithm::kMd5;
  req.salt = {hash::SaltPosition::kPrefix, "P"};
  req.target_hex = hash::Md5::digest("Pba").to_hex();
  req.charset = keyspace::Charset("ab");
  req.min_length = 1;
  req.max_length = 3;
  const auto out = naive_scan(req, req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "ba");
}

}  // namespace
}  // namespace gks::baselines
