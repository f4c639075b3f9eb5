#include "core/parallel_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

namespace gks::core {
namespace {

/// Sweeps `whole` and returns its claims sorted by first id, checking
/// that they tile it: each id exactly once.
std::vector<keyspace::Interval> sweep_claims(ThreadPool& pool,
                                             const keyspace::Interval& whole) {
  std::mutex mu;
  std::vector<keyspace::Interval> claims;
  parallel_sweep(pool, whole,
                 [&](std::size_t worker, const keyspace::Interval& ids) {
                   EXPECT_LT(worker, pool.size());
                   std::lock_guard lock(mu);
                   claims.push_back(ids);
                   return true;
                 });
  std::sort(claims.begin(), claims.end(),
            [](const auto& a, const auto& b) { return a.begin < b.begin; });
  u128 next = whole.begin;
  for (const keyspace::Interval& ids : claims) {
    EXPECT_EQ(ids.begin, next);
    EXPECT_FALSE(ids.empty());
    next = ids.end;
  }
  EXPECT_EQ(next, whole.end);
  return claims;
}

TEST(ParallelSweep, CoversEachSuperBatchSeamExactlyOnce) {
  ThreadPool pool(4);
  // 2^62 and 2^64 are both super-batch seams; the second also crosses
  // the 64-bit boundary of the id arithmetic.
  for (const u128 seam : {u128(std::uint64_t{1} << 62), u128(1, 0)}) {
    for (const keyspace::Interval& ids : sweep_claims(
             pool, keyspace::Interval(seam - u128(5000), seam + u128(5000)))) {
      EXPECT_FALSE(ids.begin < seam && seam < ids.end)
          << "a claim straddles the seam";
    }
  }
}

TEST(ParallelSweep, ClaimsStartSmallAndGrowToTheCap) {
  ThreadPool pool(4);
  const std::vector<keyspace::Interval> claims = sweep_claims(
      pool, keyspace::Interval(u128(0), u128(std::uint64_t{1} << 30)));
  EXPECT_EQ(claims.front().size(), u128(1024));
  u128 largest(0);
  for (std::size_t i = 1; i < claims.size(); ++i) {
    // Sizes never shrink, except the last claim, which ends the batch.
    if (i + 1 < claims.size()) {
      EXPECT_LE(claims[i - 1].size(), claims[i].size());
    }
    largest = std::max(largest, claims[i].size());
  }
  EXPECT_EQ(largest, u128(std::uint64_t{1} << 22));
}

TEST(ParallelSweep, StopsClaimingOnceFnReturnsFalse) {
  ThreadPool pool(4);
  // Two whole super-batches of 2^40 claims each: the call returns in
  // time only if the stop ends the claim loop and the batch walk, not
  // just the work inside each claim.
  const keyspace::Interval whole(u128(0), u128(std::uint64_t{1} << 63));
  std::atomic<std::uint64_t> covered{0};
  std::atomic<int> calls{0};
  parallel_sweep(pool, whole, [&](std::size_t, const keyspace::Interval& ids) {
    covered.fetch_add(ids.size().to_u64());
    calls.fetch_add(1);
    return false;
  });
  // At most one claim per worker runs before the stop is seen, and the
  // first claims are small.
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 4);
  EXPECT_LE(covered.load(), 4u * 1024u);
}

TEST(ParallelSweep, EmptyIntervalCallsNothing) {
  ThreadPool pool(2);
  bool called = false;
  parallel_sweep(pool, keyspace::Interval(u128(7), u128(7)),
                 [&](std::size_t, const keyspace::Interval&) {
                   called = true;
                   return true;
                 });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace gks::core
