// Live-mutation coverage for the sweep engine: targets added while the
// space is being swept, removals detaching digests mid-flight,
// generation handoff between snapshots, compaction at dead-slot
// pile-up, the bounded per-tail context cache, and the exactly-once
// accounting that survives all of it.

#include "core/multi_sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hash/md5.h"
#include "hash/sha1.h"
#include "keyspace/codec.h"
#include "keyspace/space.h"
#include "support/error.h"

namespace gks::core {
namespace {

MultiCrackRequest md5_request(const std::vector<std::string>& keys,
                              keyspace::Charset charset, unsigned min_len,
                              unsigned max_len) {
  MultiCrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.charset = std::move(charset);
  request.min_length = min_len;
  request.max_length = max_len;
  for (const auto& k : keys) {
    request.target_hexes.push_back(hash::Md5::digest(k).to_hex());
  }
  return request;
}

/// The key at generator-relative id `rel_id` of the request's space —
/// the same mapping the sweeper scans in, so tests can plant targets
/// at chosen sweep positions.
std::string key_at(const MultiCrackRequest& request, u128 rel_id) {
  const keyspace::KeyCodec codec(request.charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  const u128 offset = keyspace::first_id_of_length(request.charset.size(),
                                                   request.min_length);
  return codec.decode(rel_id + offset);
}

std::string md5_hex(const std::string& key) {
  return hash::Md5::digest(key).to_hex();
}

/// Drives [begin, end) through the sweeper in `step`-sized slices the
/// way the job service does: every scan's untested remainder (yielded
/// on generation handoff) is simply re-dispatched. Returns the number
/// of request slots resolved via mark_found — the exactly-once
/// observable.
std::size_t drive(MultiSweeper& sweeper, u128 begin, u128 end, u128 step) {
  std::size_t resolved = 0;
  std::vector<SweepHit> hits;
  u128 pos = begin;
  while (pos < end) {
    u128 stop = pos + step;
    if (stop > end) stop = end;
    hits.clear();
    pos += sweeper.scan(keyspace::Interval(pos, stop), hits);
    for (const SweepHit& h : hits) {
      resolved += sweeper.mark_found(h.unique_index, h.key).size();
    }
  }
  return resolved;
}

/// drive() over [0, end) on `threads` scanner threads that pull
/// `step`-sized slices from one shared cursor; each thread re-dispatches
/// its own slice's untested remainder. A thread that took the slice at
/// `begin` waits until may_scan(begin) before scanning it.
std::size_t drive_parallel(
    MultiSweeper& sweeper, u128 end, u128 step, std::size_t threads,
    const std::function<bool(u128)>& may_scan = [](u128) { return true; }) {
  std::mutex mu;
  u128 next(0);
  std::atomic<std::size_t> resolved{0};
  const auto scanner = [&] {
    std::vector<SweepHit> hits;
    for (;;) {
      u128 pos;
      u128 stop;
      {
        std::lock_guard lock(mu);
        if (next >= end) return;
        pos = next;
        stop = pos + step < end ? pos + step : end;
        next = stop;
      }
      while (!may_scan(pos)) std::this_thread::yield();
      while (pos < stop) {
        hits.clear();
        pos += sweeper.scan(keyspace::Interval(pos, stop), hits);
        for (const SweepHit& h : hits) {
          resolved.fetch_add(sweeper.mark_found(h.unique_index, h.key).size());
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(scanner);
  for (std::thread& t : pool) t.join();
  return resolved.load();
}

/// A space of 12 tails (12 chars, length 5), more than the context
/// cache holds, so a sweep of it evicts.
MultiCrackRequest multi_tail_request() {
  static_assert(MultiSweeper::kCachedContexts < 12);
  return md5_request({"a"}, keyspace::Charset("abcdefghijkl"), 5, 5);
}

TEST(MultiSweep, TargetAddedBeforeItsCoveringIntervalIsFound) {
  // Space "abcd" x 1..6 = 5460 ids swept in 500-id slices. The second
  // target is attached only once a third of the space is covered; its
  // key lives at three quarters — added before its covering interval,
  // so the sweep must recover it.
  auto request = md5_request({"a"}, keyspace::Charset("abcd"), 1, 6);
  request.target_hexes[0] = md5_hex(key_at(request, u128(10)));
  MultiSweeper sweeper(request);
  const u128 space = sweeper.space_size();
  const std::string late_key = key_at(request, space * u128(3) / u128(4));

  std::size_t resolved = drive(sweeper, u128(0), space / u128(3), u128(500));
  EXPECT_EQ(resolved, 1u);  // the early target
  const std::uint64_t gen_before = sweeper.generation();

  const TargetAddOutcome out = sweeper.add_targets({md5_hex(late_key)});
  EXPECT_EQ(out.attached, 1u);
  EXPECT_EQ(out.already_found, 0u);
  ASSERT_EQ(out.slots.size(), 1u);
  EXPECT_EQ(out.slots[0], 1u);
  EXPECT_GT(sweeper.generation(), gen_before);
  EXPECT_EQ(sweeper.outstanding_count(), 1u);

  resolved += drive(sweeper, space / u128(3), space, u128(500));
  EXPECT_EQ(resolved, 2u);
  EXPECT_TRUE(sweeper.all_found());

  MultiCrackResult result;
  sweeper.fill_results(result);
  ASSERT_EQ(result.targets.size(), 2u);
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_EQ(result.targets[1].key, late_key);
  EXPECT_EQ(sweeper.slot_hex(1), md5_hex(late_key));
}

TEST(MultiSweep, DuplicateOfRecoveredTargetResolvesInstantly) {
  auto request = md5_request({"ba"}, keyspace::Charset("ab"), 1, 2);
  MultiSweeper sweeper(request);
  drive(sweeper, u128(0), sweeper.space_size(), u128(2));
  ASSERT_TRUE(sweeper.all_found());

  // Same digest again: no new outstanding work, flagged already-found,
  // and the new request slot reports the recovered key.
  const TargetAddOutcome out = sweeper.add_targets({md5_hex("ba")});
  EXPECT_EQ(out.attached, 0u);
  EXPECT_EQ(out.already_found, 1u);
  EXPECT_TRUE(sweeper.all_found());

  MultiCrackResult result;
  sweeper.fill_results(result);
  ASSERT_EQ(result.targets.size(), 2u);
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_EQ(result.targets[1].key, "ba");
  EXPECT_EQ(result.cracked, 2u);
}

TEST(MultiSweep, RemoveDetachesAndSuppressesItsHits) {
  auto request = md5_request({"ab", "ba"}, keyspace::Charset("ab"), 2, 2);
  MultiSweeper sweeper(request);
  EXPECT_EQ(sweeper.outstanding_count(), 2u);

  EXPECT_EQ(sweeper.remove_targets({md5_hex("ab")}), 1u);
  EXPECT_EQ(sweeper.outstanding_count(), 1u);
  // Unknown digests and repeat removals are ignored, not errors.
  EXPECT_EQ(sweeper.remove_targets({md5_hex("zz-unknown")}), 0u);
  EXPECT_EQ(sweeper.remove_targets({md5_hex("ab")}), 0u);

  // A stale-snapshot hit on the removed digest resolves to no slots —
  // the removed target can never reach the found log.
  EXPECT_TRUE(sweeper.mark_found_hex(md5_hex("ab"), "ab").empty());

  const std::size_t resolved =
      drive(sweeper, u128(0), sweeper.space_size(), u128(2));
  EXPECT_EQ(resolved, 1u);
  EXPECT_TRUE(sweeper.all_found());

  MultiCrackResult result;
  sweeper.fill_results(result);
  EXPECT_FALSE(result.targets[0].found);
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_TRUE(sweeper.found_so_far().size() == 1 &&
              sweeper.found_so_far()[0].second == "ba");
}

TEST(MultiSweep, ReattachAfterRemoveRecoversOnBothSlots) {
  auto request = md5_request({"ba"}, keyspace::Charset("ab"), 1, 2);
  MultiSweeper sweeper(request);
  ASSERT_EQ(sweeper.remove_targets({md5_hex("ba")}), 1u);
  ASSERT_TRUE(sweeper.all_found());  // nothing outstanding

  const TargetAddOutcome out = sweeper.add_targets({md5_hex("ba")});
  EXPECT_EQ(out.attached, 1u);
  EXPECT_EQ(sweeper.outstanding_count(), 1u);

  const std::size_t resolved =
      drive(sweeper, u128(0), sweeper.space_size(), u128(2));
  // One unique digest, two request slots: the original (re-attached)
  // and the one added back — a single recovery resolves both.
  EXPECT_EQ(resolved, 2u);
  MultiCrackResult result;
  sweeper.fill_results(result);
  ASSERT_EQ(result.targets.size(), 2u);
  EXPECT_TRUE(result.targets[0].found);
  EXPECT_TRUE(result.targets[1].found);
  EXPECT_EQ(result.cracked, 2u);
}

TEST(MultiSweep, CompactionKeepsRemainingTargetsFindable) {
  // 700 targets early in the space plus one at its very end: recovering
  // the bulk crosses the compaction threshold (>= 256 newly dead and a
  // majority of the live index), so the last target must be found by
  // post-compaction contexts. First a 10^4 single-tail space swept by
  // one thread (the 700 in its first 700 ids), then the multi-tail
  // space swept by four threads under cache pressure (the 700 spread
  // over its first half).
  MultiCrackRequest single_tail;
  single_tail.algorithm = hash::Algorithm::kMd5;
  single_tail.charset = keyspace::Charset("abcdefghij");
  single_tail.min_length = 4;
  single_tail.max_length = 4;
  const struct {
    MultiCrackRequest space;
    u128 spacing;
    std::size_t threads;
  } inputs[] = {{single_tail, u128(1), 1},
                {multi_tail_request(), u128(177), 4}};
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.threads);
    MultiCrackRequest request = input.space;
    request.target_hexes.clear();
    const u128 space = keyspace::space_size(
        request.charset.size(), request.min_length, request.max_length);
    for (u128 i(0); i < u128(700); ++i) {
      request.target_hexes.push_back(
          md5_hex(key_at(input.space, i * input.spacing)));
    }
    const std::string last_key = key_at(input.space, space - u128(1));
    request.target_hexes.push_back(md5_hex(last_key));

    MultiSweeper sweeper(request);
    const std::size_t resolved =
        drive_parallel(sweeper, space, u128(1000), input.threads);
    EXPECT_EQ(resolved, 701u);
    EXPECT_TRUE(sweeper.all_found());
    EXPECT_GT(sweeper.generation(), 0u);  // compaction published one

    MultiCrackResult result;
    sweeper.fill_results(result);
    EXPECT_TRUE(result.targets.back().found);
    EXPECT_EQ(result.targets.back().key, last_key);
  }
}

TEST(MultiSweep, MarkFoundIsExactlyOnceAcrossPaths) {
  auto request = md5_request({"ab", "ba"}, keyspace::Charset("ab"), 2, 2);
  MultiSweeper sweeper(request);

  // Unique indices are digest-sorted, so the hex path selects targets
  // deterministically; the index path must agree on duplicates.
  EXPECT_EQ(sweeper.mark_found_hex(md5_hex("ab"), "ab").size(), 1u);
  EXPECT_TRUE(sweeper.mark_found_hex(md5_hex("ab"), "ab").empty());
  EXPECT_EQ(sweeper.mark_found_hex(md5_hex("ba"), "ba").size(), 1u);
  EXPECT_TRUE(sweeper.mark_found(0, "ab").empty());  // duplicate hit
  EXPECT_TRUE(sweeper.mark_found(1, "ba").empty());
  EXPECT_TRUE(sweeper.mark_found_hex(md5_hex("nope"), "x").empty());

  EXPECT_TRUE(sweeper.all_found());
  EXPECT_EQ(sweeper.found_so_far().size(), 2u);
}

TEST(MultiSweep, AddValidatesHexesBeforeMutating) {
  auto request = md5_request({"ba"}, keyspace::Charset("ab"), 1, 2);
  MultiSweeper sweeper(request);
  const std::uint64_t gen = sweeper.generation();
  EXPECT_THROW(sweeper.add_targets({md5_hex("ok"), "not-a-digest"}),
               InvalidArgument);
  EXPECT_THROW(sweeper.remove_targets({"xyz"}), InvalidArgument);
  EXPECT_EQ(sweeper.slot_count(), 1u);
  EXPECT_EQ(sweeper.unique_count(), 1u);
  EXPECT_EQ(sweeper.generation(), gen);
}

TEST(MultiSweep, FilterStatsAccumulateOverScans) {
  auto request = md5_request({"dcba"}, keyspace::Charset("abcd"), 4, 4);
  MultiSweeper sweeper(request);
  std::vector<SweepHit> hits;
  sweeper.scan(sweeper.space_interval(), hits);
  ASSERT_EQ(hits.size(), 1u);
  // The real recovery necessarily passed the gate at least once.
  EXPECT_GE(sweeper.filter_stats().gate_hits, 1u);
}

TEST(MultiSweep, ContextCacheRebuildsOnlyEvictedTails) {
  // 16 tails of 16^4 keys each, twice what the cache holds; the one
  // target is not in the space, so every scan runs the fast path.
  static_assert(MultiSweeper::kCachedContexts < 16);
  const auto request =
      md5_request({"zzzzz"}, keyspace::Charset("abcdefghijklmnop"), 5, 5);
  MultiSweeper sweeper(request);
  const u128 space = sweeper.space_size();
  const u128 tail_block(65536);
  std::vector<SweepHit> hits;
  ASSERT_EQ(sweeper.scan(sweeper.space_interval(), hits), space);
  EXPECT_EQ(sweeper.filter_stats().context_builds, 16u);

  // The last tail is still cached; the first was evicted long ago.
  sweeper.scan(keyspace::Interval(space - tail_block, space), hits);
  EXPECT_EQ(sweeper.filter_stats().context_builds, 16u);
  sweeper.scan(keyspace::Interval(u128(0), tail_block), hits);
  EXPECT_EQ(sweeper.filter_stats().context_builds, 17u);
  EXPECT_TRUE(hits.empty());
}

TEST(MultiSweep, ConcurrentAddDuringScanIsNeverMissed) {
  // Scanner threads sweep the space in slices while the main thread
  // attaches a target planted in the second half. No slice past the
  // halfway mark is scanned until the add lands, so the covering
  // interval is always scanned after the attach — under any
  // interleaving the key must be recovered, possibly via a
  // generation-yield + re-dispatch. First one thread on lower^1..3,
  // then four threads on the multi-tail space, where evictions run
  // while scans hold contexts.
  auto small = md5_request({"zz"}, keyspace::Charset::lower(), 1, 3);
  // The multi-tail space's first target sits just below the hold point
  // (12^5 / 2), so the first half is scanned in full, not skipped as
  // all-found.
  auto multi_tail = multi_tail_request();
  const std::string multi_tail_first = key_at(multi_tail, u128(124415));
  multi_tail.target_hexes = {md5_hex(multi_tail_first)};
  const struct {
    MultiCrackRequest request;
    std::size_t threads;
    std::string first_key;
  } inputs[] = {{small, 1, "zz"}, {multi_tail, 4, multi_tail_first}};
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.threads);
    MultiSweeper sweeper(input.request);
    const u128 space = sweeper.space_size();
    const u128 hold_point = space / u128(2);
    const std::string late_key = key_at(input.request, space - u128(2));

    std::atomic<std::size_t> slices_taken{0};
    std::atomic<bool> added{false};
    std::size_t resolved = 0;
    std::thread sweep([&] {
      resolved = drive_parallel(
          sweeper, space, u128(700), input.threads, [&](u128 begin) {
            slices_taken.fetch_add(1, std::memory_order_acq_rel);
            return begin < hold_point ||
                   added.load(std::memory_order_acquire);
          });
    });

    // One more slice than there are threads: some scan has finished.
    while (slices_taken.load(std::memory_order_acquire) <= input.threads) {
      std::this_thread::yield();
    }
    const TargetAddOutcome out = sweeper.add_targets({md5_hex(late_key)});
    EXPECT_EQ(out.attached, 1u);
    added.store(true, std::memory_order_release);
    sweep.join();

    EXPECT_EQ(resolved, 2u);
    EXPECT_TRUE(sweeper.all_found());
    MultiCrackResult result;
    sweeper.fill_results(result);
    ASSERT_EQ(result.targets.size(), 2u);
    EXPECT_TRUE(result.targets[0].found);
    EXPECT_EQ(result.targets[0].key, input.first_key);
    EXPECT_TRUE(result.targets[1].found);
    EXPECT_EQ(result.targets[1].key, late_key);
    if (input.threads > 1) {
      EXPECT_GT(sweeper.filter_stats().context_builds,
                MultiSweeper::kCachedContexts);
    }
  }
}

/// A prefix-salted batch that sends every length through the generic
/// path: ~2000 targets, of which five are planted keys ("zz" listed
/// twice) and one a decoy sharing the digest of planted "abc" in all
/// but its last byte (so also in its first 32-bit word); the rest hash
/// strings outside the space.
template <class Hasher>
MultiCrackRequest generic_batch(hash::Algorithm algorithm) {
  MultiCrackRequest request;
  request.algorithm = algorithm;
  request.charset = keyspace::Charset::lower();
  request.min_length = 1;
  request.max_length = 3;
  request.salt = {hash::SaltPosition::kPrefix, "s#"};
  for (int i = 0; i < 2000; ++i) {
    request.target_hexes.push_back(
        Hasher::digest("noise-" + std::to_string(i)).to_hex());
  }
  for (const char* key : {"a", "zz", "abc", "qzx", "mm", "zz"}) {
    request.target_hexes.insert(request.target_hexes.begin() + 300,
                                Hasher::digest(request.salt.apply(key))
                                    .to_hex());
  }
  auto decoy = Hasher::digest(request.salt.apply("abc"));
  decoy.bytes.back() ^= 0x01;
  request.target_hexes.push_back(decoy.to_hex());
  return request;
}

/// multi_crack over a generic batch against a brute-force reference:
/// every candidate of the space hashed and looked up by hex.
template <class Hasher>
void expect_generic_matches_reference(hash::Algorithm algorithm) {
  const MultiCrackRequest request = generic_batch<Hasher>(algorithm);
  std::map<std::string, std::string> reference;
  const keyspace::KeyCodec codec(request.charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  const u128 first = keyspace::first_id_of_length(26, request.min_length);
  std::string key = codec.decode(first);
  for (u128 i(0); i < keyspace::space_size(26, 1, 3); ++i) {
    reference[Hasher::digest(request.salt.apply(key)).to_hex()] = key;
    codec.next_inplace(key);
  }

  const MultiCrackResult result = multi_crack(request, 2);
  ASSERT_EQ(result.targets.size(), request.target_hexes.size());
  std::size_t expected_cracked = 0;
  for (std::size_t i = 0; i < result.targets.size(); ++i) {
    const auto it = reference.find(request.target_hexes[i]);
    const bool expected = it != reference.end();
    expected_cracked += expected ? 1 : 0;
    EXPECT_EQ(result.targets[i].found, expected) << i;
    if (expected) {
      EXPECT_EQ(result.targets[i].key, it->second) << i;
    }
  }
  EXPECT_EQ(expected_cracked, 6u);
  EXPECT_EQ(result.cracked, expected_cracked);
  EXPECT_FALSE(result.targets.back().found);  // the decoy
}

TEST(MultiSweep, GenericPathMd5MatchesBruteForceReference) {
  expect_generic_matches_reference<hash::Md5>(hash::Algorithm::kMd5);
}

TEST(MultiSweep, GenericPathSha1MatchesBruteForceReference) {
  expect_generic_matches_reference<hash::Sha1>(hash::Algorithm::kSha1);
}

TEST(MultiSweep, GenericPathRescanSkipsFoundAndRemovedTargets) {
  const MultiCrackRequest request = generic_batch<hash::Md5>(
      hash::Algorithm::kMd5);
  MultiSweeper sweeper(request);
  const std::string removed = md5_hex(request.salt.apply("qzx"));
  EXPECT_EQ(sweeper.remove_targets({removed}), 1u);

  // The first pass still reports the removed digest (its snapshot
  // predates the removal); mark_found turns it away.
  std::vector<SweepHit> hits;
  EXPECT_EQ(sweeper.scan(sweeper.space_interval(), hits),
            sweeper.space_size());
  std::size_t resolved = 0;
  for (const SweepHit& h : hits) {
    resolved += sweeper.mark_found(h.unique_index, h.key).size();
  }
  EXPECT_EQ(resolved, 5u);

  // A new digest publishes a snapshot that retires the found and the
  // removed targets: a rescan reports the new target alone.
  const TargetAddOutcome out =
      sweeper.add_targets({md5_hex(request.salt.apply("xyz"))});
  EXPECT_EQ(out.attached, 1u);
  hits.clear();
  EXPECT_EQ(sweeper.scan(sweeper.space_interval(), hits),
            sweeper.space_size());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].key, "xyz");
  EXPECT_EQ(sweeper.mark_found(hits[0].unique_index, hits[0].key),
            out.slots);
}

}  // namespace
}  // namespace gks::core
