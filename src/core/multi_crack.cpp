#include "core/multi_crack.h"

#include <algorithm>
#include <vector>

#include "core/multi_sweep.h"
#include "core/sweep_walk.h"
#include "hash/kernel_words.h"
#include "keyspace/interval.h"
#include "support/error.h"
#include "support/hex.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace gks::core {

void MultiCrackRequest::validate() const {
  GKS_REQUIRE(!target_hexes.empty(), "batch must contain at least one digest");
  GKS_REQUIRE(algorithm == hash::Algorithm::kMd5 ||
                  algorithm == hash::Algorithm::kSha1,
              "batch sweeps support MD5 and SHA1");
  GKS_REQUIRE(min_length >= 1 && min_length <= max_length,
              "invalid key length range");
  GKS_REQUIRE(max_length <= hash::kMaxKernelKeyLength,
              "maximum key length above the kernel limit");
  GKS_REQUIRE(max_length + salt.extra_length() <= 55,
              "key plus salt must fit a single hash block");
  for (const std::string& hex : target_hexes) {
    GKS_REQUIRE(from_hex(hex).size() == hash::digest_size(algorithm),
                "digest length does not match the algorithm");
  }
}

MultiCrackResult multi_crack(const MultiCrackRequest& request,
                             std::size_t threads) {
  Stopwatch timer;

  // The sweep engine owns target parsing/dedup and the per-(length,
  // tail) context cache; this function is just the whole-space
  // dispatch loop over it (the job service drives the same engine one
  // scheduler quantum at a time — see src/service/).
  MultiSweeper sweeper(request);

  ThreadPool pool(threads);
  keyspace::IntervalCursor cursor(sweeper.space_interval());
  const u128 slice(static_cast<std::uint64_t>(4) << 20);

  MultiCrackResult result;
  while (!cursor.exhausted() && !sweeper.all_found()) {
    const keyspace::Interval round = cursor.take(slice);
    const auto parts = static_cast<std::size_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(round.size().to_double() / 4096) + 1,
        pool.size()));
    const auto sub = keyspace::split_even(round, parts);

    std::vector<std::vector<SweepHit>> hits(sub.size());
    pool.parallel_for(sub.size(), [&sweeper, &sub, &hits](std::size_t i) {
      sweeper.scan(sub[i], hits[i]);
    });

    result.tested += round.size();
    result.intervals += sub.size();
    for (const auto& part : hits) {
      for (const SweepHit& hit : part) {
        sweeper.mark_found(hit.unique_index, hit.key);
      }
    }
  }

  sweeper.fill_results(result);
  const SweepFilterStats fstats = sweeper.filter_stats();
  result.filter_gate_hits = fstats.gate_hits;
  result.filter_false_positives = fstats.false_positives;
  result.elapsed_s = timer.seconds();
  return result;
}

std::string salted_digest_hex(hash::Algorithm algorithm,
                              const hash::SaltSpec& salt,
                              const std::string& key) {
  return visit_hasher(algorithm, [&](auto hasher) {
    return decltype(hasher)::type::digest(salt.apply(key)).to_hex();
  });
}

}  // namespace gks::core
