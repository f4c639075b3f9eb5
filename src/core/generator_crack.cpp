#include "core/generator_crack.h"

#include <algorithm>
#include <utility>

#include "core/sweep_walk.h"
#include "hash/target_index.h"
#include "keyspace/interval.h"
#include "support/error.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace gks::core {
namespace {

template <class Hasher>
MultiCrackResult crack_with(const keyspace::Generator& generator,
                            const std::vector<std::string>& target_hexes,
                            const hash::SaltSpec& salt, std::size_t threads) {
  using DigestT = DigestOf<Hasher>;
  Stopwatch timer;
  std::vector<DigestT> unique;
  std::vector<std::vector<std::size_t>> slots;
  hash::dedup_digests(target_hexes, unique, slots);
  const hash::TargetIndex index = hash::index_digests(unique);

  MultiCrackResult result;
  result.targets.resize(target_hexes.size());
  for (std::size_t i = 0; i < target_hexes.size(); ++i) {
    result.targets[i].digest_hex = target_hexes[i];
  }

  ThreadPool pool(threads);
  keyspace::IntervalCursor cursor(
      keyspace::Interval(u128(0), generator.size()));
  const u128 slice(1u << 16);
  std::size_t outstanding = unique.size();

  while (!cursor.exhausted() && outstanding > 0) {
    const keyspace::Interval round = cursor.take(slice);
    const auto parts = static_cast<std::size_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(round.size().to_double() / 512) + 1,
        pool.size()));
    const auto sub = keyspace::split_even(round, parts);

    std::vector<std::vector<std::pair<std::uint32_t, std::string>>> hits(
        sub.size());
    pool.parallel_for(sub.size(), [&](std::size_t p) {
      hash_candidates<Hasher>(
          generator, salt, sub[p],
          [&](u128, const std::string& key, const DigestT& digest) {
            hash::for_each_digest_match(
                index, unique, digest,
                [&](std::uint32_t u) { hits[p].emplace_back(u, key); });
          });
    });

    result.tested += round.size();
    result.intervals += sub.size();
    for (const auto& part : hits) {
      for (const auto& [u, key] : part) {
        if (result.targets[slots[u].front()].found) continue;
        for (const std::size_t slot : slots[u]) {
          result.targets[slot].found = true;
          result.targets[slot].key = key;
          ++result.cracked;
        }
        --outstanding;
      }
    }
  }

  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace

MultiCrackResult crack_generator(const keyspace::Generator& generator,
                                 hash::Algorithm algorithm,
                                 const std::vector<std::string>& target_hexes,
                                 const hash::SaltSpec& salt,
                                 std::size_t threads) {
  GKS_REQUIRE(!target_hexes.empty(), "need at least one target digest");
  return visit_hasher(algorithm, [&](auto hasher) {
    return crack_with<typename decltype(hasher)::type>(generator, target_hexes,
                                                       salt, threads);
  });
}

}  // namespace gks::core
