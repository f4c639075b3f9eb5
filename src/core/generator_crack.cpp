#include "core/generator_crack.h"

#include <mutex>
#include <utility>

#include "core/parallel_sweep.h"
#include "core/sweep_walk.h"
#include "hash/target_index.h"
#include "support/error.h"
#include "support/stopwatch.h"

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
  std::mutex mu;  // guards result and outstanding
  std::size_t outstanding = unique.size();
  parallel_sweep(
      pool, keyspace::Interval(u128(0), generator.size()),
      [&](std::size_t, const keyspace::Interval& ids) {
        std::vector<std::pair<std::uint32_t, std::string>> hits;
        hash_candidates<Hasher>(
            generator, salt, ids,
            [&](u128, const std::string& key, const DigestT& digest) {
              hash::for_each_digest_match(
                  index, unique, digest,
                  [&](std::uint32_t u) { hits.emplace_back(u, key); });
            });
        std::lock_guard lock(mu);
        result.tested += ids.size();
        ++result.intervals;
        for (const auto& [u, key] : hits) {
          if (result.targets[slots[u].front()].found) continue;
          for (const std::size_t slot : slots[u]) {
            result.targets[slot].found = true;
            result.targets[slot].key = key;
            ++result.cracked;
          }
          --outstanding;
        }
        return outstanding > 0;
      });

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
