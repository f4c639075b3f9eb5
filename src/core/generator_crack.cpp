#include "core/generator_crack.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "hash/md5.h"
#include "hash/sha1.h"
#include "hash/sha256.h"
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
  using DigestT = decltype(Hasher::digest(std::string_view()));
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
      // One candidate and one message buffer per part, reused for
      // every candidate of it.
      std::string candidate;
      std::string message;
      for (u128 id = sub[p].begin; id < sub[p].end; ++id) {
        generator.generate(id, candidate);
        salt.apply_into(candidate, message);
        hash::for_each_digest_match(
            index, unique, Hasher::digest(message),
            [&](std::uint32_t u) { hits[p].emplace_back(u, candidate); });
      }
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
  switch (algorithm) {
    case hash::Algorithm::kMd5:
      return crack_with<hash::Md5>(generator, target_hexes, salt, threads);
    case hash::Algorithm::kSha1:
      return crack_with<hash::Sha1>(generator, target_hexes, salt, threads);
    case hash::Algorithm::kSha256:
      return crack_with<hash::Sha256>(generator, target_hexes, salt,
                                      threads);
  }
  throw InvalidArgument("unknown hash algorithm");
}

}  // namespace gks::core
