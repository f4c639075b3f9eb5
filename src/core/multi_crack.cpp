#include "core/multi_crack.h"

#include <mutex>
#include <vector>

#include "core/multi_sweep.h"
#include "core/parallel_sweep.h"
#include "core/sweep_walk.h"
#include "support/error.h"
#include "support/hex.h"
#include "support/stopwatch.h"

namespace gks::core {

void MultiCrackRequest::validate() const {
  SearchSpace::validate();
  GKS_REQUIRE(!target_hexes.empty(), "batch must contain at least one digest");
  GKS_REQUIRE(algorithm == hash::Algorithm::kMd5 ||
                  algorithm == hash::Algorithm::kSha1,
              "batch sweeps support MD5 and SHA1");
  for (const std::string& hex : target_hexes) {
    GKS_REQUIRE(from_hex(hex).size() == hash::digest_size(algorithm),
                "digest length does not match the algorithm");
  }
}

MultiCrackResult multi_crack(const MultiCrackRequest& request,
                             std::size_t threads) {
  Stopwatch timer;

  // The sweep engine owns target parsing/dedup and the per-(length,
  // tail) context cache; this function is just the whole-space driver
  // over it (the job service drives the same engine one scheduler
  // quantum at a time — see src/service/).
  MultiSweeper sweeper(request);

  ThreadPool pool(threads);
  MultiCrackResult result;
  std::mutex mu;  // guards result.tested and result.intervals
  parallel_sweep(pool, sweeper.space_interval(),
                 [&](std::size_t, const keyspace::Interval& ids) {
                   // A recovery elsewhere may compact the target set
                   // mid-scan; scan() then yields and the rest of the
                   // claim is scanned against the new snapshot.
                   std::vector<SweepHit> hits;
                   for (u128 begin = ids.begin; begin < ids.end;) {
                     begin += sweeper.scan({begin, ids.end}, hits);
                   }
                   for (const SweepHit& hit : hits) {
                     sweeper.mark_found(hit.unique_index, hit.key);
                   }
                   std::lock_guard lock(mu);
                   result.tested += ids.size();
                   ++result.intervals;
                   return !sweeper.all_found();
                 });

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
