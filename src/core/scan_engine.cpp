#include "core/scan_engine.h"

#include <string>

#include "hash/sha1_crack.h"
#include "hash/simd/dispatch.h"
#include "support/error.h"

namespace gks::core {

ScanPlan::ScanPlan(CrackRequest request)
    : request_(std::move(request)),
      walk_((request_.validate(), request_)),
      target_(visit_hasher(request_.algorithm, [&](auto hasher) {
        using Digest = DigestOf<typename decltype(hasher)::type>;
        return decltype(target_)(Digest::from_hex(request_.target_hex));
      })) {}

void ScanPlan::scan_word0(TailBlock& block, dispatch::ScanOutcome& out) const {
  Word0Start& start = *block.word0;
  u128 next = block.ids.begin;
  std::uint64_t remaining = block.ids.size().to_u64();
  const auto run = [&](const auto& ctx, auto lane_scan) {
    while (remaining > 0) {
      const auto hit = lane_scan(ctx, start.it, remaining);
      if (!hit) break;
      const u128 id = next + u128(*hit);
      out.found.push_back({id, walk_.generator().at(id)});
      next = id + u128(1);
      remaining -= *hit + 1;
    }
  };
  const hash::simd::ScanKernels& lanes =
      hash::simd::kernels_for(request_.algorithm);
  if (request_.algorithm == hash::Algorithm::kMd5) {
    run(hash::Md5CrackContext(std::get<hash::Md5Digest>(target_), start.tail,
                              start.total_length),
        lanes.md5_scan);
  } else {
    run(hash::Sha1CrackContext(std::get<hash::Sha1Digest>(target_),
                               start.tail, start.total_length),
        lanes.sha1_scan);
  }
}

void ScanPlan::scan_full(const keyspace::Interval& ids,
                         dispatch::ScanOutcome& out) const {
  visit_hasher(request_.algorithm, [&](auto hasher) {
    using Hasher = typename decltype(hasher)::type;
    using Digest = DigestOf<Hasher>;
    // Both hex spellings parse to the same bytes, so a byte compare
    // matches an upper-case target too.
    const Digest& target = std::get<Digest>(target_);
    hash_candidates<Hasher>(
        walk_.generator(), request_.salt, ids,
        [&](u128 id, const std::string& key, const Digest& digest) {
          if (digest == target) out.found.push_back({id, key});
        });
  });
}

dispatch::ScanOutcome ScanPlan::scan(
    const keyspace::Interval& interval) const {
  GKS_REQUIRE(interval.end <= walk_.generator().size(),
              "interval outside the request's key space");
  dispatch::ScanOutcome out;
  walk_.for_each_block(interval, [&](TailBlock& block) {
    if (block.word0) {
      scan_word0(block, out);
    } else {
      scan_full(block.ids, out);
    }
    out.tested += block.ids.size();
    return true;
  });
  return out;
}

}  // namespace gks::core
