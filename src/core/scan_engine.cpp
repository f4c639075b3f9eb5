#include "core/scan_engine.h"

#include <algorithm>
#include <string>

#include "hash/simd/dispatch.h"
#include "keyspace/space.h"
#include "support/error.h"
#include "support/stopwatch.h"

namespace gks::core {
ScanPlan::ScanPlan(CrackRequest request)
    : request_(std::move(request)),
      codec_(request_.charset, keyspace::DigitOrder::kPrefixFastest),
      offset_(keyspace::first_id_of_length(request_.charset.size(),
                                           request_.min_length)),
      space_size_(request_.space_size()) {
  request_.validate();
  if (request_.algorithm == hash::Algorithm::kMd5) {
    md5_target_ = hash::Md5Digest::from_hex(request_.target_hex);
  } else if (request_.algorithm == hash::Algorithm::kSha1) {
    sha1_target_ = hash::Sha1Digest::from_hex(request_.target_hex);
  }
}

u128 ScanPlan::id_of(const std::string& key) const {
  GKS_REQUIRE(key.size() >= request_.min_length &&
                  key.size() <= request_.max_length,
              "key length outside the requested range");
  const u128 global = codec_.encode(key);
  return global - offset_;
}

bool ScanPlan::fast_path_applicable(std::size_t key_len) const {
  if (request_.algorithm == hash::Algorithm::kSha256) return false;
  switch (request_.salt.position) {
    case hash::SaltPosition::kNone:
      return true;
    case hash::SaltPosition::kPrefix:
      // The salt displaces the varying characters out of word 0.
      return false;
    case hash::SaltPosition::kSuffix:
      // With a short key the salt bytes spill into word 0, which the
      // prefix iterator does not model.
      return key_len >= 4;
  }
  return false;
}

dispatch::ScanOutcome ScanPlan::scan_fast_chunk(
    u128 begin_id, u128 count, const std::string& first_key) const {
  dispatch::ScanOutcome out;
  const std::size_t key_len = first_key.size();
  const unsigned prefix_chars =
      static_cast<unsigned>(std::min<std::size_t>(4, key_len));

  // Fixed message bytes after word 0: key characters 4.., then any
  // suffix salt.
  std::string tail;
  if (key_len > 4) tail = first_key.substr(4);
  if (request_.salt.position == hash::SaltPosition::kSuffix) {
    tail += request_.salt.salt;
  }
  const std::size_t total_len = key_len + request_.salt.extra_length();

  const bool big_endian = request_.algorithm == hash::Algorithm::kSha1;
  hash::PrefixWord0Iterator it(request_.charset.chars(), prefix_chars,
                               key_len, big_endian);
  std::vector<std::uint32_t> digits(prefix_chars);
  for (unsigned i = 0; i < prefix_chars; ++i) {
    digits[i] =
        static_cast<std::uint32_t>(request_.charset.index_of(first_key[i]));
  }
  it.seek(digits);

  std::uint64_t remaining = count.to_u64();
  std::uint64_t scanned = 0;
  const auto record_hit = [&](std::uint64_t hit_offset) {
    const u128 id = begin_id + u128(scanned + hit_offset);
    out.found.push_back({id, codec_.decode(id + offset_)});
  };

  const hash::simd::ScanKernels& lanes =
      hash::simd::kernels_for(request_.algorithm);
  if (request_.algorithm == hash::Algorithm::kMd5) {
    const hash::Md5CrackContext ctx(*md5_target_, tail, total_len);
    while (remaining > 0) {
      const auto hit = lanes.md5_scan(ctx, it, remaining);
      if (!hit) break;
      record_hit(*hit);
      scanned += *hit + 1;
      remaining -= *hit + 1;
    }
  } else {
    const hash::Sha1CrackContext ctx(*sha1_target_, tail, total_len);
    while (remaining > 0) {
      const auto hit = lanes.sha1_scan(ctx, it, remaining);
      if (!hit) break;
      record_hit(*hit);
      scanned += *hit + 1;
      remaining -= *hit + 1;
    }
  }
  out.tested = count;
  return out;
}

dispatch::ScanOutcome ScanPlan::scan(
    const keyspace::Interval& interval) const {
  GKS_REQUIRE(interval.end <= space_size_,
              "interval outside the request's key space");
  Stopwatch timer;
  dispatch::ScanOutcome out;

  const std::size_t n = request_.charset.size();
  u128 id = interval.begin;
  std::string key;
  if (id < interval.end) codec_.decode_into(id + offset_, key);

  while (id < interval.end) {
    const std::size_t key_len = key.size();
    const unsigned prefix_chars =
        static_cast<unsigned>(std::min<std::size_t>(4, key_len));
    const u128 block = keyspace::keys_of_length(n, prefix_chars);
    const u128 first_of_len =
        keyspace::first_id_of_length(n, static_cast<unsigned>(key_len)) -
        offset_;
    const u128 within = (id - first_of_len) % block;
    const u128 chunk = std::min(interval.end - id, block - within);

    if (fast_path_applicable(key_len)) {
      dispatch::ScanOutcome part = scan_fast_chunk(id, chunk, key);
      out.tested += part.tested;
      for (auto& f : part.found) out.found.push_back(std::move(f));
    } else {
      // Generic path: hash every materialized candidate. Uses the
      // incremental next operator (Figure 2) instead of re-decoding.
      u128 togo = chunk;
      while (togo > u128(0)) {
        if (request_.matches(key)) {
          out.found.push_back({id + (chunk - togo), key});
        }
        codec_.next_inplace(key);
        --togo;
      }
      out.tested += chunk;
      id += chunk;
      if (id < interval.end) continue;  // key already advanced by next
      break;
    }

    id += chunk;
    if (id < interval.end) codec_.decode_into(id + offset_, key);
  }

  out.busy_virtual_s = std::max(timer.seconds(), 1e-9);
  return out;
}

}  // namespace gks::core
