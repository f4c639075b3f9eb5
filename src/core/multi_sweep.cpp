#include "core/multi_sweep.h"

#include <algorithm>
#include <map>
#include <optional>
#include <type_traits>
#include <variant>

#include "hash/simd/dispatch.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/hex.h"
#include "support/stopwatch.h"

namespace gks::core {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// One algorithm's unique digests, in unique-index order, plus a
/// (digest, unique index) lookup sorted by digest — O(log n) for
/// journal replay and add/remove dedup at million-target batches.
template <class DigestT>
struct DigestSet {
  std::vector<DigestT> unique;
  std::vector<std::pair<DigestT, std::size_t>> by_digest;

  auto lower_bound(const DigestT& digest) const {
    return std::lower_bound(
        by_digest.begin(), by_digest.end(), digest,
        [](const auto& entry, const DigestT& d) { return entry.first < d; });
  }
  /// Unique index of the hex's digest, or kNpos.
  std::size_t find(const std::string& hex) const {
    const DigestT digest = DigestT::from_hex(hex);
    const auto it = lower_bound(digest);
    return it != by_digest.end() && it->first == digest ? it->second : kNpos;
  }
  /// find(), appending the digest as a new unique when absent.
  std::size_t find_or_add(const std::string& hex) {
    const DigestT digest = DigestT::from_hex(hex);
    const auto it = lower_bound(digest);
    if (it != by_digest.end() && it->first == digest) return it->second;
    unique.push_back(digest);
    by_digest.insert(it, {digest, unique.size() - 1});
    return unique.size() - 1;
  }
};

}  // namespace

/// The request's digests parsed once, deduplicated by digest bytes.
/// Request slots sharing a digest (users sharing a password — common
/// in real audits) are resolved through `request_slots` on recovery.
/// add_targets() extends every vector append-only, so unique indices
/// never shift.
struct MultiSweeper::Parsed {
  DigestSet<hash::Md5Digest> md5;    ///< MD5 runs
  DigestSet<hash::Sha1Digest> sha1;  ///< SHA1 runs
  /// request_slots[u] = indices into request.target_hexes with digest u.
  std::vector<std::vector<std::size_t>> request_slots;

  std::size_t unique_count() const { return request_slots.size(); }
  /// fn(md5) or fn(sha1): the set the request's algorithm uses.
  template <class Fn>
  auto visit(hash::Algorithm algorithm, const Fn& fn) {
    return algorithm == hash::Algorithm::kMd5 ? fn(md5) : fn(sha1);
  }
};

namespace {

/// The fast-path contexts of one snapshot, keyed by (key length, fixed
/// tail): one sorted TargetIndex per tail, shared by every scan on that
/// tail. Entries are immutable; a scan holds its own shared_ptr, so
/// eviction never frees a context still in use. Past
/// kCachedContexts entries the least recently used idle ones go.
class ContextCache {
 public:
  using Key = std::pair<unsigned, std::string>;  ///< (key length, tail)

  /// The cached context for `key`, or build()'s. Builds run outside
  /// the lock; when two scans race on one tail, the loser's build is
  /// dropped — rare (once per tail per snapshot) and cheaper than
  /// serializing every build behind the lock.
  template <class Ctx, class Build>
  std::shared_ptr<const Ctx> get(const Key& key, const Build& build) {
    {
      std::lock_guard lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        it->second.last_use = ++uses_;
        return std::get<std::shared_ptr<const Ctx>>(it->second.ctx);
      }
    }
    std::shared_ptr<const Ctx> fresh = build();
    std::lock_guard lock(mu_);
    const auto [it, inserted] = entries_.try_emplace(key, Entry{fresh, 0});
    it->second.last_use = ++uses_;
    if (inserted) evict_idle();
    return std::get<std::shared_ptr<const Ctx>>(it->second.ctx);
  }

 private:
  struct Entry {
    std::variant<std::shared_ptr<const hash::Md5MultiContext>,
                 std::shared_ptr<const hash::Sha1MultiContext>>
        ctx;
    std::uint64_t last_use;
  };

  /// Drops least recently used entries no scan holds (mu_ held). Only
  /// the cache can hand out new references, and it does so under mu_,
  /// so a use count of 1 here stays 1.
  void evict_idle() {
    while (entries_.size() > MultiSweeper::kCachedContexts) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        const bool idle = std::visit(
            [](const auto& ctx) { return ctx.use_count() == 1; },
            it->second.ctx);
        if (idle && (victim == entries_.end() ||
                     it->second.last_use < victim->second.last_use)) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return;  // every entry is in use
      entries_.erase(victim);
    }
  }

  std::mutex mu_;
  std::uint64_t uses_ = 0;
  std::map<Key, Entry> entries_;
};

}  // namespace

/// An immutable view of the target set plus the indexes built for it.
/// Scans pin one snapshot for their whole interval.
/// Context slot numbers equal unique-digest indices: the digest
/// vectors keep holes for dead targets, and `retired` lists the slots
/// the contexts leave out of their TargetIndexes. Recoveries and
/// removals never touch a published snapshot — they flip sweeper-side
/// flags — so snapshots stay truly immutable and mark_found is O(1).
struct MultiSweeper::Snapshot {
  std::uint64_t generation = 0;
  std::vector<hash::Md5Digest> md5;
  std::vector<hash::Sha1Digest> sha1;
  /// Unique indices left out of the context indexes, ascending.
  std::vector<std::uint32_t> retired;
  /// The generic path's full-digest index, under the same `retired`
  /// rule. The first scan that takes that path builds it, outside
  /// state_mu_, so publishing a snapshot stays a few vector copies.
  mutable std::once_flag generic_once;
  mutable std::optional<hash::TargetIndex> generic;
  mutable ContextCache contexts;
};

namespace {

/// How many dead slots must pile up since the last published snapshot
/// before compaction rebuilds the snapshot without them. Keeps the
/// amortized mark_found cost flat while bounding the dead weight
/// scanned to at most half a context.
constexpr std::size_t kCompactMin = 256;

}  // namespace

MultiSweeper::MultiSweeper(MultiCrackRequest request)
    : request_(std::move(request)),
      parsed_(std::make_unique<Parsed>()),
      walk_((request_.validate(), request_)) {
  parsed_->visit(request_.algorithm, [&](auto& set) {
    // dedup_digests leaves `unique` sorted, so the lookup starts as
    // (unique[u], u).
    hash::dedup_digests(request_.target_hexes, set.unique,
                        parsed_->request_slots);
    for (std::size_t u = 0; u < set.unique.size(); ++u) {
      set.by_digest.emplace_back(set.unique[u], u);
    }
  });
  unique_found_.assign(parsed_->unique_count(), false);
  unique_removed_.assign(parsed_->unique_count(), false);
  unique_keys_.assign(parsed_->unique_count(), std::string());
  snap_ = build_snapshot_locked();
  outstanding_count_.store(parsed_->unique_count(),
                           std::memory_order_release);
}

MultiSweeper::~MultiSweeper() = default;

std::size_t MultiSweeper::unique_count() const {
  std::lock_guard lock(state_mu_);
  return parsed_->unique_count();
}

std::size_t MultiSweeper::slot_count() const {
  std::lock_guard lock(state_mu_);
  return request_.target_hexes.size();
}

std::string MultiSweeper::slot_hex(std::size_t slot) const {
  std::lock_guard lock(state_mu_);
  GKS_REQUIRE(slot < request_.target_hexes.size(),
              "request slot out of range");
  return request_.target_hexes[slot];
}

hash::TargetIndex::Config MultiSweeper::index_config() const {
  // The gate runs at TargetIndex's defaults: on, designed for a 1/64
  // false-positive rate (docs/multi_target.md).
  hash::TargetIndex::Config cfg;
  cfg.stats = &index_stats_;
  return cfg;
}

std::shared_ptr<const MultiSweeper::Snapshot>
MultiSweeper::build_snapshot_locked() const {
  auto snap = std::make_shared<Snapshot>();
  snap->generation = generation_.load(std::memory_order_relaxed);
  snap->md5 = parsed_->md5.unique;
  snap->sha1 = parsed_->sha1.unique;
  for (std::size_t u = 0; u < parsed_->unique_count(); ++u) {
    if (unique_found_[u] || unique_removed_[u]) {
      snap->retired.push_back(static_cast<std::uint32_t>(u));
    }
  }
  return snap;
}

std::shared_ptr<const MultiSweeper::Snapshot> MultiSweeper::snapshot() const {
  std::lock_guard lock(state_mu_);
  return snap_;
}

void MultiSweeper::calibrate() const {
  hash::simd::kernels_for(request_.algorithm);
}

u128 MultiSweeper::scan(const keyspace::Interval& interval,
                        std::vector<SweepHit>& hits,
                        const std::atomic<bool>* interrupt) const {
  if (interval.empty()) return u128(0);
  const std::shared_ptr<const Snapshot> snap = snapshot();
  // With nothing outstanding every candidate trivially fails the
  // condition; report the interval as fully tested so completion
  // accounting (and journaled coverage) stays exact.
  if (all_found()) return interval.size();

  // Telemetry is batched per scan() call: one clock read and four
  // relaxed atomic adds per multi-chunk scan, never per candidate or
  // per chunk — the ≤1% hot-path budget bench_obs enforces.
  const bool observed = obs::enabled();
  Stopwatch scan_timer;

  u128 tested(0);
  walk_.for_each_block(interval, [&](TailBlock& block) {
    if (interrupt != nullptr && interrupt->load(std::memory_order_acquire)) {
      return false;  // cooperative yield: remainder stays untested
    }
    if (generation_.load(std::memory_order_acquire) != snap->generation) {
      // The target set moved on (add_targets or compaction): yield so
      // the caller re-dispatches the remainder against the current
      // generation. This is the handoff that makes a target added
      // before its covering interval is scanned impossible to miss.
      return false;
    }
    // One instantiation per algorithm: its context type, its hasher
    // and the snapshot's digests of its type.
    const auto scan_block = [&](auto ctx_type, auto hasher,
                                const auto& digests,
                                auto hash::simd::ScanKernels::*lane) {
      using Ctx = typename decltype(ctx_type)::type;
      if (block.word0) {
        Word0Start& start = *block.word0;
        // Contexts are built from the snapshot's digests minus its
        // retired slots; counting the builds makes the cache's bound
        // observable.
        const auto multi = snap->contexts.get<Ctx>(
            {block.key_length, start.tail}, [&] {
              context_builds_.fetch_add(1, std::memory_order_relaxed);
              if (observed) {
                static obs::Counter& builds = obs::Registry::global().counter(
                    "gks_sweep_context_builds_total");
                builds.add(1);
              }
              return std::make_shared<const Ctx>(
                  digests, start.tail, start.total_length, index_config(),
                  snap->retired);
            });
        std::vector<hash::MultiHit> found;
        (hash::simd::kernels_for(request_.algorithm).*lane)(
            *multi, start.it, block.ids.size().to_u64(), found);
        // Context slots ARE unique indices; targets found or removed
        // after this snapshot was published may still surface here and
        // are filtered by mark_found.
        for (const hash::MultiHit& h : found) {
          const u128 id = block.ids.begin + u128(h.offset);
          hits.push_back({h.slot, walk_.generator().at(id)});
        }
        return;
      }
      // Full-hash loop, every digest probed against the snapshot's
      // digest index. Like the contexts, the index may still hold
      // targets recovered since it was built; mark_found filters those.
      std::call_once(snap->generic_once, [&] {
        snap->generic =
            hash::index_digests(digests, index_config(), snap->retired);
      });
      hash_candidates<typename decltype(hasher)::type>(
          walk_.generator(), request_.salt, block.ids,
          [&](u128, const std::string& key, const auto& digest) {
            hash::for_each_digest_match(
                *snap->generic, digests, digest,
                [&](std::uint32_t u) { hits.push_back({u, key}); });
          });
    };
    if (request_.algorithm == hash::Algorithm::kMd5) {
      scan_block(std::type_identity<hash::Md5MultiContext>(),
                 std::type_identity<hash::Md5>(), snap->md5,
                 &hash::simd::ScanKernels::md5_multi_scan);
    } else {
      scan_block(std::type_identity<hash::Sha1MultiContext>(),
                 std::type_identity<hash::Sha1>(), snap->sha1,
                 &hash::simd::ScanKernels::sha1_multi_scan);
    }
    tested += block.ids.size();
    return true;
  });
  if (observed) {
    static obs::Counter& keys =
        obs::Registry::global().counter("gks_sweep_keys_total");
    static obs::Counter& scans =
        obs::Registry::global().counter("gks_sweep_scans_total");
    static obs::Counter& yields =
        obs::Registry::global().counter("gks_sweep_yields_total");
    static obs::Histogram& scan_s =
        obs::Registry::global().histogram("gks_sweep_scan_seconds");
    keys.add(tested.to_u64());
    scans.add(1);
    if (tested < interval.size()) yields.add(1);
    scan_s.observe(scan_timer.seconds());
  }
  return tested;
}

void MultiSweeper::maybe_compact_locked() {
  const std::size_t already_retired = snap_->retired.size();
  const std::size_t newly_dead = dead_count_ - already_retired;
  const std::size_t in_index = parsed_->unique_count() - already_retired;
  if (newly_dead < kCompactMin || newly_dead * 2 < in_index) return;

  generation_.fetch_add(1, std::memory_order_acq_rel);
  snap_ = build_snapshot_locked();
}

std::vector<std::size_t> MultiSweeper::mark_found(std::size_t unique_index,
                                                  const std::string& key) {
  std::lock_guard lock(state_mu_);
  GKS_REQUIRE(unique_index < parsed_->unique_count(),
              "unique digest index out of range");
  // Exactly-once across mutations: duplicates from stale snapshots and
  // hits on targets removed mid-flight both resolve to "not ours".
  if (unique_found_[unique_index] || unique_removed_[unique_index]) {
    return {};
  }
  unique_found_[unique_index] = true;
  unique_keys_[unique_index] = key;
  found_log_.emplace_back(
      request_.target_hexes[parsed_->request_slots[unique_index].front()],
      key);
  ++dead_count_;
  outstanding_count_.fetch_sub(1, std::memory_order_acq_rel);
  maybe_compact_locked();
  return parsed_->request_slots[unique_index];
}

std::vector<std::size_t> MultiSweeper::mark_found_hex(
    const std::string& digest_hex, const std::string& key) {
  std::size_t u = kNpos;
  {
    std::lock_guard lock(state_mu_);
    u = parsed_->visit(request_.algorithm,
                       [&](const auto& set) { return set.find(digest_hex); });
  }
  if (u == kNpos) return {};
  return mark_found(u, key);
}

void MultiSweeper::validate_target_hexes(
    const std::vector<std::string>& hexes) const {
  for (const std::string& hex : hexes) {
    GKS_REQUIRE(from_hex(hex).size() == hash::digest_size(request_.algorithm),
                "digest length does not match the algorithm");
  }
}

TargetAddOutcome MultiSweeper::add_targets(
    const std::vector<std::string>& hexes) {
  TargetAddOutcome out;
  if (hexes.empty()) return out;
  validate_target_hexes(hexes);  // throws before any state changes

  std::lock_guard lock(state_mu_);
  const std::size_t first_new_unique = parsed_->unique_count();
  bool republish = false;
  for (const std::string& hex : hexes) {
    const std::size_t slot = request_.target_hexes.size();
    const std::size_t u = parsed_->visit(
        request_.algorithm, [&](auto& set) { return set.find_or_add(hex); });
    if (u == parsed_->request_slots.size()) {
      parsed_->request_slots.emplace_back();
    }
    request_.target_hexes.push_back(hex);
    parsed_->request_slots[u].push_back(slot);
    out.slots.push_back(slot);

    if (u >= first_new_unique) {
      // Genuinely new digest (first occurrence in this batch).
      republish = true;
      if (u >= unique_found_.size()) {
        unique_found_.push_back(false);
        unique_removed_.push_back(false);
        unique_keys_.emplace_back();
        outstanding_count_.fetch_add(1, std::memory_order_acq_rel);
        ++out.attached;
      }
    } else if (unique_found_[u]) {
      ++out.already_found;
    } else if (unique_removed_[u]) {
      unique_removed_[u] = false;
      --dead_count_;
      outstanding_count_.fetch_add(1, std::memory_order_acq_rel);
      ++out.attached;
      // A re-attached digest that the current snapshot's contexts
      // leave out needs a fresh snapshot.
      if (std::binary_search(snap_->retired.begin(), snap_->retired.end(),
                             static_cast<std::uint32_t>(u))) {
        republish = true;
      }
    }
    // else: still outstanding — the new slot shares its fate.
  }

  if (!republish) {
    // Dup-of-outstanding or reattach-before-retirement: every published
    // context still indexes the digest, so the current generation keeps
    // scanning correctly. Found/removed flags already updated.
    return out;
  }
  // build_snapshot_locked reads the bumped generation; the fresh
  // snapshot's contexts are built on demand.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  snap_ = build_snapshot_locked();
  return out;
}

std::size_t MultiSweeper::remove_targets(
    const std::vector<std::string>& hexes) {
  if (hexes.empty()) return 0;
  validate_target_hexes(hexes);

  std::lock_guard lock(state_mu_);
  std::size_t detached = 0;
  for (const std::string& hex : hexes) {
    const std::size_t u = parsed_->visit(
        request_.algorithm, [&](const auto& set) { return set.find(hex); });
    if (u == kNpos) continue;
    if (unique_found_[u] || unique_removed_[u]) continue;
    unique_removed_[u] = true;
    ++dead_count_;
    outstanding_count_.fetch_sub(1, std::memory_order_acq_rel);
    ++detached;
  }
  // Removal needs no generation bump for correctness — mark_found
  // filters hits on removed digests — but dead weight is compacted
  // away once it piles up.
  if (detached > 0) maybe_compact_locked();
  return detached;
}

SweepFilterStats MultiSweeper::filter_stats() const {
  SweepFilterStats s;
  s.gate_hits = index_stats_.gate_hits.load(std::memory_order_relaxed);
  s.false_positives =
      index_stats_.false_positives.load(std::memory_order_relaxed);
  s.context_builds = context_builds_.load(std::memory_order_relaxed);
  return s;
}

void MultiSweeper::fill_results(MultiCrackResult& out) const {
  std::lock_guard lock(state_mu_);
  out.targets.resize(request_.target_hexes.size());
  out.cracked = 0;
  for (std::size_t i = 0; i < request_.target_hexes.size(); ++i) {
    out.targets[i].digest_hex = request_.target_hexes[i];
  }
  for (std::size_t u = 0; u < parsed_->unique_count(); ++u) {
    if (!unique_found_[u]) continue;
    for (const std::size_t slot : parsed_->request_slots[u]) {
      out.targets[slot].found = true;
      out.targets[slot].key = unique_keys_[u];
      ++out.cracked;
    }
  }
}

std::vector<std::pair<std::string, std::string>> MultiSweeper::found_so_far()
    const {
  std::lock_guard lock(state_mu_);
  return found_log_;
}

}  // namespace gks::core
