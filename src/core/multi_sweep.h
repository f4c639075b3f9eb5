#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_crack.h"
#include "hash/multi_crack.h"
#include "keyspace/codec.h"
#include "keyspace/interval.h"
#include "support/uint128.h"

namespace gks::core {

/// One hit from a sweep scan: which unique digest matched and the
/// recovered key. `unique_index` is stable for the sweeper's lifetime
/// (indices into the deduplicated digest set, extended append-only by
/// add_targets), so hits from stale snapshots remain meaningful after
/// other targets were recovered or the set was mutated.
struct SweepHit {
  std::size_t unique_index;
  std::string key;
};

/// Aggregate TargetIndex gate traffic across every context the sweeper
/// built (see hash::TargetIndexStats for the two counters' meaning),
/// and how many per-tail contexts it built.
struct SweepFilterStats {
  std::uint64_t gate_hits = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t context_builds = 0;
};

/// What one add_targets() call did.
struct TargetAddOutcome {
  /// Request-slot indices assigned to the added hexes, in call order.
  std::vector<std::size_t> slots;
  /// Unique digests that became outstanding (new, or re-attached after
  /// an earlier remove_targets).
  std::size_t attached = 0;
  /// Added slots whose digest was already recovered — they resolve
  /// immediately and never hit the scan path.
  std::size_t already_found = 0;
};

/// The multi-target sweep engine behind multi_crack(), factored out so
/// long-lived callers — the job service above all — can drive it one
/// bounded interval at a time instead of one synchronous whole-space
/// call. Responsibilities:
///
///  - parse + deduplicate the request's digests once (users sharing a
///    password share a unique digest; see docs/multi_target.md);
///  - scan arbitrary generator-relative intervals against the
///    *outstanding* targets through the lane kernels the process
///    picked (hash::simd::kernels_for), with a cooperative interrupt
///    check between tail-block chunks (the preemption hook the
///    fair-share scheduler relies on);
///  - account recoveries (mark_found) and expose per-slot results;
///  - mutate the target set while sweeps run (add_targets /
///    remove_targets) with generation handoff: mutations publish a new
///    snapshot generation, and in-flight scans yield at their next
///    chunk boundary so the caller re-dispatches the remainder against
///    the current target set. A target added before its covering
///    interval is scanned is therefore never missed.
///
/// Thread model: scan() is const and safe to call concurrently from
/// many workers — each call pins an immutable snapshot of the target
/// set. The snapshot's per-(length, tail) fast-path contexts are
/// immutable too: built on demand from the snapshot's digests minus
/// its dead slots, shared through one bounded cache, and held by each
/// scan that uses them. Context slot numbers ARE unique-digest
/// indices: recoveries and removals only flip flags and never renumber
/// or rebuild contexts, so mark_found costs O(1) even at millions of
/// targets. Once enough targets are dead the sweeper compacts — it
/// publishes a fresh snapshot, with an empty cache, that leaves the
/// dead slots out — as does an add_targets that brings a new digest.
/// Scans still on an old snapshot at worst re-report an already-found
/// (or removed) digest, which mark_found filters.
class MultiSweeper {
 public:
  /// Validates the request and parses the targets.
  explicit MultiSweeper(MultiCrackRequest request);
  ~MultiSweeper();

  MultiSweeper(const MultiSweeper&) = delete;
  MultiSweeper& operator=(const MultiSweeper&) = delete;

  /// Most per-tail contexts a snapshot keeps cached; past it the least
  /// recently used idle ones are evicted (contexts scans still hold may
  /// exceed it until released). Ids are tail-major, so a sweep walks
  /// the tails in order and the concurrent scans of one sweep sit on a
  /// few adjacent tails: a tail is revisited only while scans are still
  /// on it or on a remainder re-dispatched after a yield. Eight covers
  /// that working set for several scanning threads, and caps the cache
  /// at 8 × ~30 MiB at a million targets instead of one context per
  /// tail of the space (26 at 26^5, 676 at 26^6). A rebuild is cheap
  /// next to the scan it serves: ~25 µs at 1024 targets against ~7 ms
  /// for a 26^4-key tail block.
  static constexpr std::size_t kCachedContexts = 8;

  /// The request as submitted plus any hexes appended by add_targets.
  /// Not safe to read concurrently with add_targets — prefer
  /// slot_hex() / slot_count() from other threads.
  const MultiCrackRequest& request() const { return request_; }

  /// Total candidates, and the dense identifier interval [0, size).
  u128 space_size() const { return space_; }
  keyspace::Interval space_interval() const {
    return keyspace::Interval(u128(0), space_);
  }

  /// Deduplicated digest count / digests not yet recovered or removed.
  std::size_t unique_count() const;
  std::size_t outstanding_count() const {
    return outstanding_count_.load(std::memory_order_acquire);
  }
  bool all_found() const { return outstanding_count() == 0; }

  /// Runs the process-wide lane-width probe for the request's
  /// algorithm now (hash::simd::kernels_for) instead of in the first
  /// fast-path scan. Idempotent and thread-safe.
  void calibrate() const;

  /// Scans [interval.begin, interval.end) of generator-relative ids on
  /// the calling thread, appending hits. Returns the number of
  /// candidates actually tested: equal to interval.size() on a full
  /// scan, smaller when `interrupt` became true between chunks OR the
  /// target set was mutated to a new generation mid-scan — either way
  /// the untested remainder is [begin + returned, end), which the
  /// caller re-dispatches later (against the new target set, closing
  /// the added-target window). A null interrupt never yields on
  /// interruption, but generation handoff still applies.
  u128 scan(const keyspace::Interval& interval, std::vector<SweepHit>& hits,
            const std::atomic<bool>* interrupt = nullptr) const;

  /// Marks a unique digest recovered. Returns the request-slot indices
  /// this recovery resolves — empty if it was already recorded
  /// (duplicate hit from a stale snapshot) or the digest was removed,
  /// which is what keeps found accounting exactly-once across
  /// mutations. Thread-safe, O(1) amortized (flag flip; occasional
  /// compaction).
  std::vector<std::size_t> mark_found(std::size_t unique_index,
                                      const std::string& key);

  /// mark_found by digest hex instead of unique index — journal replay
  /// on resume, where only the recorded (digest, key) pair is known.
  /// Returns the resolved request slots; empty when the hex matches no
  /// target or the digest was already recovered. Thread-safe.
  std::vector<std::size_t> mark_found_hex(const std::string& digest_hex,
                                          const std::string& key);

  /// Attaches more target hashes to the live sweep. Duplicates of
  /// existing targets share their unique digest (and resolve instantly
  /// when it was already recovered); digests removed earlier are
  /// re-attached; genuinely new digests extend the unique set and
  /// publish a new snapshot. Throws InvalidArgument on malformed hexes
  /// before any state changes. Thread-safe.
  TargetAddOutcome add_targets(const std::vector<std::string>& hexes);

  /// Detaches target hashes: their digests stop being reported and no
  /// longer count as outstanding (unknown or already-resolved hexes
  /// are ignored). Returns the number of unique digests detached.
  /// Thread-safe.
  std::size_t remove_targets(const std::vector<std::string>& hexes);

  /// Validation of add/remove input without side effects — callers
  /// that journal the mutation first use this to avoid journaling a
  /// doomed record. Throws InvalidArgument on malformed hexes.
  void validate_target_hexes(const std::vector<std::string>& hexes) const;

  /// Monotone epoch of the published target-set snapshot; bumped by
  /// add_targets (always) and by compaction. scan() yields when the
  /// generation moves past the snapshot it pinned.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Aggregate gate traffic and context builds so far (all contexts,
  /// all generations).
  SweepFilterStats filter_stats() const;

  /// Digest hex and recovery state per request slot; used to fill
  /// results incrementally.
  std::size_t slot_count() const;
  /// The digest hex occupying one request slot. Thread-safe (unlike
  /// request()).
  std::string slot_hex(std::size_t slot) const;

  /// Writes per-slot verdicts + cracked count into `out.targets` /
  /// `out.cracked` (other fields untouched). Thread-safe.
  void fill_results(MultiCrackResult& out) const;

  /// The recovered (digest_hex, key) pairs so far, in recovery order.
  /// Thread-safe; returns a copy.
  std::vector<std::pair<std::string, std::string>> found_so_far() const;

 private:
  struct Snapshot;
  struct Parsed;

  hash::TargetIndex::Config index_config() const;
  std::shared_ptr<const Snapshot> snapshot() const;
  /// Full snapshot rebuild (state_mu_ held): every dead unique is
  /// left out of the context indexes, the context cache starts empty.
  std::shared_ptr<const Snapshot> build_snapshot_locked() const;
  /// Publishes a fresh snapshot without the dead slots when enough of
  /// them accumulated since the last one (state_mu_ held).
  void maybe_compact_locked();

  MultiCrackRequest request_;
  std::unique_ptr<Parsed> parsed_;
  keyspace::KeyCodec codec_;
  u128 offset_;  ///< global codec id of generator-relative id 0
  u128 space_;

  mutable hash::TargetIndexStats index_stats_;
  mutable std::atomic<std::uint64_t> context_builds_{0};

  mutable std::mutex state_mu_;  ///< guards found/removed state + snapshot
  std::vector<bool> unique_found_;
  std::vector<bool> unique_removed_;
  std::vector<std::string> unique_keys_;
  std::vector<std::pair<std::string, std::string>> found_log_;
  std::size_t dead_count_ = 0;  ///< found + removed uniques
  std::shared_ptr<const Snapshot> snap_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> outstanding_count_{0};
};

}  // namespace gks::core
