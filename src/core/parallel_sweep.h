#pragma once

#include <cstddef>
#include <functional>

#include "dispatch/search.h"
#include "keyspace/interval.h"
#include "support/thread_pool.h"

namespace gks::core {

/// The host-thread driver every CPU sweep runs on, the fine-grain level
/// of the pattern (Section III): the pool's threads claim ascending
/// chunks of `interval` off an atomic cursor until it drains, so a
/// chunk that costs more (an early-exit kernel, a slower core) never
/// leaves the others waiting at a join. Claims aim at ~64 per worker,
/// at least 4096 and at most 2^22 ids; the first ones are 1024 ids
/// whatever the interval, so an early hit ends the search soon.
/// fn(worker, ids) tests one claim on the calling thread; `worker` is a
/// dense index in [0, pool.size()) for per-worker accumulators. Once
/// any fn returns false, claims not yet started are dropped and the
/// call returns when the running ones finish. The interval is walked
/// in super-batches cut at multiples of 2^62, so the cursor arithmetic
/// stays in 64 bits. Waits for completion; an exception from fn stops
/// the claiming the same way and is rethrown.
void parallel_sweep(
    ThreadPool& pool, const keyspace::Interval& interval,
    const std::function<bool(std::size_t, const keyspace::Interval&)>& fn);

/// parallel_sweep for a host IntervalSearcher: scan(ids) tests one
/// claim, and the claims' outcomes merge into one, found sorted by id
/// (claim order is nondeterministic) and busy_virtual_s the wall time.
/// After each merge, `more` (when set) sees the running total under the
/// merge's lock: its calls are serialized, see monotone totals and end
/// at the first false, after which no further claim starts.
dispatch::ScanOutcome parallel_scan(
    ThreadPool& pool, const keyspace::Interval& interval,
    const std::function<dispatch::ScanOutcome(const keyspace::Interval&)>&
        scan,
    const std::function<bool(const dispatch::ScanOutcome&)>& more = {});

}  // namespace gks::core
