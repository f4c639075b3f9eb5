#pragma once

#include <cstddef>
#include <functional>

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

}  // namespace gks::core
