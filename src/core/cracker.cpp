#include "core/cracker.h"

#include <algorithm>

#include "support/stopwatch.h"

namespace gks::core {

CrackResult LocalCracker::crack(const CrackRequest& request,
                                const ProgressCallback& progress) const {
  CpuSearcher searcher(request, threads_);  // validates the request

  CrackResult result;
  Stopwatch timer;
  keyspace::IntervalCursor cursor(request.space_interval());

  // Slice size balances early-exit latency against per-slice overhead;
  // a few million keys is well under a second on any host.
  const u128 slice(4u << 20);
  while (!cursor.exhausted()) {
    const keyspace::Interval chunk = cursor.take(slice);
    const dispatch::ScanOutcome out = searcher.scan(chunk);
    result.tested += out.tested;
    if (!out.found.empty()) {
      result.found = true;
      result.key = out.found.front().value;
      break;
    }
    if (progress && !progress(result.tested, request.space_size())) {
      break;  // caller cancelled
    }
  }
  result.elapsed_s = timer.seconds();
  result.throughput =
      result.elapsed_s > 0 ? result.tested.to_double() / result.elapsed_s : 0;
  return result;
}

}  // namespace gks::core
