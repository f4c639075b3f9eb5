#include "baselines/naive.h"

#include <algorithm>

#include "support/stopwatch.h"

namespace gks::baselines {
namespace {

dispatch::ScanOutcome scan_with(const core::CrackRequest& request,
                                const keyspace::Interval& interval,
                                bool incremental_next) {
  request.validate();
  Stopwatch timer;
  dispatch::ScanOutcome out;

  const keyspace::KeyspaceGenerator generator = request.make_generator();
  std::string key;
  if (incremental_next && interval.begin < interval.end) {
    generator.generate(interval.begin, key);
  }
  for (u128 id = interval.begin; id < interval.end; ++id) {
    if (!incremental_next) {
      generator.generate(id, key);  // full f(i) per candidate
    }
    if (request.matches(key)) {
      out.found.push_back({id, key});
    }
    if (incremental_next) generator.next(id, key);
  }
  out.tested = interval.size();
  out.busy_virtual_s = std::max(timer.seconds(), 1e-9);
  return out;
}

}  // namespace

dispatch::ScanOutcome naive_scan(const core::CrackRequest& request,
                                 const keyspace::Interval& interval) {
  return scan_with(request, interval, /*incremental_next=*/false);
}

dispatch::ScanOutcome next_full_hash_scan(const core::CrackRequest& request,
                                          const keyspace::Interval& interval) {
  return scan_with(request, interval, /*incremental_next=*/true);
}

}  // namespace gks::baselines
