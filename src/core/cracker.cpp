#include "core/cracker.h"

#include "core/parallel_sweep.h"
#include "core/scan_engine.h"

namespace gks::core {

CrackResult LocalCracker::crack(const CrackRequest& request,
                                const ProgressCallback& progress) const {
  const ScanPlan plan(request);  // validates the request
  ThreadPool pool(threads_);
  const u128 total = request.space_size();
  // A hit or a cancelled progress ends the claiming; the claims still
  // running finish, and the lowest-id hit among them wins (sorted).
  const dispatch::ScanOutcome out = parallel_scan(
      pool, request.space_interval(),
      [&plan](const keyspace::Interval& ids) { return plan.scan(ids); },
      [&](const dispatch::ScanOutcome& sofar) {
        return sofar.found.empty() &&
               (!progress || progress(sofar.tested, total));
      });

  CrackResult result;
  result.found = !out.found.empty();
  if (result.found) result.key = out.found.front().value;
  result.tested = out.tested;
  result.elapsed_s = out.busy_virtual_s;
  result.throughput =
      result.elapsed_s > 0 ? result.tested.to_double() / result.elapsed_s : 0;
  return result;
}

}  // namespace gks::core
