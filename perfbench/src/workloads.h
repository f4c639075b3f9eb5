// The four workloads. Each drives its layers through their public APIs
// for a fixed time, verifies every result into the sheet, and reports
// both its end-to-end metrics and the per-layer observables it exposes;
// main() picks the set the run was asked for.

#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// What the traced run's ladder re-uses: the workload's target digests
/// and the keys planted among them.
struct WorkloadInputs {
  std::vector<std::string> digests;
  std::vector<Planted> planted;
};

/// Runs workload `name` for about `seconds` of timed work. Throws
/// gks::InvalidArgument for an unknown name.
WorkloadInputs run_workload(const std::string& name, const Options& opt,
                            double seconds, Sheet& sheet, Tracer* tracer);

/// The traced run's ladder: hash 1 thread → core N threads → service
/// (journal off, on) → dist over TCP → dist lossy, plus obs enabled
/// against disabled, all on the workload's targets.
void run_ladder(const Options& opt, const WorkloadInputs& inputs,
                Sheet& sheet, Tracer* tracer);

}  // namespace perfbench
