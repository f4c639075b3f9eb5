// gks_perfbench: one workload of the repository's benchmark, driven for
// a fixed time through the public APIs of every layer it touches.
//
//   gks_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scratch DIR] [--quick]
//   gks_perfbench --check-verifier
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// spend half the time untraced and half traced on the same inputs (the
// ratio of the two is bench.trace_tax), record spans around every call
// into a layer, then climb the ladder of rungs on the workload's
// targets. The last line of stdout is the result as JSON; perfbench/
// run.py builds this program, checks that JSON, and prints the table.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "obs/metrics.h"
#include "workloads.h"

using namespace perfbench;

namespace {

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw gks::InvalidArgument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--scratch") {
      opt.scratch = value();
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--check-verifier") {
      opt.check_verifier = true;
    } else {
      throw gks::InvalidArgument("unknown option " + arg);
    }
  }
  if (opt.workload.empty() && !opt.check_verifier) {
    throw gks::InvalidArgument("--workload is required");
  }
  if (opt.seconds <= 0) throw gks::InvalidArgument("--seconds must be > 0");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    if (opt.check_verifier) return check_verifier() ? 0 : 1;
    gks::obs::set_enabled(true);
    Sheet sheet;
    if (!opt.trace) {
      run_workload(opt.workload, opt, opt.seconds, sheet, nullptr);
    } else {
      run_workload(opt.workload, opt, opt.seconds / 2, sheet, nullptr);
      const double untraced = sheet.get("keys_per_s");
      Tracer tracer;
      const WorkloadInputs inputs =
          run_workload(opt.workload, opt, opt.seconds / 2, sheet, &tracer);
      sheet.metric("bench.trace_tax", sheet.get("keys_per_s") / untraced,
                   "ratio");
      // The workload's footprint, before the ladder adds its own.
      sheet.metric("peak_rss_mb", peak_rss_mb(), "MiB");
      run_ladder(opt, inputs, sheet, &tracer);
      // Layers this workload's path does not cross did no work.
      const std::pair<const char*, const char*> idle_layers[] = {
          {"dispatch.rounds", "count"},
          {"dispatch.k_scatter_s", "s"},
          {"dispatch.k_search_s", "s"},
          {"dispatch.k_gather_s", "s"},
          {"dispatch.member_busy_min_share", "ratio"},
          {"bench.arrival_lag_max_s", "s"}};
      for (const auto& [name, unit] : idle_layers) {
        if (!sheet.has(name)) sheet.metric(name, 0, unit);
      }
      const auto self = tracer.self_time_by_layer();
      for (const char* layer :
           {"hash", "core", "service", "dist", "dispatch"}) {
        const auto it = self.find(layer);
        sheet.metric(std::string(layer) + ".self_s",
                     it == self.end() ? 0 : it->second, "s");
      }
      tracer.dump(opt.scratch + "/spans-" + opt.workload + "-" +
                  std::to_string(opt.seed) + ".json");
    }
    std::printf("%s\n", sheet.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gks_perfbench: %s\n", e.what());
    return 2;
  }
}
