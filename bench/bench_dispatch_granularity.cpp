// Ablation: dispatch efficiency versus work-interval depth — the
// Section III cost model in action. Small rounds leave the cluster
// waiting on scatter/gather and per-round fixed costs; the paper's
// remedy is that "N_node could be arbitrarily increased to minimize
// the overhead caused by the dispatch and merge steps".
// With model-timed devices only modeled costs count (no host time),
// so the sweep measures the link model alone.

#include <cstdio>

#include "core/cluster.h"
#include "hash/md5.h"
#include "support/table.h"

int main() {
  using namespace gks;

  const std::string planted = "Mq3kQ9ad";
  core::CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.charset = keyspace::Charset::alphanumeric();
  request.min_length = 1;
  request.max_length = 8;
  request.target_hex = hash::Md5::digest(planted).to_hex();

  gks::TablePrinter table;
  table.header({"round depth (virtual s)", "rounds", "throughput (MKey/s)",
                "dispatch efficiency"});

  for (const double depth : {0.5, 2.0, 8.0, 30.0}) {
    core::ClusterOptions options;
    options.time_scale = 1e-3;
    options.gpu_mode = core::SimGpuMode::kModel;
    options.planted_key = planted;
    options.agent.round_virtual_target_s = depth;

    core::ClusterCracker cluster(core::ClusterCracker::paper_topology(),
                                 options);
    const auto report = cluster.crack(request);
    double device_sum = 0;
    for (const auto& m : report.members) device_sum += m.throughput;

    table.row({gks::TablePrinter::num(depth),
               std::to_string(report.rounds),
               gks::TablePrinter::num(report.throughput / 1e6),
               gks::TablePrinter::num(report.throughput / device_sum, 3)});
  }

  std::printf("== Dispatch granularity sweep (paper network, MD5) ==\n\n%s\n",
              table.str().c_str());
  std::printf(
      "Per-round costs (K_scatter + K_gather + synchronization on the\n"
      "slowest member) amortize over K_search, as the Section III bound\n"
      "K_D >= max_j(K_scatter + K_search + K_gather) predicts. The\n"
      "simulated GPUs put the run on the event-driven clock, where the\n"
      "only per-round costs are the modeled links (200 us each way), so\n"
      "already at 0.5 s rounds they are well under 1%% and the efficiency\n"
      "is flat. It can pass 1: the tuned X_j come from probe batches\n"
      "that each pay a kernel launch.\n");
  return 0;
}
