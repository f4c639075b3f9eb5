// Timed drives of single layers through their public APIs, shared by
// the workloads and the traced run's ladder.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/multi_crack.h"
#include "core/multi_sweep.h"
#include "obs/metrics.h"
#include "service/job_manager.h"

namespace perfbench {

/// One timed MultiSweeper::scan measurement.
struct ScanSample {
  double keys_per_s = 0;
  double build_s = 0;  ///< constructor plus calibrate()
  gks::core::SweepFilterStats gate;  ///< gate traffic of the scan
};

/// Builds and calibrates a fresh sweeper for `request`, then scans
/// [first, first + keys_per_thread × threads) of its space split evenly
/// over `threads` threads (the calling thread when 1). A fresh
/// calibration per sample keeps one unlucky kernel probe from skewing
/// every sample of a run.
ScanSample sample_scan(const gks::core::MultiCrackRequest& request,
                       const u128& first, std::uint64_t keys_per_thread,
                       std::size_t threads, Tracer* tracer,
                       const char* layer);

/// Median keys/s of `reps` sample_scan() measurements.
double median_scan_rate(const gks::core::MultiCrackRequest& request,
                        const u128& first, std::uint64_t keys_per_thread,
                        std::size_t threads, int reps, Tracer* tracer,
                        const char* layer);

/// A small job submitted while a cluster sweep runs, due at `due_s`
/// seconds after the sweep's set-up ended.
struct TenantJob {
  double due_s = 0;
  gks::service::JobSpec spec;
  Planted planted;
};

/// One sweep of a bulk job over a freshly started cluster: a
/// Coordinator with a group-commit journal serving ClusterShape's
/// workers over TCP loopback (through the seeded fault injector when
/// `loss` > 0), with an optional open-loop stream of tenant jobs.
struct ClusterSweep {
  gks::service::JobSpec bulk;
  std::vector<Planted> bulk_planted;
  std::vector<TenantJob> tenants;  ///< ascending due_s
  double loss = 0;
  std::uint64_t fault_seed = 0;
  std::string journal_path;
  /// Stop once the first chunk is scanned: measures set-up alone.
  bool setup_only = false;
};

struct ClusterSweepResult {
  double setup_s = 0;      ///< start until the first chunk is scanned
  double wall_s = 0;       ///< first chunk scanned until the last job ended
  double bulk_turnaround_s = 0;  ///< bulk submit until it went terminal
  u128 keys{0};            ///< candidates of every job that ran
  std::vector<double> tenant_turnaround_s;  ///< due time until terminal
  double arrival_lag_max_s = 0;
  std::vector<gks::dist::WorkerDaemon::Stats> workers;
  std::uint64_t frames_dropped = 0;
  gks::obs::RegistrySnapshot delta;  ///< registry change over the sweep
};

/// Runs one sweep, verifies every job it ran into `sheet`, and flags
/// the sheet invalid when the lease balance guard trips.
ClusterSweepResult run_cluster_sweep(const ClusterSweep& sweep,
                                     const ClusterShape& shape, Sheet& sheet,
                                     Tracer* tracer);

/// Sums over the sweeps of one run.
struct SweepTotals {
  double keys = 0;     ///< candidates of every job
  double wall = 0;     ///< summed ClusterSweepResult::wall_s
  double scanned = 0;  ///< candidates the workers scanned (re-scans too)
  double busy = 0;     ///< summed worker scan seconds
  double arrival_lag_max_s = 0;
  std::vector<double> setup, bulk_turnaround, tenant_turnaround;
  gks::obs::HistogramSnapshot rtt, lease;
  std::uint64_t reconnects = 0, lease_expiries = 0, frames_dropped = 0;
  std::uint64_t fewest_leases = 0;  ///< fewest leases one worker retired
  double least_share = 1;  ///< smallest worker share of a sweep ÷ mean
};
SweepTotals total_sweeps(const std::vector<ClusterSweepResult>& sweeps);

/// The dist layer's per-layer metrics from a run's sweeps.
void report_dist_layer(Sheet& sheet, const SweepTotals& t,
                       std::size_t workers);

/// One job through a JobManager's local worker pool; returns keys/s
/// from submit until the job ended and verifies it into `sheet`.
double run_service_job(const gks::service::JobSpec& spec,
                       const std::vector<Planted>& planted,
                       std::size_t workers, const std::string& journal_path,
                       Sheet& sheet, Tracer* tracer);

/// The journal flush policy of the coordinator the workloads run
/// (group commit, as gks-coordd --journal-batch configures it).
gks::service::JobStore::FlushPolicy group_commit();

}  // namespace perfbench
