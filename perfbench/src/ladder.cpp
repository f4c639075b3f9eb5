// The traced run's ladder: the same key space and targets pushed through
// one more layer per rung, each rung reported with its ratio to the rung
// below. Rungs 2-5 run the cluster workloads' worker count of scan
// threads, so every ratio compares like with like.

#include <algorithm>
#include <filesystem>

#include "core/cracker.h"
#include "drive.h"
#include "keyspace/charset.h"
#include "workloads.h"

namespace perfbench {

using namespace gks;

namespace {

/// keys/s of LocalCracker over the first `keys` candidates of a
/// one-target request, set-up excluded (timed from the first progress
/// callback, like local_crack).
double local_cracker_rate(const core::CrackRequest& req, std::size_t threads,
                          const u128& keys, Tracer* tracer) {
  const core::LocalCracker cracker(threads);
  double first_s = 0, last_s = 0;
  u128 first_keys{0}, last_keys{0};
  {
    Call call(tracer, "core", "LocalCracker::crack");
    cracker.crack(req, [&](const u128& tested, const u128&) {
      last_s = now_s();
      last_keys = tested;
      if (first_s == 0) {
        first_s = last_s;
        first_keys = tested;
      }
      return tested < keys;
    });
  }
  return (last_keys - first_keys).to_double() / (last_s - first_s);
}

}  // namespace

void run_ladder(const Options& opt, const WorkloadInputs& inputs,
                Sheet& sheet, Tracer* tracer) {
  const ClusterShape shape = cluster_shape(opt.quick);
  const std::size_t threads = shape.workers;
  const unsigned len = opt.quick ? 5 : 6;
  const std::uint64_t slice = opt.quick ? 1u << 20 : 1u << 24;
  const keyspace::Charset lower = keyspace::Charset::lower();
  SplitMix64 rng = stream(opt.seed, kLadder);

  // The workload's targets plus a decoy, over one lower-case length, so
  // every rung sweeps the same fixed space in full.
  const std::string decoy = decoy_digest(rng);
  std::vector<std::string> digests = inputs.digests;
  digests.push_back(decoy);
  const std::string lower_chars(lower.chars().begin(), lower.chars().end());
  std::vector<Planted> planted;
  for (const Planted& p : inputs.planted) {
    if (p.key.size() == len &&
        p.key.find_first_not_of(lower_chars) == std::string::npos) {
      planted.push_back(p);
    }
  }
  service::JobSpec spec;
  spec.name = "ladder";
  spec.request = md5_request(lower, len, len, digests);

  // Rung 1, hash: one thread. Each sample builds and calibrates its own
  // sweeper, which also times the core layer's set-up.
  std::vector<double> r1s, builds;
  core::SweepFilterStats gate;
  for (int i = 0; i < 3; ++i) {
    const ScanSample s =
        sample_scan(spec.request, u128(0), slice, 1, tracer, "hash");
    r1s.push_back(s.keys_per_s);
    builds.push_back(s.build_s);
    gate.gate_hits += s.gate.gate_hits;
    gate.false_positives += s.gate.false_positives;
  }
  const double r1 = quantile(r1s, 0.5);
  const double mkeys = 3.0 * slice / 1e6;
  sheet.metric("hash.keys_per_s_1t", r1, "keys/s");
  sheet.metric("hash.gate_hits_per_mkey", gate.gate_hits / mkeys, "1/Mkey");
  sheet.metric("hash.fp_per_mkey", gate.false_positives / mkeys, "1/Mkey");
  sheet.timing("core.sweeper_build_s", builds);

  // Rung 2, core: N threads.
  const double r2 = median_scan_rate(spec.request, u128(0), slice, threads, 3,
                                     tracer, "core");
  sheet.metric("core.keys_per_s_nt", r2, "keys/s");
  sheet.metric("core.thread_eff", r2 / (threads * r1), "ratio");
  sheet.metric("ladder.core_vs_hash", r2 / r1, "ratio");

  // LocalCracker against the sweeper on the same one-target request.
  {
    const double sweep_rate =
        median_scan_rate(md5_request(lower, len, len, {decoy}), u128(0), slice,
                         threads, 3, tracer, "core");
    const core::CrackRequest req = md5_crack_request(lower, len, len, decoy);
    // At least three of LocalCracker's 4M-key slices, so the rate spans
    // two progress callbacks.
    const u128 keys(std::max<std::uint64_t>(slice * threads, 12u << 20));
    std::vector<double> rates;
    for (int i = 0; i < 3; ++i) {
      rates.push_back(local_cracker_rate(req, threads, keys, tracer));
    }
    sheet.metric("core.localcracker_vs_sweeper",
                 quantile(rates, 0.5) / sweep_rate, "ratio");
  }

  // Rungs 3-5, in two interleaved rounds so that a slow moment of the
  // host lands on one sample of each rung rather than on one rung: the
  // JobManager pool with the journal off and on, then the cluster over
  // TCP, clean and at 1% loss (no tenants: loss is the only variable).
  std::vector<double> r3s, r3_journals;
  std::vector<ClusterSweepResult> clean, lossy;
  for (int round = 0; round < 2; ++round) {
    r3s.push_back(run_service_job(spec, planted, threads, "", sheet, tracer));
    r3_journals.push_back(run_service_job(
        spec, planted, threads, opt.scratch + "/ladder-journal.jsonl", sheet,
        tracer));
    ClusterSweep sweep;
    sweep.bulk = spec;
    sweep.bulk_planted = planted;
    sweep.fault_seed = rng();
    sweep.journal_path = opt.scratch + "/ladder-dist.jsonl";
    clean.push_back(run_cluster_sweep(sweep, shape, sheet, tracer));
    sweep.loss = ClusterShape::kLoss;
    lossy.push_back(run_cluster_sweep(sweep, shape, sheet, tracer));
  }
  const double r3 = quantile(r3s, 0.5);
  sheet.metric("service.local_keys_per_s", r3, "keys/s");
  sheet.metric("service.journal_tax", quantile(r3_journals, 0.5) / r3,
               "ratio");
  sheet.metric("ladder.service_vs_core", r3 / r2, "ratio");
  const SweepTotals clean_totals = total_sweeps(clean);
  const SweepTotals lossy_totals = total_sweeps(lossy);
  const double r4 = clean_totals.keys / clean_totals.wall;
  const double r5 = lossy_totals.keys / lossy_totals.wall;
  sheet.metric("dist.tcp_vs_service", r4 / r3, "ratio");
  sheet.metric("dist.lossy_vs_clean", r5 / r4, "ratio");
  // A workload without a dist tier of its own reports the clean rung's.
  if (!sheet.has("dist.rtt_p50_s")) {
    report_dist_layer(sheet, clean_totals, shape.workers);
  }

  // lease() + retire_lease() pairs timed directly, journal on.
  {
    const std::string path = opt.scratch + "/ladder-leases.jsonl";
    std::filesystem::remove(path);
    const int pairs = 2000;
    std::vector<double> calls;
    {
      service::JobServiceConfig cfg;
      cfg.local_scan = false;
      cfg.journal_path = path;
      cfg.journal_flush = group_commit();
      service::JobManager manager(cfg);
      manager.submit(spec);
      const u128 ask(opt.quick ? 1u << 12 : 1u << 16);
      for (int i = 0; i < pairs; ++i) {
        const double start = now_s();
        Call call(tracer, "service", "JobManager::lease+retire");
        const auto grant = manager.lease("bench", ask, 1e9);
        if (!grant) break;
        manager.retire_lease(grant->lease_id, grant->interval.size());
        calls.push_back(now_s() - start);
      }
    }
    sheet.timing("service.lease_call_p50_s", calls);
    sheet.metric("service.lease_call_p99_s", quantile(calls, 0.99), "s");
    sheet.metric("service.journal_bytes_per_lease",
                 static_cast<double>(std::filesystem::file_size(path)) /
                     static_cast<double>(calls.size()),
                 "bytes");
    std::filesystem::remove(path);
  }

  // Rung 6, obs: the core rung with the registry disabled and enabled,
  // interleaved.
  std::vector<double> on, off;
  for (int i = 0; i < 3; ++i) {
    obs::set_enabled(false);
    off.push_back(
        sample_scan(spec.request, u128(0), slice, threads, nullptr, "core")
            .keys_per_s);
    obs::set_enabled(true);
    on.push_back(
        sample_scan(spec.request, u128(0), slice, threads, nullptr, "core")
            .keys_per_s);
  }
  sheet.metric("obs.tax", quantile(off, 0.5) / quantile(on, 0.5), "ratio");
}

}  // namespace perfbench
