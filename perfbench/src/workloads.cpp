#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "core/cluster.h"
#include "core/cracker.h"
#include "drive.h"
#include "keyspace/charset.h"
#include "keyspace/space.h"
#include "support/error.h"

namespace perfbench {

using namespace gks;

namespace {

/// Extra cluster start-ups per run that measure set-up alone.
constexpr int kSetupProbes = 8;

std::size_t host_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// `count` distinct planted keys in the space, uniformly placed.
std::vector<Planted> plant_uniform(SplitMix64& rng,
                                   const keyspace::Charset& charset,
                                   unsigned min_len, unsigned max_len,
                                   std::size_t count) {
  const u128 space = keyspace::space_size(charset.size(), min_len, max_len);
  std::set<std::uint64_t> ids;
  while (ids.size() < count) ids.insert(rng.below(space.to_u64()));
  std::vector<Planted> out;
  for (const std::uint64_t id : ids) {
    out.push_back(plant_at(charset, min_len, max_len, u128(id)));
  }
  return out;
}

/// A planted key at a seeded position in [lo, hi) of the space.
Planted plant_late(SplitMix64& rng, const keyspace::Charset& charset,
                   unsigned min_len, unsigned max_len, double lo, double hi) {
  const double space =
      keyspace::space_size(charset.size(), min_len, max_len).to_double();
  const double at = space * (lo + (hi - lo) * rng.uniform01());
  return plant_at(charset, min_len, max_len,
                  u128(static_cast<std::uint64_t>(at)));
}

/// Records one crack's verdict: the planted key must come back exactly,
/// and its digest must match.
void verify_crack(Sheet& sheet, const Planted& planted, bool found,
                  const std::string& key) {
  sheet.attempt();
  if (!found) {
    sheet.fail("crack missed planted key " + planted.key);
    return;
  }
  sheet.evidence(planted.digest, key);
  if (key != planted.key) {
    sheet.fail("crack returned " + key + " for planted " + planted.key);
  }
}

// ---- cluster_tcp / cluster_lossy ---------------------------------------

struct ClusterSizes {
  unsigned bulk_len = 6;     ///< bulk space: lower-case keys of this length
  std::size_t targets = 1024;
  std::size_t planted = 128;
  unsigned tenant_len = 4;   ///< tenant space: lower-case, this length
  double tenant_rate = 12;   ///< open-loop arrivals per second
  std::uint64_t baseline_keys = 1u << 24;
};

ClusterSizes cluster_sizes(bool quick) {
  ClusterSizes s;
  if (quick) {
    s.bulk_len = 5;
    s.targets = 64;
    s.planted = 8;
    s.tenant_len = 3;
    s.baseline_keys = 1u << 20;
  }
  return s;
}

WorkloadInputs run_cluster(const Options& opt, double seconds, bool lossy,
                           Sheet& sheet, Tracer* tracer) {
  const ClusterSizes sz = cluster_sizes(opt.quick);
  const ClusterShape shape = cluster_shape(opt.quick);
  const keyspace::Charset lower = keyspace::Charset::lower();
  SplitMix64 targets_rng = stream(opt.seed, kTargets);
  SplitMix64 tenants_rng = stream(opt.seed, kTenants);
  SplitMix64 faults_rng = stream(opt.seed, kFaults);

  // One target set for the whole run: planted keys plus decoys, so the
  // bulk job always sweeps its whole space.
  WorkloadInputs inputs;
  inputs.planted =
      plant_uniform(targets_rng, lower, sz.bulk_len, sz.bulk_len, sz.planted);
  for (const Planted& p : inputs.planted) inputs.digests.push_back(p.digest);
  while (inputs.digests.size() < sz.targets) {
    inputs.digests.push_back(decoy_digest(targets_rng));
  }
  const core::MultiCrackRequest bulk_request =
      md5_request(lower, sz.bulk_len, sz.bulk_len, inputs.digests);

  const auto make_sweep = [&](const std::string& tag) {
    ClusterSweep sweep;
    sweep.bulk.name = "bulk";
    sweep.bulk.request = bulk_request;
    sweep.bulk_planted = inputs.planted;
    sweep.loss = lossy ? ClusterShape::kLoss : 0;
    sweep.fault_seed = faults_rng();
    sweep.journal_path = opt.scratch + "/journal-" + tag + ".jsonl";
    return sweep;
  };

  // Set-up alone, several times: start the cluster, wait for the first
  // scanned chunk, tear it down.
  std::vector<double> setup;
  for (int i = 0; i < kSetupProbes; ++i) {
    ClusterSweep probe = make_sweep("probe");
    probe.setup_only = true;
    setup.push_back(run_cluster_sweep(probe, shape, sheet, tracer).setup_s);
  }

  // The 1-thread scan rate on the same inputs, sampled before each
  // sweep so that the host's speed drift cancels out of the ratio.
  std::vector<double> rate_1t;
  std::vector<ClusterSweepResult> sweeps;
  const double t0 = now_s();
  int k = 0;
  do {
    for (int i = 0; i < 2; ++i) {
      rate_1t.push_back(sample_scan(bulk_request, u128(0), sz.baseline_keys,
                                    1, tracer, "hash")
                            .keys_per_s);
    }
    ClusterSweep sweep = make_sweep(std::to_string(k));
    double due = 0;
    for (int i = 0; due < seconds; ++i) {
      due += -std::log(1 - tenants_rng.uniform01()) / sz.tenant_rate;
      TenantJob t;
      t.due_s = due;
      t.planted = plant_uniform(tenants_rng, lower, sz.tenant_len,
                                sz.tenant_len, 1)
                      .front();
      t.spec.name = "tenant-" + std::to_string(k) + "-" + std::to_string(i);
      t.spec.priority = 1;
      t.spec.request = md5_request(lower, sz.tenant_len, sz.tenant_len,
                                   {t.planted.digest,
                                    decoy_digest(tenants_rng)});
      sweep.tenants.push_back(std::move(t));
    }
    sweeps.push_back(run_cluster_sweep(sweep, shape, sheet, tracer));
    ++k;
  } while ((now_s() - t0) * (k + 1) / k <= seconds);

  const SweepTotals t = total_sweeps(sweeps);
  const double workers = static_cast<double>(shape.workers);
  const double keys_per_s = t.keys / t.wall;
  sheet.metric("keys_per_s", keys_per_s, "keys/s");
  sheet.metric("scaling_eff",
               keys_per_s / (workers * quantile(rate_1t, 0.5)), "ratio");
  // Achieved against what the workers deliver while they scan.
  sheet.metric("dispatch_eff", keys_per_s / (workers * t.scanned / t.busy),
               "ratio");
  sheet.timing("time_to_solution_s", t.bulk_turnaround);
  sheet.timing("short_job_p50_s", t.tenant_turnaround);
  sheet.metric("short_job_p90_s", quantile(t.tenant_turnaround, 0.9), "s");
  setup.insert(setup.end(), t.setup.begin(), t.setup.end());
  sheet.timing("setup_s", setup);
  report_dist_layer(sheet, t, shape.workers);
  sheet.metric("bench.arrival_lag_max_s", t.arrival_lag_max_s, "s");
  return inputs;
}

// ---- local_crack -------------------------------------------------------

WorkloadInputs run_local_crack(const Options& opt, double seconds,
                               Sheet& sheet, Tracer* tracer) {
  const unsigned max_len = opt.quick ? 5 : 6;
  const unsigned short_len = opt.quick ? 4 : 5;
  const int shorts_per_crack = 8;
  const std::uint64_t baseline_keys = opt.quick ? 1u << 20 : 1u << 23;
  const keyspace::Charset lower = keyspace::Charset::lower();
  const std::size_t threads = host_threads();
  SplitMix64 cracks_rng = stream(opt.seed, kCracks);
  SplitMix64 shorts_rng = stream(opt.seed, kShortJobs);

  // Planted late: each crack sweeps most of the space before it hits.
  const auto next_long = [&] {
    return plant_late(cracks_rng, lower, 1, max_len, 0.82, 0.84);
  };
  const Planted first = next_long();
  WorkloadInputs inputs{{first.digest}, {first}};

  // 1-thread and N-thread MultiSweeper rates on the same request, over
  // the start of the longest key length (where cracks spend their time,
  // and the planted keys are not), sampled before each crack so that
  // the host's speed drift cancels out of the ratios.
  const core::MultiCrackRequest baseline =
      md5_request(lower, 1, max_len, {first.digest});
  const u128 longest = keyspace::space_size(lower.size(), 1, max_len - 1);
  std::vector<double> rate_1t, rate_nt;

  const core::LocalCracker cracker(threads);
  std::vector<double> rates, setup, solve, shorts;
  const double t0 = now_s();
  int k = 0;
  do {
    rate_1t.push_back(
        sample_scan(baseline, longest, baseline_keys, 1, tracer, "hash")
            .keys_per_s);
    rate_nt.push_back(
        sample_scan(baseline, longest, baseline_keys, threads, tracer, "core")
            .keys_per_s);
    const Planted planted = k == 0 ? first : next_long();
    double first_slice_s = 0;
    u128 first_slice_keys{0};
    const double start = now_s();
    core::CrackResult result;
    {
      Call call(tracer, "core", "LocalCracker::crack");
      result = cracker.crack(
          md5_crack_request(lower, 1, max_len, planted.digest),
          [&](const u128& tested, const u128&) {
            if (first_slice_s == 0) {
              first_slice_s = now_s() - start;
              first_slice_keys = tested;
            }
            return true;
          });
    }
    const double elapsed = now_s() - start;
    verify_crack(sheet, planted, result.found, result.key);
    solve.push_back(elapsed);
    setup.push_back(first_slice_s);
    // Set-up excluded: keys and time after the first slice.
    rates.push_back((result.tested - first_slice_keys).to_double() /
                    (elapsed - first_slice_s));

    // Short cracks: a key planted mid-space of a 26^5 space, so that
    // each one scans a few slices after its set-up.
    for (int i = 0; i < shorts_per_crack; ++i) {
      const Planted p =
          plant_late(shorts_rng, lower, short_len, short_len, 0.45, 0.55);
      const double s0 = now_s();
      core::CrackResult r;
      {
        Call call(tracer, "core", "LocalCracker::crack");
        r = cracker.crack(
            md5_crack_request(lower, short_len, short_len, p.digest));
      }
      shorts.push_back(now_s() - s0);
      verify_crack(sheet, p, r.found, r.key);
    }
    ++k;
  } while ((now_s() - t0) * (k + 1) / k <= seconds);

  const double keys_per_s = quantile(rates, 0.5);
  sheet.metric("keys_per_s", keys_per_s, "keys/s");
  sheet.metric("scaling_eff",
               keys_per_s / (threads * quantile(rate_1t, 0.5)), "ratio");
  // LocalCracker's own slicing against an even split of the sweep
  // engine over the same threads.
  sheet.metric("dispatch_eff", keys_per_s / quantile(rate_nt, 0.5), "ratio");
  sheet.timing("time_to_solution_s", solve);
  sheet.timing("short_job_p50_s", shorts);
  sheet.metric("short_job_p90_s", quantile(shorts, 0.9), "s");
  sheet.timing("setup_s", setup);
  return inputs;
}

// ---- paper_cluster -----------------------------------------------------

WorkloadInputs run_paper_cluster(const Options& opt, double seconds,
                                 Sheet& sheet, Tracer* tracer) {
  const unsigned max_len = opt.quick ? 6 : 8;
  const unsigned short_len = opt.quick ? 3 : 4;
  const int shorts_per_crack = 6;
  const keyspace::Charset alnum = keyspace::Charset::alphanumeric();
  const keyspace::Charset lower = keyspace::Charset::lower();
  SplitMix64 cracks_rng = stream(opt.seed, kCracks);
  SplitMix64 shorts_rng = stream(opt.seed, kShortJobs);

  const auto crack = [&](const keyspace::Charset& charset, unsigned lo,
                         unsigned hi, const Planted& planted) {
    core::ClusterOptions options;
    options.time_scale = 1e-3;
    options.gpu_mode = core::SimGpuMode::kModel;
    options.planted_key = planted.key;
    options.agent.round_virtual_target_s = 30.0;
    core::ClusterCracker cluster(core::ClusterCracker::paper_topology(),
                                 options);
    Call call(tracer, "dispatch", "ClusterCracker::crack");
    const dispatch::SearchReport report =
        cluster.crack(md5_crack_request(charset, lo, hi, planted.digest));
    std::size_t hits = 0;
    for (const dispatch::Found& f : report.found) {
      if (f.value == planted.key) ++hits;
    }
    verify_crack(sheet, planted, hits > 0,
                 hits > 0 ? planted.key : std::string());
    if (report.found.size() != hits || hits > 1) {
      sheet.attempt();
      sheet.fail("cluster reported " + std::to_string(report.found.size()) +
                 " keys for one planted key");
    }
    return report;
  };

  WorkloadInputs inputs;
  std::vector<double> keys_per_s, eff, dispatch_eff, solve, setup, shorts;
  std::vector<double> rounds, scatter, search, gather, busy_min;
  const double t0 = now_s();
  int k = 0;
  do {
    const Planted planted =
        plant_late(cracks_rng, alnum, 1, max_len, 0.025, 0.026);
    if (k == 0) inputs = {{planted.digest}, {planted}};
    const dispatch::SearchReport report = crack(alnum, 1, max_len, planted);
    double tuned = 0;
    double least_busy = 1;
    for (const dispatch::MemberStats& m : report.members) {
      tuned += m.throughput;
      least_busy = std::min(least_busy,
                            m.busy_virtual_s / report.elapsed_virtual_s);
    }
    keys_per_s.push_back(report.throughput);
    eff.push_back(report.efficiency);
    dispatch_eff.push_back(report.throughput / tuned);
    solve.push_back(report.elapsed_virtual_s);
    rounds.push_back(static_cast<double>(report.rounds));
    double sc = 0, se = 0, ga = 0;
    for (const dispatch::RoundCosts& r : report.costs.rounds()) {
      sc += r.scatter_s;
      se += r.search_max_s;
      ga += r.gather_s;
    }
    scatter.push_back(sc);
    search.push_back(se);
    gather.push_back(ga);
    busy_min.push_back(least_busy);

    for (int i = 0; i < shorts_per_crack; ++i) {
      // Set-up, every other time: a crack whose key is the first
      // candidate costs network assembly, the tuning pass and one
      // dispatch.
      double s0 = now_s();
      if (i % 2 == 0) {
        crack(alnum, 1, max_len, plant_at(alnum, 1, max_len, u128(0)));
        setup.push_back(now_s() - s0);
      }
      // Short job: a tenant-sized crack, timed in real seconds (its
      // virtual duration is below the simulator's time resolution).
      s0 = now_s();
      crack(lower, short_len, short_len,
            plant_uniform(shorts_rng, lower, short_len, short_len, 1).front());
      shorts.push_back(now_s() - s0);
    }
    ++k;
  } while ((now_s() - t0) * (k + 1) / k <= seconds);

  sheet.metric("keys_per_s", quantile(keys_per_s, 0.5), "keys/s");
  sheet.metric("scaling_eff", quantile(eff, 0.5), "ratio");
  sheet.metric("dispatch_eff", quantile(dispatch_eff, 0.5), "ratio");
  sheet.timing("time_to_solution_s", solve);
  sheet.timing("short_job_p50_s", shorts);
  sheet.metric("short_job_p90_s", quantile(shorts, 0.9), "s");
  sheet.timing("setup_s", setup);
  sheet.metric("dispatch.rounds", quantile(rounds, 0.5), "count");
  sheet.metric("dispatch.k_scatter_s", quantile(scatter, 0.5), "s");
  sheet.metric("dispatch.k_search_s", quantile(search, 0.5), "s");
  sheet.metric("dispatch.k_gather_s", quantile(gather, 0.5), "s");
  sheet.metric("dispatch.member_busy_min_share", quantile(busy_min, 0.5),
               "ratio");
  return inputs;
}

}  // namespace

WorkloadInputs run_workload(const std::string& name, const Options& opt,
                            double seconds, Sheet& sheet, Tracer* tracer) {
  if (name == "cluster_tcp") {
    return run_cluster(opt, seconds, false, sheet, tracer);
  }
  if (name == "cluster_lossy") {
    return run_cluster(opt, seconds, true, sheet, tracer);
  }
  if (name == "local_crack") {
    return run_local_crack(opt, seconds, sheet, tracer);
  }
  if (name == "paper_cluster") {
    return run_paper_cluster(opt, seconds, sheet, tracer);
  }
  throw InvalidArgument("unknown workload: " + name);
}

}  // namespace perfbench
