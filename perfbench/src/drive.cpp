#include "drive.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/multi_sweep.h"
#include "dist/fault_transport.h"
#include "dist/tcp_transport.h"

namespace perfbench {

using namespace gks;

ScanSample sample_scan(const core::MultiCrackRequest& request,
                       const u128& first, std::uint64_t keys_per_thread,
                       std::size_t threads, Tracer* tracer,
                       const char* layer) {
  ScanSample out;
  const double built = now_s();
  std::unique_ptr<core::MultiSweeper> sweeper;
  {
    Call call(tracer, "core", "MultiSweeper::build");
    sweeper = std::make_unique<core::MultiSweeper>(request);
    sweeper->calibrate();
  }
  out.build_s = now_s() - built;
  const core::SweepFilterStats gate_before = sweeper->filter_stats();
  const auto scan_part = [&](std::size_t i) {
    Call call(tracer, layer, "MultiSweeper::scan");
    std::vector<core::SweepHit> hits;
    const u128 begin = first + u128(keys_per_thread * i);
    sweeper->scan(keyspace::Interval(begin, begin + u128(keys_per_thread)),
                  hits);
  };
  const double start = now_s();
  if (threads == 1) {
    scan_part(0);
  } else {
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(scan_part, i);
    for (std::thread& t : pool) t.join();
  }
  const double elapsed = now_s() - start;
  const core::SweepFilterStats gate_after = sweeper->filter_stats();
  out.gate.gate_hits = gate_after.gate_hits - gate_before.gate_hits;
  out.gate.false_positives =
      gate_after.false_positives - gate_before.false_positives;
  out.keys_per_s =
      static_cast<double>(keys_per_thread) * threads / elapsed;
  return out;
}

double median_scan_rate(const core::MultiCrackRequest& request,
                        const u128& first, std::uint64_t keys_per_thread,
                        std::size_t threads, int reps, Tracer* tracer,
                        const char* layer) {
  std::vector<double> rates;
  for (int i = 0; i < reps; ++i) {
    rates.push_back(sample_scan(request, first, keys_per_thread, threads,
                                tracer, layer)
                        .keys_per_s);
  }
  return quantile(rates, 0.5);
}

service::JobStore::FlushPolicy group_commit() {
  service::JobStore::FlushPolicy p;
  p.every_records = 64;
  p.max_delay_s = 0.05;
  return p;
}

namespace {

/// The cluster's workers, each serving on its own thread; the
/// destructor stops and joins them on every path out of a sweep.
class WorkerFleet {
 public:
  WorkerFleet(dist::Transport& transport, const ClusterShape& shape,
              std::uint64_t backoff_seed, const std::string& address,
              Tracer* tracer) {
    for (std::size_t i = 0; i < shape.workers; ++i) {
      daemons_.push_back(std::make_unique<dist::WorkerDaemon>(
          transport, shape.worker(i, backoff_seed)));
    }
    for (std::size_t i = 0; i < shape.workers; ++i) {
      threads_.emplace_back([this, i, address, tracer] {
        Call call(tracer, "dist", "WorkerDaemon::run");
        if (!daemons_[i]->run(address)) unreachable_.fetch_add(1);
      });
    }
  }
  ~WorkerFleet() { stop(); }
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Stops every worker and waits for its thread to end.
  void stop() {
    for (auto& d : daemons_) d->stop();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  std::vector<dist::WorkerDaemon::Stats> stats() const {
    std::vector<dist::WorkerDaemon::Stats> out;
    for (const auto& d : daemons_) out.push_back(d->stats());
    return out;
  }
  /// Workers whose run() gave up on the coordinator.
  int unreachable() const { return unreachable_.load(); }

 private:
  std::vector<std::unique_ptr<dist::WorkerDaemon>> daemons_;
  std::atomic<int> unreachable_{0};
  std::vector<std::thread> threads_;
};

}  // namespace

ClusterSweepResult run_cluster_sweep(const ClusterSweep& sweep,
                                     const ClusterShape& shape, Sheet& sheet,
                                     Tracer* tracer) {
  ClusterSweepResult out;
  // Hand the previous sweep's freed memory back to the OS, so the peak
  // resident size measures one sweep, not what the allocator retained.
  malloc_trim(0);
  obs::Counter& scans =
      obs::Registry::global().counter("gks_sweep_scans_total");
  const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
  const std::uint64_t scans_before = scans.value();
  const double start = now_s();

  service::JobServiceConfig cfg;
  cfg.local_scan = false;
  cfg.journal_path = sweep.journal_path;
  cfg.journal_flush = group_commit();
  std::filesystem::remove(sweep.journal_path);
  service::JobManager manager(cfg);
  dist::TcpTransport tcp;
  std::unique_ptr<dist::FaultInjectingTransport> faulty;
  if (sweep.loss > 0) {
    dist::FaultPlan plan;
    plan.send.drop = sweep.loss;
    plan.recv.drop = sweep.loss;
    faulty = std::make_unique<dist::FaultInjectingTransport>(tcp, plan,
                                                             sweep.fault_seed);
  }
  dist::Transport& worker_side =
      faulty ? static_cast<dist::Transport&>(*faulty) : tcp;
  dist::Coordinator coordinator(manager, tcp, shape.coordinator());
  {
    Call call(tracer, "dist", "Coordinator::start");
    coordinator.start("127.0.0.1:0");
  }

  const double submit_at = now_s();
  service::JobId bulk_id = 0;
  {
    Call call(tracer, "service", "JobManager::submit");
    bulk_id = manager.submit(sweep.bulk);
  }
  WorkerFleet fleet(worker_side, shape, sweep.fault_seed,
                    coordinator.address(), tracer);
  // Set-up ends when the first chunk has been scanned anywhere.
  while (scans.value() == scans_before && !manager.wait(bulk_id, 0)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double scanning_at = now_s();
  out.setup_s = scanning_at - start;
  if (sweep.setup_only) {
    manager.cancel(bulk_id);
    manager.wait(bulk_id);
    fleet.stop();
    coordinator.stop();
    std::filesystem::remove(sweep.journal_path);
    return out;
  }

  // Open-loop tenant stream: each job is submitted when it is due,
  // however far behind the service is, and timed from its due time to
  // the first poll that sees it terminal (polls run every 0.5 ms).
  std::vector<std::pair<service::JobId, const TenantJob*>> submitted;
  std::vector<double> done_at;
  std::size_t next = 0, open = 0;
  double bulk_done = 0;
  while (bulk_done == 0 || open > 0) {
    const double now = now_s();
    if (bulk_done == 0 && manager.wait(bulk_id, 0)) bulk_done = now;
    // The stream ends with the sweep.
    if (bulk_done == 0 && next < sweep.tenants.size() &&
        now >= scanning_at + sweep.tenants[next].due_s) {
      const TenantJob& t = sweep.tenants[next++];
      {
        Call call(tracer, "service", "JobManager::submit");
        submitted.emplace_back(manager.submit(t.spec), &t);
      }
      done_at.push_back(0);
      ++open;
      out.arrival_lag_max_s =
          std::max(out.arrival_lag_max_s, now - (scanning_at + t.due_s));
      continue;
    }
    for (std::size_t i = 0; i < submitted.size(); ++i) {
      if (done_at[i] == 0 && manager.wait(submitted[i].first, 0)) {
        done_at[i] = now;
        --open;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  double last_done = bulk_done;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    last_done = std::max(last_done, done_at[i]);
    out.tenant_turnaround_s.push_back(
        done_at[i] - (scanning_at + submitted[i].second->due_s));
  }
  out.wall_s = last_done - scanning_at;
  out.bulk_turnaround_s = bulk_done - submit_at;

  fleet.stop();
  coordinator.stop();
  out.workers = fleet.stats();
  if (faulty) out.frames_dropped = faulty->stats().dropped;
  out.delta = obs::diff(obs::Registry::global().snapshot(), before);

  const service::JobSnapshot bulk = manager.status(bulk_id);
  out.keys += bulk.space;
  verify_job(sheet, bulk, sweep.bulk_planted);
  for (const auto& [id, tenant] : submitted) {
    const service::JobSnapshot snap = manager.status(id);
    out.keys += snap.space;
    verify_job(sheet, snap, {tenant->planted});
  }
  if (fleet.unreachable() > 0) {
    sheet.fail(std::to_string(fleet.unreachable()) +
               " worker(s) lost the coordinator");
  }
  std::filesystem::remove(sweep.journal_path);

  // Lease balance guard: a sweep that one worker did alone measures one
  // worker, whatever the configuration says.
  u128 total{0};
  u128 least = out.workers.front().keys_scanned;
  std::uint64_t fewest = out.workers.front().leases_completed;
  for (const auto& w : out.workers) {
    total += w.keys_scanned;
    least = std::min(least, w.keys_scanned);
    fewest = std::min(fewest, w.leases_completed);
  }
  const double share = total > u128(0)
                           ? least.to_double() * out.workers.size() /
                                 total.to_double()
                           : 0;
  if (fewest < 8 || share < 0.5) {
    sheet.invalid("lease balance: a worker retired " + std::to_string(fewest) +
                  " leases, smallest work share " + std::to_string(share));
  }
  return out;
}

SweepTotals total_sweeps(const std::vector<ClusterSweepResult>& sweeps) {
  SweepTotals t;
  t.fewest_leases = ~std::uint64_t{0};
  for (const ClusterSweepResult& s : sweeps) {
    t.keys += s.keys.to_double();
    t.wall += s.wall_s;
    t.setup.push_back(s.setup_s);
    t.bulk_turnaround.push_back(s.bulk_turnaround_s);
    t.tenant_turnaround.insert(t.tenant_turnaround.end(),
                               s.tenant_turnaround_s.begin(),
                               s.tenant_turnaround_s.end());
    t.arrival_lag_max_s = std::max(t.arrival_lag_max_s, s.arrival_lag_max_s);
    if (const auto* h = s.delta.histogram("gks_worker_rtt_seconds")) {
      t.rtt.merge(*h);
    }
    if (const auto* h = s.delta.histogram("gks_worker_lease_seconds")) {
      t.lease.merge(*h);
    }
    if (const auto* h = s.delta.histogram("gks_worker_chunk_seconds")) {
      t.busy += h->sum;
    }
    t.reconnects += s.delta.counter_or("gks_worker_reconnects_total");
    t.lease_expiries += s.delta.counter_or("gks_lease_expired_total");
    t.frames_dropped += s.frames_dropped;
    double scanned = 0, least = 0;
    for (std::size_t i = 0; i < s.workers.size(); ++i) {
      const double w = s.workers[i].keys_scanned.to_double();
      scanned += w;
      least = i == 0 ? w : std::min(least, w);
      t.fewest_leases =
          std::min(t.fewest_leases, s.workers[i].leases_completed);
    }
    t.scanned += scanned;
    if (scanned > 0) {
      t.least_share = std::min(t.least_share,
                               least * s.workers.size() / scanned);
    }
  }
  return t;
}

void report_dist_layer(Sheet& sheet, const SweepTotals& t,
                       std::size_t workers) {
  sheet.metric("dist.rtt_p50_s", t.rtt.quantile(0.5), "s");
  sheet.metric("dist.rtt_p99_s", t.rtt.quantile(0.99), "s");
  sheet.metric("dist.lease_p50_s", t.lease.quantile(0.5), "s");
  sheet.metric("dist.lease_p99_s", t.lease.quantile(0.99), "s");
  sheet.metric("dist.idle_share",
               1 - t.busy / (static_cast<double>(workers) * t.wall), "ratio");
  sheet.metric("dist.leases_per_worker_min",
               static_cast<double>(t.fewest_leases), "count");
  sheet.metric("dist.work_share_min", t.least_share, "ratio");
  sheet.metric("dist.reconnects", static_cast<double>(t.reconnects), "count");
  sheet.metric("dist.lease_expiries", static_cast<double>(t.lease_expiries),
               "count");
  sheet.metric("dist.frames_dropped", static_cast<double>(t.frames_dropped),
               "count");
}

double run_service_job(const service::JobSpec& spec,
                       const std::vector<Planted>& planted,
                       std::size_t workers, const std::string& journal_path,
                       Sheet& sheet, Tracer* tracer) {
  service::JobServiceConfig cfg;
  cfg.workers = workers;
  if (!journal_path.empty()) {
    std::filesystem::remove(journal_path);
    cfg.journal_path = journal_path;
    cfg.journal_flush = group_commit();
  }
  service::JobManager manager(cfg);
  const double start = now_s();
  service::JobId id = 0;
  {
    Call call(tracer, "service", "JobManager::submit");
    id = manager.submit(spec);
  }
  {
    Call call(tracer, "service", "JobManager::wait");
    manager.wait(id);
  }
  const double elapsed = now_s() - start;
  const service::JobSnapshot snap = manager.status(id);
  verify_job(sheet, snap, planted);
  if (!journal_path.empty()) std::filesystem::remove(journal_path);
  return snap.space.to_double() / elapsed;
}

}  // namespace perfbench
