#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dist/protocol.h"
#include "dist/transport.h"
#include "obs/metrics.h"
#include "service/job_manager.h"
#include "support/uint128.h"

namespace gks::dist {

struct CoordinatorConfig {
  /// Validity of a granted lease, in transport seconds. A worker that
  /// goes silent for this long forfeits its intervals to re-dispatch.
  double lease_s = 3.0;
  /// Cadence the coordinator asks workers to heartbeat at (welcome
  /// message). Several heartbeats fit one lease lifetime, so a single
  /// dropped renewal does not expire a healthy worker.
  double heartbeat_s = 0.5;
  /// How long an idle worker should wait before asking again.
  double idle_retry_s = 0.2;
  /// Reaper cadence: how often expired leases are swept back into the
  /// pending queues.
  double reap_interval_s = 0.25;
  /// Ceiling on granted lease sizes, in candidates. Workers request a
  /// size from their measured rate; the ceiling bounds the work lost
  /// when a holder dies (the floor, kMinLease, bounds bookkeeping).
  u128 max_lease{u128(1) << 24};
  /// recv timeout for an established session; a worker silent this
  /// long (no requests, no heartbeats) is presumed dead and its
  /// session closes (leases then expire via the reaper).
  double session_timeout_s = 6.0;

  /// How long a quarantined worker is refused leases; an ejected
  /// worker may re-hello after 2x this on probation. The rest of the
  /// health policy (scores, strike weights, healing) is fixed in
  /// coordinator.cpp; docs/distributed.md, "Failure model", tabulates
  /// it.
  double quarantine_s = 5.0;
};

/// The dispatch server: owns nothing but references — a JobManager
/// (jobs, scheduler, journal) and a Transport — and serves the wire
/// protocol of protocol.h on top of them. One thread per session plus
/// an acceptor and a lease reaper.
///
/// The coordinator is transport-agnostic by construction: every
/// deadline it computes uses Transport::now_s(), so the same object
/// runs over real TCP sockets and over a simnet virtual network
/// without a single branch on the backend.
class Coordinator {
 public:
  struct Stats {
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_closed = 0;
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_retired = 0;
    std::uint64_t found_reports = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t forged_founds = 0;
    std::uint64_t workers_quarantined = 0;
    std::uint64_t workers_ejected = 0;
  };

  Coordinator(service::JobManager& manager, Transport& transport,
              CoordinatorConfig config = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds `listen_addr` and starts the acceptor + reaper threads.
  /// Throws TransportError when the address cannot be bound.
  void start(const std::string& listen_addr);

  /// Closes the listener and every live session, joins all threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// The bound address (resolves ":0" to the real port). Valid after
  /// start().
  std::string address() const;

  Stats stats() const;

  /// Health snapshot of every worker the coordinator has ever scored,
  /// as the status verb reports them (sorted by name).
  std::vector<WorkerHealthWire> worker_health() const;

  /// The cluster telemetry view the `metrics` verb returns: this
  /// process's registry plus the latest snapshot each worker *name*
  /// piggybacked on a heartbeat or retire. Worker entries replace on
  /// arrival and persist across reconnects — the same keying (and the
  /// same survival rule) as the health table, so `status` and
  /// `metrics` rows join on the name.
  MetricsRespMsg cluster_metrics() const;

  /// Prometheus text exposition of cluster_metrics(): coordinator
  /// series labelled node="coordinator", worker series labelled
  /// worker="<name>". This is what --metrics-listen serves.
  std::string prometheus_text() const;

 private:
  struct Session;

  /// Per-worker health ledger entry. Keyed by worker *name* (the part
  /// of the holder before '#'), never by session: a worker cannot
  /// launder its score by reconnecting under a fresh session.
  struct WorkerHealth {
    double score = 0;
    std::uint64_t strikes = 0;
    std::uint64_t missed_heartbeats = 0;
    std::uint64_t lease_expiries = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t late_retires = 0;
    std::uint64_t forged_founds = 0;
    std::uint64_t retires_ok = 0;
    double quarantined_until = 0;
    bool ejected = false;
    double ejected_at = 0;
  };

  /// Latest telemetry snapshot a worker name sent, and when.
  struct WorkerMetricsEntry {
    obs::RegistrySnapshot snapshot;
    double received_s = 0;
  };

  void accept_loop();
  void reaper_loop();
  void serve_session(std::shared_ptr<Session> session);
  /// One request body → the reply to send, or nullopt for a stale
  /// request id that gets no answer. Parses the body once and checks
  /// its rid against the session's reply cache before handle() runs
  /// any side effect (protocol.h, "Request ids").
  std::optional<std::string> respond(Session& session,
                                     const std::string& body);
  /// One parsed request → one response string (never throws; protocol
  /// failures become error/nack responses). `session` accumulates the
  /// per-connection state (holder id, specs already sent, found-log
  /// cursor).
  std::string handle(Session& session, const json::Value& msg,
                     const std::string& type);
  /// Piggyback state for a response: leases of this session that died
  /// under it, and recoveries it has not heard yet.
  void fill_updates(Session& session, std::vector<std::uint64_t>& cancelled,
                    std::vector<FoundUpdate>& dead);
  void note_found(service::JobId job_id, const std::string& job,
                  const std::string& digest, const std::string& key);
  /// Replaces the telemetry view of the session's worker name with a
  /// snapshot piggybacked on a retire, heartbeat or bye.
  void store_worker_metrics(const Session& session,
                            std::optional<obs::RegistrySnapshot>& snapshot);

  /// The worker name a holder id belongs to ("alice#7" → "alice").
  static std::string worker_name_of(const std::string& holder);
  /// Records a strike against `name` (weight per offence) and moves
  /// it through the quarantine/ejection lifecycle. `counter`, when
  /// non-null, is the per-reason tally inside that worker's ledger.
  /// Caller must hold mu_.
  void strike_locked(const std::string& name, double weight,
                     std::uint64_t WorkerHealth::*counter);
  /// Heals `name` after a clean retire. Caller must hold mu_.
  void heal_locked(const std::string& name);
  /// Counts a malformed request from an established session: bumps the
  /// protocol_errors stat and strikes the worker.
  void note_protocol_error(const Session& session);
  /// The lifecycle state string of a ledger entry at `now`. Caller
  /// must hold mu_.
  std::string health_state_locked(const WorkerHealth& h, double now) const;

  service::JobManager& manager_;
  Transport& transport_;
  CoordinatorConfig config_;

  std::unique_ptr<Listener> listener_;
  std::thread acceptor_;
  std::thread reaper_;

  mutable std::mutex mu_;
  bool stopping_ = false;
  std::uint64_t next_session_ = 1;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::thread> session_threads_;
  /// Log of recoveries; sessions replay it from their own cursor so
  /// every worker eventually hears about every dead target. Entries
  /// carry the job id so a broadcast can never kill a target in a
  /// later job that reused the name. Cursors are absolute indices;
  /// the deque holds entries [found_base_, found_base_ + size()) and
  /// note_found() prunes the prefix every live session has replayed
  /// (new sessions start at the tail — recoveries-so-far reach them
  /// via each job's spec), so the log is bounded by live sessions'
  /// lag, not the coordinator's lifetime.
  std::deque<FoundUpdate> found_log_;
  std::size_t found_base_ = 0;
  /// (job id, digest) pairs ever logged — O(log n) dedup of the
  /// found reports racing holders send for the same digest.
  std::set<std::pair<service::JobId, std::string>> found_seen_;
  /// Health ledger, keyed by worker name. Entries persist across
  /// sessions (and past disconnects) for the coordinator's lifetime.
  std::map<std::string, WorkerHealth> health_;
  /// Latest piggybacked telemetry per worker name; replace-on-arrival
  /// (worker snapshots are cumulative), survives reconnects like the
  /// health ledger.
  std::map<std::string, WorkerMetricsEntry> worker_metrics_;
  Stats stats_;
  mutable std::condition_variable stop_cv_;  ///< wakes the reaper early
};

}  // namespace gks::dist
