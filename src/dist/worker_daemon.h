#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/multi_sweep.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "support/rng.h"
#include "support/uint128.h"

namespace gks::dist {

struct WorkerConfig {
  /// Worker identity; the coordinator scopes it per session, so
  /// duplicate names across machines are harmless.
  std::string name = "worker";
  /// Scan threads: each leased chunk is split this many ways.
  std::size_t threads = 1;
  /// Heartbeat cadence; the coordinator's welcome overrides it.
  double heartbeat_interval_s = 0.5;
  /// Silence budget of one request, in transport seconds: a request
  /// is retransmitted on the same session each time the RTT-derived
  /// retransmit timer runs out (RetransmitTimer), and only a
  /// coordinator that answers none of the copies for this long in
  /// total is presumed gone, which costs a reconnect.
  double recv_timeout_s = 10.0;
  /// Reconnect attempts after a dropped connection (0 = give up at the
  /// first failure). The delay between attempts grows exponentially
  /// from reconnect_backoff_s, capped at reconnect_backoff_max_s, with
  /// ±50% jitter (backoff_delay()). Attempts and the exponent reset
  /// only after a *successful hello* — a coordinator that accepts the
  /// TCP connection but rejects the session (version mismatch, worker
  /// ejected) still sees a backed-off worker, not a reconnect storm.
  int reconnect_attempts = 5;
  double reconnect_backoff_s = 0.5;
  double reconnect_backoff_max_s = 10.0;
  /// Seed of the jitter PRNG; 0 derives one from the worker name so a
  /// fleet of identically-configured workers spreads its retries
  /// instead of thundering back in lock-step.
  std::uint64_t backoff_seed = 0;
};

/// The delay before reconnect attempt `attempt` (0-based, counting
/// consecutive failures since the last accepted hello): exponential
/// doubling from config.reconnect_backoff_s, capped at
/// config.reconnect_backoff_max_s, scaled by a jitter factor uniform
/// in [0.5, 1.5). Pure given the RNG — unit-testable without a
/// transport.
double backoff_delay(int attempt, const WorkerConfig& config,
                     SplitMix64& rng);

/// Floor of the retransmit timeout, in transport seconds: on a fast
/// link the RTT estimate alone would retransmit on scheduling jitter.
inline constexpr double kMinRtoS = 0.005;

/// The retransmit timer of RFC 6298: RTO = srtt + 4·rttvar, at least
/// kMinRtoS and at most `ceiling_s`; min(1 s, ceiling_s) before the
/// first sample. Callers sample only round trips that were never
/// retransmitted (Karn's rule), and back_off() doubles the RTO after
/// each retransmit until the next sample recomputes it. Pure — unit-
/// testable without a transport.
class RetransmitTimer {
 public:
  explicit RetransmitTimer(double ceiling_s);

  double rto_s() const { return rto_; }
  void sample(double rtt_s);
  void back_off();

 private:
  double ceiling_;
  double srtt_ = -1;  ///< negative until the first sample
  double rttvar_ = 0;
  double rto_;
};

/// The dispatch client: leases interval quanta from a Coordinator,
/// sweeps them with core::MultiSweeper, reports recoveries the moment
/// they hit, and retires the scanned prefix. Heartbeats between chunks
/// keep the leases alive; a worker that dies mid-lease simply stops
/// heartbeating and the coordinator re-dispatches.
///
/// Like the coordinator, the daemon is written purely against the
/// Transport interface — the simnet fault-injection tests and the real
/// TCP daemons run this exact class.
class WorkerDaemon {
 public:
  struct Stats {
    std::uint64_t leases_completed = 0;
    std::uint64_t leases_abandoned = 0;  ///< cancelled under us or dropped
    std::uint64_t found_reported = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t retransmits = 0;  ///< requests re-sent on a live session
    u128 keys_scanned{0};
  };

  WorkerDaemon(Transport& transport, WorkerConfig config = {});

  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  /// Serves leases until stop() or until the coordinator goes away for
  /// good (reconnect attempts exhausted). Returns true on an orderly
  /// exit — stop() was called and BYE was delivered (or the session
  /// was already gone); false when the coordinator became unreachable.
  bool run(const std::string& coordinator_addr);

  /// Asks run() to wind down: the current chunk is interrupted, the
  /// current lease retired, BYE sent. Callable from any thread and
  /// from signal-ish contexts (only atomics are touched).
  void stop();

  Stats stats() const;

 private:
  /// One cached per-job scan state. `job_id` identifies the job
  /// *instance*: names are reusable once a job goes terminal, and a
  /// lease for a resubmitted name (new id) must rebuild the sweeper
  /// instead of scanning with the stale one — whose targets may all
  /// be marked found, which would retire every lease empty and spin
  /// the grant/retire loop forever.
  /// `target_gen` is the target-set generation of the spec the sweeper
  /// was built from: the coordinator re-sends the spec when the job's
  /// targets mutate (add/remove), and a grant carrying a newer
  /// generation means this sweeper is scanning a stale target set and
  /// must be rebuilt before the lease runs.
  struct JobCache {
    std::uint64_t job_id = 0;
    std::uint64_t target_gen = 0;
    std::unique_ptr<core::MultiSweeper> sweeper;
  };

  /// One connected session; returns false when the connection dropped
  /// (caller decides on reconnect) and true on orderly shutdown.
  bool serve_session(Connection& conn);
  /// Scans one granted lease; returns false when the connection died.
  bool run_lease(Connection& conn, const LeaseGrantWire& grant);
  /// Splits `iv` across the scan threads; returns the prefix-
  /// contiguous tested count and appends hits.
  u128 scan_chunk(core::MultiSweeper& sweeper, const keyspace::Interval& iv,
                  std::vector<core::SweepHit>& hits);
  /// Stamps the next request id on `body`, sends it and returns the
  /// reply carrying that id, retransmitting on each RTO expiry and
  /// discarding stale replies. Throws TransportError once the
  /// coordinator has been silent for recv_timeout_s (a silent
  /// coordinator is a dead coordinator).
  json::Value roundtrip(Connection& conn, const std::string& body);
  /// Applies piggybacked updates; returns false when `lease_id` (0 =
  /// none in flight) was cancelled under us.
  bool apply_ack(const AckMsg& ack, std::uint64_t lease_id);
  void apply_dead(const std::vector<FoundUpdate>& dead);
  u128 chunk_size() const;
  u128 lease_ask() const;

  Transport& transport_;
  WorkerConfig config_;
  SplitMix64 rng_;  ///< backoff jitter; seeded for reproducible tests

  std::atomic<bool> stop_{false};
  std::atomic<bool> interrupt_{false};
  /// Set by serve_session() once the coordinator accepted our hello;
  /// run() resets the reconnect budget on it (never on a bare TCP
  /// connect, which an ejecting coordinator still grants).
  bool hello_ok_ = false;
  /// Id of the last request sent on this session; the hello is 1.
  std::uint64_t rid_ = 0;
  /// Outlives sessions: a reconnect reaches the same coordinator.
  RetransmitTimer rto_;

  /// Sweepers by job name — a worker sees many leases of the same job
  /// and pays target parsing / filter construction once.
  std::map<std::string, JobCache> sweepers_;

  double busy_s_ = 0;  ///< wall seconds inside scan() (rate estimate)
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace gks::dist
