#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "service/job.h"
#include "support/json.h"
#include "support/uint128.h"

namespace gks::dist {

/// Wire protocol of the distributed tier (docs/distributed.md): JSON
/// message bodies carried in GKF1 frames (frame.h). One request, one
/// response — a worker never has two messages in flight, so the
/// protocol needs no multiplexing and a response can always piggyback
/// session-scoped updates (cancelled leases, dead targets).
///
/// Requests (worker or client → coordinator):
///   hello      open a worker session (version handshake)
///   lease_req  ask for an interval lease
///   found      report a recovery against a live lease, immediately
///   retire     return a lease with its scanned prefix (recoveries
///              went ahead as found reports)
///   heartbeat  renew every lease of this session
///   bye        orderly goodbye (revokes the session's leases)
///   submit     submit a job (control clients, gks-jobs --connect)
///   cancel     cancel a job by name
///   targets    add/remove target digests of a job by name
///   status     snapshot one job or all jobs
///   metrics    cluster telemetry (coordinator + per-worker snapshots)
///
/// Responses (coordinator → peer):
///   welcome      hello accepted; carries the lease/heartbeat cadence
///   lease        a granted lease (+ the job spec if this session has
///                not seen the job yet, + recoveries so far)
///   idle         no work right now; retry after retry_s
///   ack          generic success/failure for found/retire/heartbeat/
///                bye/submit/cancel/targets
///   status_resp  job snapshots
///   error        protocol-level failure; the session should close
///
/// All u128 quantities travel as decimal strings (json.h keeps large
/// integers out of JSON numbers by design).
///
/// Request ids: every worker request carries a per-session `rid`
/// (1 for the hello, then +1 per request) and the reply echoes it. A
/// worker that hears nothing retransmits the same bytes; the
/// coordinator answers a repeat of its last rid from a one-entry reply
/// cache, so a replayed lease_req/found/retire has no second effect.
/// Requests without a rid (control clients) are handled uncached.
///
/// Version 2 added request ids: a retransmitting worker talking to a
/// coordinator without the reply cache would double-apply requests.
inline constexpr int kProtocolVersion = 2;

/// A recovery broadcast: job `job` no longer needs `digest` (key was
/// `key`). Responses piggyback these so every worker stops scanning
/// for digests some other worker already recovered. `job_id` pins the
/// update to one job *instance*: job names are reusable once a job is
/// terminal, and a stale broadcast must never mark a target dead in a
/// later job that happens to share the name.
struct FoundUpdate {
  std::string job;
  std::string digest;
  std::string key;
  std::uint64_t job_id = 0;
};

struct HelloMsg {
  int version = kProtocolVersion;
  std::string name;  ///< worker name (coordinator scopes it per session)
  int threads = 1;   ///< informational: the worker's scan parallelism
};

struct WelcomeMsg {
  int version = kProtocolVersion;
  double lease_s = 0;      ///< lease validity the coordinator grants
  double heartbeat_s = 0;  ///< cadence the worker should renew at
  std::string holder;      ///< session-scoped holder id assigned
};

struct LeaseRequestMsg {
  /// Upper bound on the interval size the worker wants; 0 lets the
  /// coordinator pick from its rate estimate.
  u128 max_ids{0};
};

/// A granted lease on the wire. `spec` rides along the first time this
/// session sees the job (the worker caches sweepers per job name) and
/// again whenever the job's target generation moved past the one this
/// session last received (live add/remove of targets invalidates the
/// cached sweeper); `spec_found` are the recoveries already made, so a
/// fresh worker doesn't re-report them.
struct LeaseGrantWire {
  std::uint64_t lease_id = 0;
  std::uint64_t job = 0;
  std::string job_name;
  u128 begin{0};
  u128 end{0};
  /// Target-set generation of the job at grant time; a worker whose
  /// cached sweeper carries an older generation must rebuild from the
  /// spec on this grant before scanning.
  std::uint64_t target_gen = 0;
  bool has_spec = false;
  service::JobSpec spec;
  std::vector<std::pair<std::string, std::string>> spec_found;
  std::vector<FoundUpdate> dead;
};

struct IdleMsg {
  double retry_s = 0.2;
  std::vector<FoundUpdate> dead;
};

struct FoundMsg {
  std::uint64_t lease_id = 0;
  std::string digest;
  std::string key;
};

struct RetireMsg {
  std::uint64_t lease_id = 0;
  u128 tested{0};  ///< contiguous prefix of the lease actually scanned
  /// Seconds spent scanning the lease; never negative.
  double busy_s = 0;
  /// The worker's full telemetry snapshot at retire time (absent from
  /// pre-obs workers; the decoder tolerates a missing member). Retire
  /// carries it too — not just heartbeat — so a lease that finishes
  /// between heartbeats still lands its final counters.
  std::optional<obs::RegistrySnapshot> metrics;
};

struct HeartbeatMsg {
  /// Telemetry piggyback: the worker's registry snapshot, replacing
  /// the coordinator's previous view of this worker name. Optional so
  /// old (or minimal) peers stay decodable.
  std::optional<obs::RegistrySnapshot> metrics;
};

struct ByeMsg {
  /// Final telemetry piggyback: a session's last retire cannot carry
  /// the counters that retire's own ack will bump (leases_completed),
  /// so a graceful exit lands them here instead of losing them.
  std::optional<obs::RegistrySnapshot> metrics;
};

struct AckMsg {
  bool ok = true;
  std::string error;
  /// Leases of this session no longer live (job cancelled or lease
  /// expired before the renewal arrived): the worker should abandon
  /// them without retiring.
  std::vector<std::uint64_t> cancelled;
  std::vector<FoundUpdate> dead;
  /// submit: the assigned JobId.
  std::uint64_t id = 0;
};

struct SubmitMsg {
  service::JobSpec spec;
};

struct CancelMsg {
  std::string job;
};

struct TargetsMsg {
  std::string job;
  std::vector<std::string> add;
  std::vector<std::string> remove;
};

struct StatusMsg {
  std::string job;  ///< empty selects every job
};

/// Control verb: ask the coordinator for the cluster telemetry view.
struct MetricsMsg {};

/// One worker's latest snapshot as the coordinator retains it, keyed
/// by worker *name* (same key as the health table, so `status` and
/// `metrics` rows join trivially); `age_s` is how long ago it arrived.
struct WorkerMetricsWire {
  std::string name;
  double age_s = 0;
  obs::RegistrySnapshot metrics;
};

struct MetricsRespMsg {
  /// The coordinator process's own registry (journal, job service,
  /// local scans, session counters).
  obs::RegistrySnapshot coordinator;
  std::vector<WorkerMetricsWire> workers;
};

/// One worker's health as the coordinator scores it (see
/// docs/distributed.md, "Failure model & chaos testing"). Keyed by
/// worker *name*, not session holder, so a flaky worker cannot launder
/// its score by reconnecting.
struct WorkerHealthWire {
  std::string name;
  /// "ok" | "degraded" | "quarantined" | "ejected"
  std::string state;
  double score = 0;
  std::uint64_t strikes = 0;
  std::uint64_t missed_heartbeats = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t late_retires = 0;
  std::uint64_t forged_founds = 0;
  std::uint64_t retires_ok = 0;
};

struct StatusRespMsg {
  std::vector<service::JobSnapshot> jobs;
  /// Worker health scores (absent from pre-health coordinators; the
  /// decoder tolerates a missing list).
  std::vector<WorkerHealthWire> workers;
};

struct ErrorMsg {
  std::string error;
};

/// The "type" member of a parsed message; throws InvalidArgument when
/// absent (every protocol message carries one).
std::string message_type(const json::Value& v);

/// Adds `"rid":rid` to one encoded message (any encode() output);
/// rid 0 returns the body unchanged, which is how requests and replies
/// without an id travel.
std::string stamp_rid(std::string body, std::uint64_t rid);

/// The request id a message carries; 0 when it has none. Throws
/// InvalidArgument when the member is not a non-negative integer.
std::uint64_t request_id(const json::Value& v);

/// Encoders — one JSON document per message, ready for encode_frame().
std::string encode(const HelloMsg& m);
std::string encode(const WelcomeMsg& m);
std::string encode(const LeaseRequestMsg& m);
std::string encode(const LeaseGrantWire& m);
std::string encode(const IdleMsg& m);
std::string encode(const FoundMsg& m);
std::string encode(const RetireMsg& m);
std::string encode(const HeartbeatMsg& m);
std::string encode(const ByeMsg& m);
std::string encode(const AckMsg& m);
std::string encode(const SubmitMsg& m);
std::string encode(const CancelMsg& m);
std::string encode(const TargetsMsg& m);
std::string encode(const StatusMsg& m);
std::string encode(const StatusRespMsg& m);
std::string encode(const MetricsMsg& m);
std::string encode(const MetricsRespMsg& m);
std::string encode(const ErrorMsg& m);

/// Decoders — the caller dispatches on message_type() first; each
/// throws InvalidArgument on missing or malformed fields.
HelloMsg hello_from_json(const json::Value& v);
WelcomeMsg welcome_from_json(const json::Value& v);
LeaseRequestMsg lease_request_from_json(const json::Value& v);
LeaseGrantWire lease_grant_from_json(const json::Value& v);
IdleMsg idle_from_json(const json::Value& v);
FoundMsg found_from_json(const json::Value& v);
RetireMsg retire_from_json(const json::Value& v);
HeartbeatMsg heartbeat_from_json(const json::Value& v);
ByeMsg bye_from_json(const json::Value& v);
AckMsg ack_from_json(const json::Value& v);
SubmitMsg submit_from_json(const json::Value& v);
CancelMsg cancel_from_json(const json::Value& v);
TargetsMsg targets_from_json(const json::Value& v);
StatusMsg status_from_json(const json::Value& v);
StatusRespMsg status_resp_from_json(const json::Value& v);
MetricsRespMsg metrics_resp_from_json(const json::Value& v);
ErrorMsg error_from_json(const json::Value& v);

}  // namespace gks::dist
