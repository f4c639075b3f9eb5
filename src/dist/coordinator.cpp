#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "support/error.h"

namespace gks::dist {

namespace {

/// Floor on granted lease sizes, in candidates: bounds per-lease
/// bookkeeping, and is what degraded workers are clamped to.
constexpr u128 kMinLease{4096};

// --- Worker health policy (docs/distributed.md, "Failure model") ---
// Scores are per worker *name* and accumulate strikes weighted by
// offence; clean retires heal. The lifecycle degrades gradually:
//   score >= kDegradedScore    leases clamp to kMinLease
//   score >= kQuarantineScore  no leases for quarantine_s
//   score >= kDisconnectScore  ejected: hellos rejected until a
//                              probation period passes; the worker
//                              re-enters at kDegradedScore, not zero
constexpr double kDegradedScore = 3.0;
constexpr double kQuarantineScore = 6.0;
constexpr double kDisconnectScore = 10.0;
/// Score healed by each clean retire.
constexpr double kHealPerRetire = 0.5;
// Strike weights.
constexpr double kStrikeProtocol = 1.0;      ///< malformed request
constexpr double kStrikeForgedFound = 2.0;   ///< found failing digest check
constexpr double kStrikeLeaseExpired = 1.0;  ///< lease lost to the reaper
constexpr double kStrikeLateRetire = 0.5;    ///< retire of a dead lease
constexpr double kStrikeSilence = 1.0;       ///< session_timeout_s silent

/// Registry mirrors of Coordinator::Stats plus the grant→retire
/// turnaround histogram; bumped alongside the struct counters so the
/// metrics verb and the Prometheus endpoint see the same story.
struct CoordMetrics {
  obs::Counter& sessions =
      obs::Registry::global().counter("gks_coord_sessions_total");
  obs::Counter& protocol_errors =
      obs::Registry::global().counter("gks_coord_protocol_errors_total");
  obs::Counter& forged =
      obs::Registry::global().counter("gks_coord_forged_founds_total");
  obs::Counter& quarantined =
      obs::Registry::global().counter("gks_coord_quarantines_total");
  obs::Counter& ejected =
      obs::Registry::global().counter("gks_coord_ejections_total");
  obs::Counter& found_reports =
      obs::Registry::global().counter("gks_found_reports_total");
  /// Coordinator-side lease turnaround: grant to successful retire.
  /// The worker-side twin (gks_worker_lease_seconds) excludes the
  /// grant's own round-trip; the gap between the two is pure protocol.
  obs::Histogram& turnaround_s = obs::Registry::global().histogram(
      "gks_coord_lease_turnaround_seconds");
};

CoordMetrics& cmetrics() {
  static CoordMetrics* m = new CoordMetrics;
  return *m;
}

}  // namespace

/// Per-connection state. The holder id scopes every lease to this
/// session: a reconnecting worker gets a fresh holder, so its old
/// session's leases expire normally instead of being confusable with
/// the new ones.
struct Coordinator::Session {
  std::unique_ptr<Connection> conn;
  std::string holder;        ///< "<worker-name>#<session-seq>"
  bool hello_done = false;
  /// Job *id* → target generation of the spec this session last
  /// received — the worker caches sweepers, so the spec rides a lease
  /// only when the session has never seen the job or its target set
  /// mutated since (add/remove bumps the generation and the stale
  /// cached sweeper must be rebuilt, or the worker keeps scanning the
  /// old target set while its retired intervals are journaled as
  /// covered). Keyed by id, not name: a terminal job's name may be
  /// reused by a fresh submit, and that new instance needs its spec
  /// re-sent (the id change is also what tells the worker to drop its
  /// stale cache).
  std::map<service::JobId, std::uint64_t> specs_sent;
  /// One lease this session still believes in: its job (id, name) and
  /// when it was granted (transport seconds) for turnaround timing.
  struct LiveLease {
    service::JobId job = 0;
    std::string job_name;
    double granted_s = 0;
  };
  /// Leases granted to this session the worker still believes in;
  /// fill_updates() reports the ones that died (expiry, job cancel).
  std::map<std::uint64_t, LiveLease> live_leases;
  /// Absolute cursor into Coordinator::found_log_ (see found_base_).
  /// Starts at the tail: recoveries made before this session opened
  /// reach it as `spec_found` on each job's first lease, not by
  /// replaying history.
  std::size_t found_cursor = 0;
  /// The reply cache: the highest request id answered and the exact
  /// bytes of that answer. A worker has one request in flight, so one
  /// entry is enough; a retransmit of last_rid gets last_reply again.
  std::uint64_t last_rid = 0;
  std::string last_reply;
};

Coordinator::Coordinator(service::JobManager& manager, Transport& transport,
                         CoordinatorConfig config)
    : manager_(manager), transport_(transport), config_(std::move(config)) {
  GKS_REQUIRE(config_.lease_s > 0, "lease lifetime must be positive");
  GKS_REQUIRE(config_.heartbeat_s > 0, "heartbeat cadence must be positive");
  GKS_REQUIRE(config_.heartbeat_s < config_.lease_s,
              "heartbeat cadence must beat the lease lifetime");
  GKS_REQUIRE(kMinLease <= config_.max_lease,
              "max lease below the minimum lease");
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start(const std::string& listen_addr) {
  GKS_REQUIRE(listener_ == nullptr, "coordinator already started");
  listener_ = transport_.listen(listen_addr);
  acceptor_ = std::thread([this] { accept_loop(); });
  reaper_ = std::thread([this] { reaper_loop(); });
}

void Coordinator::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (const auto& session : sessions_) {
      if (session->conn) session->conn->close();
    }
  }
  stop_cv_.notify_all();
  if (listener_) listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  if (reaper_.joinable()) reaper_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mu_);
    threads.swap(session_threads_);
  }
  for (std::thread& t : threads) t.join();
}

std::string Coordinator::address() const {
  GKS_REQUIRE(listener_ != nullptr, "coordinator not started");
  return listener_->address();
}

Coordinator::Stats Coordinator::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::string Coordinator::worker_name_of(const std::string& holder) {
  const auto pos = holder.rfind('#');
  return pos == std::string::npos ? holder : holder.substr(0, pos);
}

void Coordinator::strike_locked(const std::string& name, double weight,
                                std::uint64_t WorkerHealth::*counter) {
  if (name.empty()) return;
  WorkerHealth& h = health_[name];
  h.score += weight;
  ++h.strikes;
  if (counter != nullptr) ++(h.*counter);
  const double now = transport_.now_s();
  if (!h.ejected && h.score >= kDisconnectScore) {
    h.ejected = true;
    h.ejected_at = now;
    ++stats_.workers_ejected;
    cmetrics().ejected.add(1);
  } else if (!h.ejected && h.score >= kQuarantineScore &&
             now >= h.quarantined_until) {
    h.quarantined_until = now + config_.quarantine_s;
    ++stats_.workers_quarantined;
    cmetrics().quarantined.add(1);
  }
}

void Coordinator::heal_locked(const std::string& name) {
  if (name.empty()) return;
  WorkerHealth& h = health_[name];
  ++h.retires_ok;
  h.score = std::max(0.0, h.score - kHealPerRetire);
}

void Coordinator::note_protocol_error(const Session& session) {
  std::lock_guard lock(mu_);
  ++stats_.protocol_errors;
  cmetrics().protocol_errors.add(1);
  strike_locked(worker_name_of(session.holder), kStrikeProtocol,
                &WorkerHealth::protocol_errors);
}

std::string Coordinator::health_state_locked(const WorkerHealth& h,
                                             double now) const {
  if (h.ejected) return "ejected";
  if (now < h.quarantined_until) return "quarantined";
  if (h.score >= kDegradedScore) return "degraded";
  return "ok";
}

std::vector<WorkerHealthWire> Coordinator::worker_health() const {
  std::lock_guard lock(mu_);
  const double now = transport_.now_s();
  std::vector<WorkerHealthWire> out;
  out.reserve(health_.size());
  for (const auto& [name, h] : health_) {
    WorkerHealthWire w;
    w.name = name;
    w.state = health_state_locked(h, now);
    w.score = h.score;
    w.strikes = h.strikes;
    w.missed_heartbeats = h.missed_heartbeats;
    w.lease_expiries = h.lease_expiries;
    w.protocol_errors = h.protocol_errors;
    w.late_retires = h.late_retires;
    w.forged_founds = h.forged_founds;
    w.retires_ok = h.retires_ok;
    out.push_back(std::move(w));
  }
  return out;
}

MetricsRespMsg Coordinator::cluster_metrics() const {
  MetricsRespMsg resp;
  resp.coordinator = obs::Registry::global().snapshot();
  std::lock_guard lock(mu_);
  const double now = transport_.now_s();
  resp.workers.reserve(worker_metrics_.size());
  for (const auto& [name, entry] : worker_metrics_) {
    WorkerMetricsWire w;
    w.name = name;
    w.age_s = std::max(0.0, now - entry.received_s);
    w.metrics = entry.snapshot;
    resp.workers.push_back(std::move(w));
  }
  return resp;
}

std::string Coordinator::prometheus_text() const {
  const MetricsRespMsg view = cluster_metrics();
  std::vector<obs::LabeledSnapshot> parts;
  parts.reserve(view.workers.size() + 1);
  parts.push_back({{{"node", "coordinator"}}, view.coordinator});
  for (const WorkerMetricsWire& w : view.workers) {
    parts.push_back({{{"worker", w.name}}, w.metrics});
  }
  return obs::prometheus_exposition(parts);
}

void Coordinator::accept_loop() {
  for (;;) {
    std::unique_ptr<Connection> conn;
    try {
      conn = listener_->accept(/*timeout_s=*/0.25);
    } catch (const TransportError&) {
      return;  // listener closed — shutting down
    }
    if (!conn) {
      std::lock_guard lock(mu_);
      if (stopping_) return;
      continue;
    }
    auto session = std::make_shared<Session>();
    session->conn = std::move(conn);
    std::lock_guard lock(mu_);
    if (stopping_) {
      session->conn->close();
      return;
    }
    session->found_cursor = found_base_ + found_log_.size();
    ++stats_.sessions_opened;
    cmetrics().sessions.add(1);
    sessions_.push_back(session);
    session_threads_.emplace_back(
        [this, session] { serve_session(session); });
  }
}

void Coordinator::reaper_loop() {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      if (stopping_) return;
      // transport sleep without holding the lock would be cleaner, but
      // waiting on the cv keeps stop() prompt; the reaper cadence is
      // coarse real time, which tracks transport time at simnet
      // scale=1.0 (the only scale workers doing real scans run at).
      stop_cv_.wait_for(lock, std::chrono::duration<double>(
                                  config_.reap_interval_s));
      if (stopping_) return;
    }
    std::vector<std::string> expired_holders;
    manager_.expire_leases(transport_.now_s(), &expired_holders);
    if (!expired_holders.empty()) {
      std::lock_guard lock(mu_);
      for (const std::string& holder : expired_holders) {
        strike_locked(worker_name_of(holder), kStrikeLeaseExpired,
                      &WorkerHealth::lease_expiries);
      }
    }
  }
}

void Coordinator::note_found(service::JobId job_id, const std::string& job,
                             const std::string& digest,
                             const std::string& key) {
  std::lock_guard lock(mu_);
  ++stats_.found_reports;
  cmetrics().found_reports.add(1);
  if (!found_seen_.emplace(job_id, digest).second) return;  // broadcast once
  found_log_.push_back(FoundUpdate{job, digest, key, job_id});
  // Drop the prefix every live session has already replayed; sessions
  // that closed no longer hold it back, and new sessions start at the
  // tail, so a long-running coordinator's log stays bounded.
  std::size_t min_cursor = found_base_ + found_log_.size();
  for (const auto& session : sessions_) {
    min_cursor = std::min(min_cursor, session->found_cursor);
  }
  while (found_base_ < min_cursor) {
    found_log_.pop_front();
    ++found_base_;
  }
}

void Coordinator::store_worker_metrics(
    const Session& session, std::optional<obs::RegistrySnapshot>& snapshot) {
  if (!snapshot.has_value()) return;
  const double now = transport_.now_s();
  std::lock_guard lock(mu_);
  WorkerMetricsEntry& entry = worker_metrics_[worker_name_of(session.holder)];
  entry.snapshot = std::move(*snapshot);
  entry.received_s = now;
}

void Coordinator::fill_updates(Session& session,
                               std::vector<std::uint64_t>& cancelled,
                               std::vector<FoundUpdate>& dead) {
  for (auto it = session.live_leases.begin();
       it != session.live_leases.end();) {
    if (manager_.lease_live(it->first)) {
      ++it;
    } else {
      cancelled.push_back(it->first);
      it = session.live_leases.erase(it);
    }
  }
  std::lock_guard lock(mu_);
  if (session.found_cursor < found_base_) session.found_cursor = found_base_;
  for (; session.found_cursor < found_base_ + found_log_.size();
       ++session.found_cursor) {
    dead.push_back(found_log_[session.found_cursor - found_base_]);
  }
}

std::optional<std::string> Coordinator::respond(Session& session,
                                                const std::string& body) {
  json::Value msg;
  std::string type;
  std::uint64_t rid = 0;
  try {
    msg = json::parse(body);
    type = message_type(msg);
    rid = request_id(msg);
  } catch (const Error& e) {
    std::lock_guard lock(mu_);
    ++stats_.protocol_errors;
    cmetrics().protocol_errors.add(1);
    if (session.hello_done) {
      strike_locked(worker_name_of(session.holder), kStrikeProtocol,
                    &WorkerHealth::protocol_errors);
    }
    return encode(ErrorMsg{std::string("bad message: ") + e.what()});
  }
  if (rid == 0) return handle(session, msg, type);
  // A retransmit of the request just answered: its reply was lost, or
  // crossed the retransmit on the wire. Answer again without applying
  // it twice. An older id is a stale copy whose answer already went
  // out, and the worker has moved on from it.
  if (rid == session.last_rid) return session.last_reply;
  if (rid < session.last_rid) return std::nullopt;
  session.last_rid = rid;
  session.last_reply = stamp_rid(handle(session, msg, type), rid);
  return session.last_reply;
}

std::string Coordinator::handle(Session& session, const json::Value& msg,
                                const std::string& type) {
  // Decodes one message body; a malformed field is a protocol strike
  // against the worker, unlike manager-level failures (unknown job,
  // expired lease) which are honest races and nack without a strike.
  const auto decode = [&](auto decoder) {
    try {
      return decoder(msg);
    } catch (const Error&) {
      note_protocol_error(session);
      throw;
    }
  };

  try {
    if (!session.hello_done) {
      if (type != "hello") {
        return encode(ErrorMsg{"expected hello, got " + type});
      }
      const HelloMsg hello = hello_from_json(msg);
      if (hello.version != kProtocolVersion) {
        return encode(ErrorMsg{"protocol version mismatch"});
      }
      const std::string name =
          hello.name.empty() ? session.conn->peer() : hello.name;
      std::uint64_t seq;
      {
        std::lock_guard lock(mu_);
        WorkerHealth& h = health_[name];  // ledger entry exists from hello on
        if (h.ejected) {
          // Probation: an ejected worker may return after sitting out
          // twice the quarantine window, and re-enters degraded (not
          // clean) so one fresh offence re-quarantines it.
          const double now = transport_.now_s();
          if (now < h.ejected_at + 2 * config_.quarantine_s) {
            return encode(ErrorMsg{"worker '" + name +
                                   "' is ejected; retry after probation"});
          }
          h.ejected = false;
          h.quarantined_until = 0;
          h.score = kDegradedScore;
        }
        seq = next_session_++;
      }
      session.holder = name + "#" + std::to_string(seq);
      session.hello_done = true;
      WelcomeMsg welcome;
      welcome.lease_s = config_.lease_s;
      welcome.heartbeat_s = config_.heartbeat_s;
      welcome.holder = session.holder;
      return encode(welcome);
    }

    if (type == "lease_req") {
      const LeaseRequestMsg req = decode(lease_request_from_json);
      u128 want = req.max_ids;
      if (want == u128(0)) want = config_.max_lease;
      want = std::min(std::max(want, kMinLease), config_.max_lease);
      bool ejected = false;
      bool degraded = false;
      double quarantined_until = 0;
      {
        std::lock_guard lock(mu_);
        const auto it = health_.find(worker_name_of(session.holder));
        if (it != health_.end()) {
          ejected = it->second.ejected;
          quarantined_until = it->second.quarantined_until;
          degraded = it->second.score >= kDegradedScore;
        }
      }
      if (ejected) {
        return encode(ErrorMsg{"worker ejected for repeated faults"});
      }
      const double q_now = transport_.now_s();
      if (q_now < quarantined_until) {
        // Quarantined: no work until the window passes. Idle (not an
        // error) keeps the session alive so the worker sits the window
        // out instead of burning reconnects.
        IdleMsg idle;
        idle.retry_s = std::max(config_.idle_retry_s,
                                quarantined_until - q_now);
        std::vector<std::uint64_t> cancelled;  // idle has no lease list
        fill_updates(session, cancelled, idle.dead);
        return encode(idle);
      }
      // Degraded workers get the smallest leases: bounded blast radius
      // while they prove themselves back to health.
      if (degraded) want = kMinLease;
      const double deadline = transport_.now_s() + config_.lease_s;
      const auto grant = manager_.lease(session.holder, want, deadline);
      if (!grant.has_value()) {
        IdleMsg idle;
        idle.retry_s = config_.idle_retry_s;
        std::vector<std::uint64_t> cancelled;  // idle has no lease list
        fill_updates(session, cancelled, idle.dead);
        return encode(idle);
      }
      LeaseGrantWire wire;
      wire.lease_id = grant->lease_id;
      wire.job = grant->job;
      wire.job_name = grant->job_name;
      wire.begin = grant->interval.begin;
      wire.end = grant->interval.end;
      wire.target_gen = grant->target_gen;
      const auto sent = session.specs_sent.find(grant->job);
      if (sent == session.specs_sent.end() ||
          sent->second != grant->target_gen) {
        wire.has_spec = true;
        // wire_spec may observe a generation newer than the grant's (a
        // mutation can land between lease() and here); recording the
        // grant's generation then just re-sends the spec next lease —
        // erring on the resend side is the safe direction.
        wire.spec = manager_.wire_spec(grant->job, &wire.spec_found);
        session.specs_sent[grant->job] = grant->target_gen;
      }
      session.live_leases.emplace(
          grant->lease_id,
          Session::LiveLease{grant->job, grant->job_name, transport_.now_s()});
      std::vector<std::uint64_t> cancelled;
      fill_updates(session, cancelled, wire.dead);
      {
        std::lock_guard lock(mu_);
        ++stats_.leases_granted;
      }
      return encode(wire);
    }

    if (type == "found") {
      const FoundMsg found = decode(found_from_json);
      const service::FoundOutcome outcome =
          manager_.report_found(found.lease_id, found.digest, found.key);
      AckMsg ack;
      switch (outcome) {
        case service::FoundOutcome::kApplied:
        case service::FoundOutcome::kDuplicate: {
          // Verified against the job's own digest recompute; only now
          // may it broadcast to other workers.
          const auto it = session.live_leases.find(found.lease_id);
          if (it != session.live_leases.end()) {
            note_found(it->second.job, it->second.job_name, found.digest,
                       found.key);
          }
          break;
        }
        case service::FoundOutcome::kForged: {
          // The key does not hash to the digest: a bug or a liar.
          // Either way the report dies here — never journaled, never
          // broadcast — and the worker earns a heavy strike.
          ack.ok = false;
          ack.error = "found report failed verification";
          std::lock_guard lock(mu_);
          ++stats_.forged_founds;
          cmetrics().forged.add(1);
          strike_locked(worker_name_of(session.holder),
                        kStrikeForgedFound,
                        &WorkerHealth::forged_founds);
          break;
        }
        case service::FoundOutcome::kNoLease:
          ack.ok = false;
          ack.cancelled.push_back(found.lease_id);
          break;
      }
      fill_updates(session, ack.cancelled, ack.dead);
      return encode(ack);
    }

    if (type == "retire") {
      RetireMsg retire = decode(retire_from_json);
      const bool live = manager_.retire_lease(retire.lease_id, retire.tested,
                                              retire.busy_s);
      const auto it = session.live_leases.find(retire.lease_id);
      if (live && it != session.live_leases.end()) {
        cmetrics().turnaround_s.observe(
            std::max(0.0, transport_.now_s() - it->second.granted_s));
      }
      session.live_leases.erase(retire.lease_id);
      store_worker_metrics(session, retire.metrics);
      {
        std::lock_guard lock(mu_);
        const std::string name = worker_name_of(session.holder);
        if (live) {
          ++stats_.leases_retired;
          heal_locked(name);
        } else {
          // Retiring a lease the reaper already expired: mild strike —
          // honest workers hit this under latency, flaky ones live here.
          strike_locked(name, kStrikeLateRetire,
                        &WorkerHealth::late_retires);
        }
      }
      AckMsg ack;
      ack.ok = live;
      if (!live) ack.error = "lease expired or unknown";
      fill_updates(session, ack.cancelled, ack.dead);
      return encode(ack);
    }

    if (type == "heartbeat") {
      HeartbeatMsg hb = decode(heartbeat_from_json);
      manager_.renew_leases(session.holder,
                            transport_.now_s() + config_.lease_s);
      store_worker_metrics(session, hb.metrics);
      AckMsg ack;
      fill_updates(session, ack.cancelled, ack.dead);
      return encode(ack);
    }

    if (type == "bye") {
      ByeMsg bye = decode(bye_from_json);
      manager_.revoke_leases(session.holder);
      session.live_leases.clear();
      store_worker_metrics(session, bye.metrics);
      return encode(AckMsg{});
    }

    if (type == "submit") {
      const SubmitMsg submit = decode(submit_from_json);
      AckMsg ack;
      // Idempotent by name: the documented flow starts the coordinator
      // with --batch and points `gks-jobs --connect` at the *same*
      // batch file to watch/drive it, so a name the coordinator
      // already knows — live or finished — attaches to that job
      // instead of failing the client or silently rerunning a done
      // sweep. (The journal has the same precedent: duplicate job
      // records keep the first occurrence. Rerunning needs a fresh
      // name.) find_or_submit does the lookup and insert under one
      // JobManager lock, so two clients racing the same name both get
      // the same id instead of the loser drawing a duplicate-name nack.
      ack.id = manager_.find_or_submit(submit.spec);
      return encode(ack);
    }

    if (type == "cancel") {
      const CancelMsg cancel = decode(cancel_from_json);
      const auto id = manager_.find_job(cancel.job);
      GKS_REQUIRE(id.has_value(), "unknown job: " + cancel.job);
      manager_.cancel(*id);
      return encode(AckMsg{});
    }

    if (type == "targets") {
      const TargetsMsg targets = decode(targets_from_json);
      const auto id = manager_.find_job(targets.job);
      GKS_REQUIRE(id.has_value(), "unknown job: " + targets.job);
      if (!targets.add.empty()) manager_.add_targets(*id, targets.add);
      if (!targets.remove.empty()) {
        manager_.remove_targets(*id, targets.remove);
      }
      return encode(AckMsg{});
    }

    if (type == "status") {
      const StatusMsg status = decode(status_from_json);
      StatusRespMsg resp;
      if (status.job.empty()) {
        resp.jobs = manager_.snapshot_all();
      } else {
        const auto id = manager_.find_job(status.job);
        GKS_REQUIRE(id.has_value(), "unknown job: " + status.job);
        resp.jobs.push_back(manager_.status(*id));
      }
      resp.workers = worker_health();
      return encode(resp);
    }

    if (type == "metrics") {
      return encode(cluster_metrics());
    }

    {
      std::lock_guard lock(mu_);
      ++stats_.protocol_errors;
      cmetrics().protocol_errors.add(1);
      strike_locked(worker_name_of(session.holder), kStrikeProtocol,
                    &WorkerHealth::protocol_errors);
    }
    return encode(ErrorMsg{"unknown message type: " + type});
  } catch (const Error& e) {
    AckMsg nack;
    nack.ok = false;
    nack.error = e.what();
    return encode(nack);
  }
}

void Coordinator::serve_session(std::shared_ptr<Session> session) {
  Connection& conn = *session->conn;
  try {
    for (;;) {
      const auto body = conn.recv(config_.session_timeout_s);
      if (!body.has_value()) {
        // Silent too long — presumed dead. The silence is itself a
        // health signal: a worker that keeps vanishing mid-session
        // drifts toward quarantine even if its leases are small.
        if (session->hello_done) {
          std::lock_guard lock(mu_);
          strike_locked(worker_name_of(session->holder),
                        kStrikeSilence,
                        &WorkerHealth::missed_heartbeats);
        }
        break;
      }
      const std::optional<std::string> reply = respond(*session, *body);
      if (reply.has_value()) conn.send(*reply);
      if (!session->hello_done) break;  // pre-hello protocol error
    }
  } catch (const TransportError&) {
    // Closed, reset, or corrupt stream — all the same teardown.
  }
  if (!session->holder.empty()) manager_.revoke_leases(session->holder);
  conn.close();
  std::lock_guard lock(mu_);
  ++stats_.sessions_closed;
  sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), session),
                  sessions_.end());
}

}  // namespace gks::dist
