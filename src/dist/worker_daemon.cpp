#include "dist/worker_daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/crc32.h"
#include "support/error.h"

namespace gks::dist {

namespace {

/// Ask for leases worth roughly this many seconds at the measured scan
/// rate (the coordinator clamps the ask).
constexpr double kLeaseTargetS = 1.0;
/// Target wall time of one scan chunk — the worker's heartbeat
/// opportunity cadence; must sit well under the coordinator's lease
/// lifetime. Chunks clamp to [kMinChunk, kMaxChunk] candidates.
constexpr double kChunkSliceS = 0.1;
constexpr u128 kMinChunk{4096};
constexpr u128 kMaxChunk{u128(1) << 22};
constexpr double kConnectTimeoutS = 5.0;

/// Worker-side telemetry. The rtt histogram times every roundtrip()
/// (lease requests, found reports, heartbeats, retires alike) from its
/// first send to its reply, retransmits included, in transport seconds
/// — the protocol cost the benchmark's dist rungs decompose; lease_s is the whole
/// grant→retire wall from the worker's side, chunk_s one scan slice.
struct WorkerMetrics {
  obs::Counter& leases_completed =
      obs::Registry::global().counter("gks_worker_leases_completed_total");
  obs::Counter& leases_abandoned =
      obs::Registry::global().counter("gks_worker_leases_abandoned_total");
  obs::Counter& found_reported =
      obs::Registry::global().counter("gks_worker_found_reported_total");
  obs::Counter& reconnects =
      obs::Registry::global().counter("gks_worker_reconnects_total");
  obs::Counter& retransmits =
      obs::Registry::global().counter("gks_worker_retransmits_total");
  obs::Counter& backoffs =
      obs::Registry::global().counter("gks_worker_backoffs_total");
  obs::Counter& hellos =
      obs::Registry::global().counter("gks_worker_hellos_total");
  /// Cumulative scan rate (keys_scanned / busy_s) — the same estimate
  /// chunk and lease sizing run on, exported for gks-top.
  obs::Gauge& keys_per_s =
      obs::Registry::global().gauge("gks_worker_keys_per_s");
  obs::Histogram& rtt_s =
      obs::Registry::global().histogram("gks_worker_rtt_seconds");
  obs::Histogram& lease_s =
      obs::Registry::global().histogram("gks_worker_lease_seconds");
  obs::Histogram& chunk_s =
      obs::Registry::global().histogram("gks_worker_chunk_seconds");
};

WorkerMetrics& wmetrics() {
  static WorkerMetrics* m = new WorkerMetrics;
  return *m;
}

/// The snapshot a worker piggybacks on heartbeat/retire: the whole
/// process registry, so coordinator-side merges see sweep and kernel
/// counters too, not just the daemon's own.
std::optional<obs::RegistrySnapshot> piggyback_snapshot() {
  if (!obs::enabled()) return std::nullopt;
  return obs::Registry::global().snapshot();
}

/// Re-throws a malformed coordinator reply as ProtocolError (a
/// TransportError) so the reconnect loop absorbs it — under fault
/// injection a corrupted frame must cost a reconnect, not the process.
template <typename Fn>
auto decode_reply(Fn&& fn) {
  try {
    return fn();
  } catch (const TransportError&) {
    throw;
  } catch (const Error& e) {
    throw ProtocolError(std::string("malformed coordinator reply: ") +
                        e.what());
  }
}

}  // namespace

double backoff_delay(int attempt, const WorkerConfig& config,
                     SplitMix64& rng) {
  double base = config.reconnect_backoff_s;
  for (int i = 0; i < attempt && base < config.reconnect_backoff_max_s; ++i) {
    base *= 2;
  }
  base = std::min(base, config.reconnect_backoff_max_s);
  return base * (0.5 + rng.uniform01());
}

RetransmitTimer::RetransmitTimer(double ceiling_s)
    : ceiling_(ceiling_s), rto_(std::min(1.0, ceiling_s)) {}

void RetransmitTimer::sample(double rtt_s) {
  if (srtt_ < 0) {
    srtt_ = rtt_s;
    rttvar_ = rtt_s / 2;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt_s);
    srtt_ = 0.875 * srtt_ + 0.125 * rtt_s;
  }
  rto_ = std::min(std::max(srtt_ + 4 * rttvar_, kMinRtoS), ceiling_);
}

void RetransmitTimer::back_off() { rto_ = std::min(2 * rto_, ceiling_); }

WorkerDaemon::WorkerDaemon(Transport& transport, WorkerConfig config)
    : transport_(transport),
      config_(std::move(config)),
      rng_(config_.backoff_seed != 0
               ? config_.backoff_seed
               : 0x9e3779b97f4a7c15ULL ^ crc32(config_.name)),
      rto_(config_.recv_timeout_s) {
  GKS_REQUIRE(config_.threads > 0, "worker needs at least one scan thread");
  GKS_REQUIRE(config_.recv_timeout_s > 0, "recv timeout must be positive");
  GKS_REQUIRE(config_.reconnect_backoff_s > 0,
              "reconnect backoff must be positive");
  GKS_REQUIRE(config_.reconnect_backoff_s <= config_.reconnect_backoff_max_s,
              "reconnect backoff above its cap");
}

void WorkerDaemon::stop() {
  stop_.store(true, std::memory_order_release);
  interrupt_.store(true, std::memory_order_release);
}

WorkerDaemon::Stats WorkerDaemon::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

u128 WorkerDaemon::chunk_size() const {
  u128 scanned{0};
  {
    std::lock_guard lock(stats_mu_);
    scanned = stats_.keys_scanned;
  }
  const double rate = busy_s_ > 0 ? scanned.to_double() / busy_s_ : 0;
  if (rate <= 0) return kMinChunk;
  const double target = rate * kChunkSliceS;
  if (target <= kMinChunk.to_double()) return kMinChunk;
  if (target >= kMaxChunk.to_double()) return kMaxChunk;
  return u128(static_cast<std::uint64_t>(target));
}

u128 WorkerDaemon::lease_ask() const {
  // Leases worth ~kLeaseTargetS of work: small enough that a crashed
  // worker forfeits little, large enough that the request round-trip
  // amortizes. Before the first rate estimate, ask for 0 and let the
  // coordinator pick.
  u128 scanned{0};
  {
    std::lock_guard lock(stats_mu_);
    scanned = stats_.keys_scanned;
  }
  const double rate = busy_s_ > 0 ? scanned.to_double() / busy_s_ : 0;
  if (rate <= 0) return u128(0);
  const double target = rate * kLeaseTargetS;
  if (target < 1) return u128(1);
  return u128(static_cast<std::uint64_t>(target));
}

void WorkerDaemon::apply_dead(const std::vector<FoundUpdate>& dead) {
  for (const FoundUpdate& f : dead) {
    const auto it = sweepers_.find(f.job);
    if (it == sweepers_.end()) continue;
    // A broadcast about an older job instance that shared this name
    // must not kill the target in the current one.
    if (it->second.job_id != f.job_id) continue;
    try {
      it->second.sweeper->mark_found_hex(f.digest, f.key);
    } catch (const Error&) {
      // A digest this sweeper never had (target removed before the
      // spec reached us) — nothing to stop scanning for.
    }
  }
}

bool WorkerDaemon::apply_ack(const AckMsg& ack, std::uint64_t lease_id) {
  apply_dead(ack.dead);
  if (lease_id == 0) return true;
  return std::find(ack.cancelled.begin(), ack.cancelled.end(), lease_id) ==
         ack.cancelled.end();
}

json::Value WorkerDaemon::roundtrip(Connection& conn,
                                    const std::string& body) {
  const std::uint64_t rid = ++rid_;
  const std::string request = stamp_rid(body, rid);
  const double first_sent = transport_.now_s();
  const double give_up = first_sent + config_.recv_timeout_s;
  double sent = first_sent;
  bool retransmitted = false;
  conn.send(request);
  for (;;) {
    const double now = transport_.now_s();
    if (now >= give_up) {
      throw ConnectionClosed("coordinator silent past recv timeout");
    }
    const auto reply =
        conn.recv(std::max(0.0, std::min(sent + rto_.rto_s(), give_up) - now));
    if (!reply.has_value()) {
      if (transport_.now_s() >= give_up) continue;  // the loop head throws
      // The request or its reply was lost: send the same bytes again.
      // The coordinator answers a repeat of its last rid from its reply
      // cache, so nothing is applied twice.
      rto_.back_off();
      retransmitted = true;
      wmetrics().retransmits.add(1);
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.retransmits;
      }
      sent = transport_.now_s();
      conn.send(request);
      continue;
    }
    std::uint64_t reply_rid = 0;
    json::Value v = decode_reply([&] {
      json::Value parsed = json::parse(*reply);
      message_type(parsed);  // every reply must carry a type
      reply_rid = request_id(parsed);
      return parsed;
    });
    // A reply to an earlier request (a duplicated frame, or the second
    // answer to a request that was retransmitted) is stale. A reply
    // without an id answers a request the coordinator could not parse.
    if (reply_rid != 0 && reply_rid != rid) continue;
    const double rtt_s = transport_.now_s() - first_sent;
    // Karn's rule: after a retransmit the reply could answer any copy.
    if (!retransmitted) rto_.sample(rtt_s);
    wmetrics().rtt_s.observe(rtt_s);
    return v;
  }
}

u128 WorkerDaemon::scan_chunk(core::MultiSweeper& sweeper,
                              const keyspace::Interval& iv,
                              std::vector<core::SweepHit>& hits) {
  const std::size_t parts =
      static_cast<std::size_t>(std::min<u128>(u128(config_.threads),
                                              iv.size()).to_u64());
  if (parts <= 1) {
    return sweeper.scan(iv, hits, &interrupt_);
  }

  // Split the chunk into equal parts, one thread each. The retired
  // count must be a contiguous prefix of the chunk, so a short part
  // (interrupt, generation handoff) truncates the accounting at its
  // end — later parts' work is re-scanned after re-dispatch, which the
  // recovery dedup absorbs. Hits are kept regardless: a key is never
  // thrown away just because its part fell past the prefix.
  const u128 per = iv.size() / u128(static_cast<std::uint64_t>(parts));
  std::vector<keyspace::Interval> slices;
  u128 at = iv.begin;
  for (std::size_t i = 0; i < parts; ++i) {
    const u128 end = i + 1 == parts ? iv.end : at + per;
    slices.emplace_back(at, end);
    at = end;
  }
  std::vector<u128> tested(parts, u128(0));
  std::vector<std::vector<core::SweepHit>> part_hits(parts);
  std::vector<std::thread> threads;
  threads.reserve(parts);
  for (std::size_t i = 0; i < parts; ++i) {
    threads.emplace_back([&, i] {
      tested[i] = sweeper.scan(slices[i], part_hits[i], &interrupt_);
    });
  }
  for (std::thread& t : threads) t.join();

  u128 prefix{0};
  bool contiguous = true;
  for (std::size_t i = 0; i < parts; ++i) {
    if (contiguous) {
      prefix += tested[i];
      if (tested[i] < slices[i].size()) contiguous = false;
    }
    hits.insert(hits.end(), part_hits[i].begin(), part_hits[i].end());
  }
  return prefix;
}

bool WorkerDaemon::run_lease(Connection& conn, const LeaseGrantWire& grant) {
  auto it = sweepers_.find(grant.job_name);
  if (it != sweepers_.end() && (it->second.job_id != grant.job ||
                                it->second.target_gen != grant.target_gen)) {
    // Either a different job instance under the same name (the old one
    // went terminal and the name was resubmitted — the stale sweeper's
    // found-marks belong to the dead instance) or the same job with a
    // mutated target set (add/remove bumped the generation — scanning
    // with the old set would retire intervals that never looked for
    // the new digests). The coordinator re-sends the spec in both
    // cases: drop the cache and rebuild from it below.
    sweepers_.erase(it);
    it = sweepers_.end();
  }
  if (it == sweepers_.end()) {
    GKS_REQUIRE(grant.has_spec,
                "lease for a job this session has no spec for: " +
                    grant.job_name);
    auto sweeper = std::make_unique<core::MultiSweeper>(grant.spec.request);
    for (const auto& [digest, key] : grant.spec_found) {
      sweeper->mark_found_hex(digest, key);
    }
    it = sweepers_
             .emplace(grant.job_name,
                      JobCache{grant.job, grant.target_gen,
                               std::move(sweeper)})
             .first;
  }
  core::MultiSweeper& sweeper = *it->second.sweeper;
  apply_dead(grant.dead);

  obs::Span lease_span("dist.lease");
  lease_span.note(grant.job_name);
  // The lease histogram is fed explicitly before the retire roundtrip
  // (not by the span destructor) so the snapshot piggybacked on that
  // retire already contains this lease's own duration.
  const auto lease_start = std::chrono::steady_clock::now();
  const auto lease_elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         lease_start)
        .count();
  };
  const keyspace::Interval lease_iv(grant.begin, grant.end);
  u128 done{0};
  double lease_busy = 0;  ///< scan seconds in this lease; retire reports it
  double last_heartbeat = transport_.now_s();
  bool lease_lost = false;

  while (done < lease_iv.size()) {
    if (stop_.load(std::memory_order_acquire)) break;
    if (sweeper.all_found()) break;  // nothing left to look for
    const u128 remaining = lease_iv.size() - done;
    const u128 take = std::min(chunk_size(), remaining);
    const keyspace::Interval chunk(lease_iv.begin + done,
                                   lease_iv.begin + done + take);

    std::vector<core::SweepHit> hits;
    const auto start = std::chrono::steady_clock::now();
    const u128 tested = scan_chunk(sweeper, chunk, hits);
    const double scan_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Report recoveries the moment they exist: a worker that dies one
    // microsecond from now has already made its keys durable on the
    // coordinator. Duplicates (another holder beat us to the digest)
    // come back as dedup no-ops.
    for (const core::SweepHit& hit : hits) {
      const auto slots = sweeper.mark_found(hit.unique_index, hit.key);
      if (slots.empty()) continue;  // duplicate of an applied update
      FoundMsg msg;
      msg.lease_id = grant.lease_id;
      msg.digest = sweeper.slot_hex(slots.front());
      msg.key = hit.key;
      const json::Value reply = roundtrip(conn, encode(msg));
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.found_reported;
      }
      wmetrics().found_reported.add(1);
      // The sweeper already counts this digest as found, so a report
      // the coordinator did not apply (a garbled frame drew an error
      // or failed verification, or the lease died under us) must not
      // let an interval containing the key retire as covered. Dropping
      // the session clears the sweeper cache and has the coordinator
      // reclaim the lease, so the interval is rescanned with the
      // target live.
      if (message_type(reply) != "ack") {
        throw ProtocolError("found report drew a non-ack reply");
      }
      const AckMsg ack = decode_reply([&] { return ack_from_json(reply); });
      if (!ack.ok) {
        throw ProtocolError("found report not applied: " + ack.error);
      }
      if (!apply_ack(ack, grant.lease_id)) lease_lost = true;
    }

    done += tested;
    u128 scanned_total{0};
    {
      std::lock_guard lock(stats_mu_);
      stats_.keys_scanned += tested;
      scanned_total = stats_.keys_scanned;
    }
    busy_s_ += scan_s;
    lease_busy += scan_s;
    if (obs::enabled()) {
      wmetrics().chunk_s.observe(scan_s);
      if (busy_s_ > 0) {
        wmetrics().keys_per_s.set(scanned_total.to_double() / busy_s_);
      }
    }
    if (lease_lost) break;
    // A short scan without an interrupt is a generation handoff (the
    // target set changed mid-chunk): rescan the remainder against the
    // current targets by simply continuing from `done`.

    const double now = transport_.now_s();
    if (now - last_heartbeat >= config_.heartbeat_interval_s) {
      HeartbeatMsg hb;
      hb.metrics = piggyback_snapshot();
      const json::Value reply = roundtrip(conn, encode(hb));
      last_heartbeat = now;
      if (message_type(reply) == "ack" &&
          !apply_ack(decode_reply([&] { return ack_from_json(reply); }),
                     grant.lease_id)) {
        lease_lost = true;
        break;
      }
    }
  }

  if (lease_lost) {
    lease_span.note("abandoned");
    wmetrics().lease_s.observe(lease_elapsed());
    wmetrics().leases_abandoned.add(1);
    std::lock_guard lock(stats_mu_);
    ++stats_.leases_abandoned;
    return true;
  }

  wmetrics().lease_s.observe(lease_elapsed());
  RetireMsg retire;
  retire.lease_id = grant.lease_id;
  retire.tested = done;
  retire.busy_s = lease_busy;
  retire.metrics = piggyback_snapshot();
  const json::Value reply = roundtrip(conn, encode(retire));
  // A retire that drew anything but an ack (a garbled frame draws an
  // error) left the lease live, and this session's heartbeats would
  // renew it forever. Dropping the session has the coordinator revoke
  // the lease and re-dispatch its interval.
  if (message_type(reply) != "ack") {
    throw ProtocolError("retire drew a non-ack reply");
  }
  const AckMsg ack = decode_reply([&] { return ack_from_json(reply); });
  apply_ack(ack, 0);
  if (ack.ok) {
    wmetrics().leases_completed.add(1);
  } else {
    lease_span.note("expired");
    wmetrics().leases_abandoned.add(1);
  }
  std::lock_guard lock(stats_mu_);
  if (ack.ok) {
    ++stats_.leases_completed;
  } else {
    ++stats_.leases_abandoned;  // expired before we got back
  }
  return true;
}

bool WorkerDaemon::serve_session(Connection& conn) {
  HelloMsg hello;
  hello.name = config_.name;
  hello.threads = static_cast<int>(config_.threads);
  rid_ = 0;  // request ids restart with each session
  const json::Value welcome_v = roundtrip(conn, encode(hello));
  if (message_type(welcome_v) != "welcome") {
    // Rejected (version mismatch, ejected, …): a transport-class error
    // so run() backs off and retries — by the time the backoff runs
    // out, an ejection's probation may have passed.
    throw ProtocolError("coordinator rejected hello: " +
                        welcome_v.string_or("error", "unexpected reply"));
  }
  const WelcomeMsg welcome =
      decode_reply([&] { return welcome_from_json(welcome_v); });
  hello_ok_ = true;
  wmetrics().hellos.add(1);
  config_.heartbeat_interval_s = welcome.heartbeat_s > 0
                                     ? welcome.heartbeat_s
                                     : config_.heartbeat_interval_s;

  double last_idle_heartbeat = transport_.now_s();
  while (!stop_.load(std::memory_order_acquire)) {
    LeaseRequestMsg req;
    req.max_ids = lease_ask();
    const json::Value reply = roundtrip(conn, encode(req));
    const std::string type = message_type(reply);
    if (type == "lease") {
      const LeaseGrantWire grant =
          decode_reply([&] { return lease_grant_from_json(reply); });
      if (!run_lease(conn, grant)) return false;
      last_idle_heartbeat = transport_.now_s();
    } else if (type == "idle") {
      const IdleMsg idle =
          decode_reply([&] { return idle_from_json(reply); });
      apply_dead(idle.dead);
      // Sleep in short slices so stop() stays prompt.
      double left = idle.retry_s;
      while (left > 0 && !stop_.load(std::memory_order_acquire)) {
        const double nap = std::min(left, 0.05);
        transport_.sleep_s(nap);
        left -= nap;
      }
      // An idle worker holds no leases, but heartbeats anyway at the
      // usual cadence so its telemetry keeps reaching the coordinator
      // — without this, a worker that never wins a lease is invisible
      // to gks-top.
      const double now = transport_.now_s();
      if (now - last_idle_heartbeat >= config_.heartbeat_interval_s) {
        HeartbeatMsg hb;
        hb.metrics = piggyback_snapshot();
        const json::Value hb_reply = roundtrip(conn, encode(hb));
        last_idle_heartbeat = now;
        if (message_type(hb_reply) == "ack") {
          apply_ack(decode_reply([&] { return ack_from_json(hb_reply); }), 0);
        }
      }
    } else if (type == "error") {
      throw ProtocolError("coordinator error: " +
                          reply.string_or("error", "unspecified"));
    } else {
      throw ProtocolError("unexpected coordinator reply: " + type);
    }
  }

  // Orderly exit: revoke our leases instead of making the coordinator
  // wait out the deadlines.
  try {
    // The final snapshot rides the bye: the last retire's piggyback
    // predates its own ack, so counters bumped by that ack
    // (leases_completed) would otherwise never reach the coordinator.
    ByeMsg bye;
    bye.metrics = piggyback_snapshot();
    roundtrip(conn, encode(bye));
  } catch (const TransportError&) {
    // The coordinator may already be gone; leases expire either way.
  }
  return true;
}

bool WorkerDaemon::run(const std::string& coordinator_addr) {
  int attempts_left = config_.reconnect_attempts;
  int attempt = 0;  ///< consecutive failures since the last accepted hello

  // Sleep out one backoff step in short slices so stop() stays prompt.
  const auto back_off = [&] {
    wmetrics().backoffs.add(1);
    double left = backoff_delay(attempt++, config_, rng_);
    while (left > 0 && !stop_.load(std::memory_order_acquire)) {
      const double nap = std::min(left, 0.05);
      transport_.sleep_s(nap);
      left -= nap;
    }
  };

  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return true;
    std::unique_ptr<Connection> conn;
    try {
      conn = transport_.connect(coordinator_addr, kConnectTimeoutS);
    } catch (const TransportError&) {
      if (attempts_left-- <= 0) return false;
      back_off();
      continue;
    }
    // Deliberately no reset here: a coordinator that accepts TCP but
    // rejects every hello (ejection, version skew) must not see an
    // eager reconnect loop. Only an accepted hello below resets.

    hello_ok_ = false;
    bool orderly = false;
    try {
      orderly = serve_session(*conn);
    } catch (const TransportError&) {
      // Dropped mid-session (silent past recv_timeout_s, reset, or a
      // reply it could not use): abandon in-flight state (the
      // coordinator reclaims our leases) and reconnect with a fresh
      // hello.
      sweepers_.clear();  // next session gets specs again
      wmetrics().reconnects.add(1);
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.reconnects;
      }
      conn->close();
      if (hello_ok_) {
        // The session was genuinely established before it died — a
        // fresh failure run starts now, with a fresh budget.
        attempts_left = config_.reconnect_attempts;
        attempt = 0;
      }
      if (attempts_left-- <= 0) return false;
      back_off();
      continue;
    }
    conn->close();
    if (orderly) return true;
  }
}

}  // namespace gks::dist
