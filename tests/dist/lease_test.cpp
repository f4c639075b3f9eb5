#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/tcp_transport.h"
#include "hash/md5.h"
#include "service/job_manager.h"

namespace gks::service {
namespace {

// Every test drives the manager as a pure coordinator: no local scan
// threads, the keyspace is consumed exclusively through the lease
// API, and "time" is whatever doubles the test passes in.

JobSpec md5_job(const std::string& name, const std::string& key,
                unsigned max_length = 3) {
  JobSpec spec;
  spec.name = name;
  spec.request.algorithm = hash::Algorithm::kMd5;
  spec.request.target_hexes = {hash::Md5::digest(key).to_hex()};
  spec.request.charset = keyspace::Charset::lower();
  spec.request.min_length = 1;
  spec.request.max_length = max_length;
  return spec;
}

TEST(Lease, GrantRespectsMaxIdsAndChargesTheJob) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId id = m.submit(md5_job("a", "dog"));
  const auto grant = m.lease("w#1", u128(100), /*deadline=*/10.0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->job, id);
  EXPECT_EQ(grant->job_name, "a");
  EXPECT_LE(grant->interval.size(), u128(100));
  EXPECT_GT(grant->interval.size(), u128(0));
  EXPECT_TRUE(m.lease_live(grant->lease_id));
  EXPECT_EQ(m.lease_count(), 1u);
  EXPECT_EQ(m.status(id).state, JobState::kRunning);
}

TEST(Lease, NothingRunnableYieldsNullopt) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  EXPECT_FALSE(m.lease("w#1", u128(100), 10.0).has_value());
}

TEST(Lease, LeaseRetireLoopRunsJobToDone) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId id = m.submit(md5_job("a", "abc"));
  const std::string digest = hash::Md5::digest("abc").to_hex();

  // A perfect worker: retire each lease fully; report the planted key
  // when its interval covers it (we cheat and report it during the
  // first lease — the manager only checks the digest, not the
  // position).
  bool reported = false;
  std::size_t rounds = 0;
  while (auto grant = m.lease("w#1", u128(1) << 16, 10.0)) {
    if (!reported) {
      EXPECT_EQ(m.report_found(grant->lease_id, digest, "abc"),
                FoundOutcome::kApplied);
      reported = true;
    }
    EXPECT_TRUE(
        m.retire_lease(grant->lease_id, grant->interval.size(), 0.01));
    ASSERT_LT(++rounds, 10000u);
  }
  ASSERT_TRUE(m.wait(id, 5.0));
  const JobSnapshot s = m.status(id);
  EXPECT_EQ(s.state, JobState::kDone);
  EXPECT_EQ(s.targets_found, 1u);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, "abc");
}

TEST(Lease, ExpiryReturnsIntervalForRedispatch) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId id = m.submit(md5_job("a", "dog"));
  const auto first = m.lease("w#1", u128(1000), /*deadline=*/1.0);
  ASSERT_TRUE(first.has_value());

  EXPECT_EQ(m.expire_leases(/*now=*/0.5), 0u);  // not yet
  EXPECT_EQ(m.expire_leases(/*now=*/2.0), 1u);
  EXPECT_FALSE(m.lease_live(first->lease_id));
  EXPECT_EQ(m.status(id).leases_expired, 1u);

  // The reclaimed ids are the very next thing dispatched.
  const auto second = m.lease("w#2", u128(1000), 10.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->interval.begin, first->interval.begin);
}

TEST(Lease, LateRetireIsRejectedHarmlessly) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId id = m.submit(md5_job("a", "dog"));
  const auto grant = m.lease("w#1", u128(1000), 1.0);
  ASSERT_TRUE(grant.has_value());
  ASSERT_EQ(m.expire_leases(2.0), 1u);

  const u128 before = m.status(id).scanned;
  EXPECT_FALSE(m.retire_lease(grant->lease_id, grant->interval.size(), 0.01));
  EXPECT_EQ(m.status(id).scanned, before);  // no coverage from the dead
  EXPECT_FALSE(m.retire_lease(9999, u128(1)));  // unknown id, same answer
}

TEST(Lease, HeartbeatRenewalNeverMovesDeadlinesBackwards) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  m.submit(md5_job("a", "dog"));
  const auto grant = m.lease("w#1", u128(1000), /*deadline=*/5.0);
  ASSERT_TRUE(grant.has_value());

  EXPECT_EQ(m.renew_leases("w#1", /*deadline=*/3.0), 1u);  // counted...
  EXPECT_EQ(m.expire_leases(4.0), 0u);  // ...but the deadline held at 5

  EXPECT_EQ(m.renew_leases("w#1", 10.0), 1u);
  EXPECT_EQ(m.expire_leases(6.0), 0u);
  EXPECT_EQ(m.expire_leases(11.0), 1u);
  EXPECT_EQ(m.renew_leases("w#1", 20.0), 0u);  // nothing left to renew
}

TEST(Lease, RevokeReclaimsEveryLeaseOfTheHolder) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  m.submit(md5_job("a", "dog"));
  const auto g1 = m.lease("w#1", u128(100), 10.0);
  const auto g2 = m.lease("w#1", u128(100), 10.0);
  const auto g3 = m.lease("w#2", u128(100), 10.0);
  ASSERT_TRUE(g1 && g2 && g3);

  EXPECT_EQ(m.revoke_leases("w#1"), 2u);
  EXPECT_FALSE(m.lease_live(g1->lease_id));
  EXPECT_FALSE(m.lease_live(g2->lease_id));
  EXPECT_TRUE(m.lease_live(g3->lease_id));
  EXPECT_EQ(m.lease_count(), 1u);
}

TEST(Lease, ReportFoundIsExactlyOnceAcrossLeases) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId id = m.submit(md5_job("a", "abc", /*max_length=*/4));
  const std::string digest = hash::Md5::digest("abc").to_hex();
  const auto g1 = m.lease("w#1", u128(100), 10.0);
  const auto g2 = m.lease("w#2", u128(100), 10.0);
  ASSERT_TRUE(g1 && g2);

  EXPECT_EQ(m.report_found(g1->lease_id, digest, "abc"),
            FoundOutcome::kApplied);
  EXPECT_EQ(m.report_found(g2->lease_id, digest, "abc"),
            FoundOutcome::kDuplicate);  // live, but dup
  const JobSnapshot s = m.status(id);
  EXPECT_EQ(s.targets_found, 1u);  // the witness: counted once
  EXPECT_EQ(s.found.size(), 1u);

  m.expire_leases(20.0);
  EXPECT_EQ(m.report_found(g1->lease_id, digest, "abc"),
            FoundOutcome::kNoLease);  // dead lease
}

TEST(Lease, ForgedFoundNeverReachesTheJournalOrTheCount) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId id = m.submit(md5_job("a", "abc"));
  const std::string digest = hash::Md5::digest("abc").to_hex();
  const auto grant = m.lease("w#1", u128(100), 10.0);
  ASSERT_TRUE(grant.has_value());

  // A real target digest with a fabricated preimage: the manager must
  // recompute H("xyz"), see the mismatch, and refuse — this is the
  // report a buggy or malicious worker would use to poison results.
  EXPECT_EQ(m.report_found(grant->lease_id, digest, "xyz"),
            FoundOutcome::kForged);
  EXPECT_EQ(m.report_found(grant->lease_id, "zzzz-not-hex", "abc"),
            FoundOutcome::kForged);
  EXPECT_EQ(m.status(id).targets_found, 0u);
  EXPECT_TRUE(m.status(id).found.empty());
  ASSERT_TRUE(m.retire_lease(grant->lease_id, grant->interval.size(), 0.01));

  // The honest report still lands.
  const auto g2 = m.lease("w#1", u128(100), 10.0);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(m.report_found(g2->lease_id, digest, "abc"),
            FoundOutcome::kApplied);
  EXPECT_EQ(m.status(id).targets_found, 1u);
}

TEST(Lease, CancelReclaimsOutstandingLeases) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId id = m.submit(md5_job("a", "dog"));
  const auto grant = m.lease("w#1", u128(1000), 10.0);
  ASSERT_TRUE(grant.has_value());

  m.cancel(id);
  ASSERT_TRUE(m.wait(id, 5.0));
  EXPECT_EQ(m.status(id).state, JobState::kCancelled);
  EXPECT_FALSE(m.lease_live(grant->lease_id));
  EXPECT_EQ(m.status(id).leases_expired, 0u);  // reclaimed, not expired
  EXPECT_FALSE(m.lease("w#1", u128(1000), 10.0).has_value());
}

TEST(Lease, AddTargetsBumpsGenerationAndReclaimsLiveLeases) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId id = m.submit(md5_job("a", "dog"));

  const auto g1 = m.lease("w#1", u128(1000), 10.0);
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->target_gen, 0u);

  // The holder of g1 is scanning with the old target set; retiring its
  // interval as covered would skip "cat" forever. The add must pull
  // the lease back so the interval re-dispatches under the new
  // generation.
  const auto out = m.add_targets(id, {hash::Md5::digest("cat").to_hex()});
  EXPECT_EQ(out.attached, 1u);
  EXPECT_FALSE(m.lease_live(g1->lease_id));
  EXPECT_EQ(m.status(id).leases_expired, 0u);  // reclaimed, not expired

  const auto g2 = m.lease("w#1", u128(1000), 10.0);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->target_gen, 1u);
  EXPECT_EQ(g2->interval.begin, g1->interval.begin);  // same ids, rescanned

  // An add that attaches nothing (digest already present) leaves the
  // generation and the live lease alone.
  const auto dup = m.add_targets(id, {hash::Md5::digest("cat").to_hex()});
  EXPECT_EQ(dup.attached, 0u);
  EXPECT_TRUE(m.lease_live(g2->lease_id));
  ASSERT_TRUE(m.retire_lease(g2->lease_id, g2->interval.size()));
  const auto g3 = m.lease("w#1", u128(1000), 10.0);
  ASSERT_TRUE(g3.has_value());
  EXPECT_EQ(g3->target_gen, 1u);
}

TEST(Lease, RemoveTargetsBumpsGenerationWithoutReclaim) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  JobSpec spec = md5_job("a", "dog");
  spec.request.target_hexes.push_back(hash::Md5::digest("cat").to_hex());
  const JobId id = m.submit(spec);

  const auto g1 = m.lease("w#1", u128(1000), 10.0);
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(m.remove_targets(id, {hash::Md5::digest("cat").to_hex()}), 1u);
  // Scanning on with a digest removed wastes cycles but breaks
  // nothing, so the lease survives; the next grant carries the new
  // generation and triggers a spec re-send.
  EXPECT_TRUE(m.lease_live(g1->lease_id));
  ASSERT_TRUE(m.retire_lease(g1->lease_id, g1->interval.size()));
  const auto g2 = m.lease("w#1", u128(1000), 10.0);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->target_gen, 1u);
}

TEST(Lease, FindOrSubmitIsIdempotentByName) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const JobId first = m.find_or_submit(md5_job("a", "dog"));
  EXPECT_EQ(m.find_or_submit(md5_job("a", "dog")), first);
  EXPECT_NE(m.find_or_submit(md5_job("b", "dog")), first);
  EXPECT_EQ(m.snapshot_all().size(), 2u);

  // Attaches to finished jobs too (the documented remote-submit
  // contract: rerunning a done sweep needs a fresh name).
  m.cancel(first);
  ASSERT_TRUE(m.wait(first, 5.0));
  EXPECT_EQ(m.find_or_submit(md5_job("a", "dog")), first);
}

TEST(Lease, FindOrSubmitSurvivesConcurrentRacers) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  constexpr int kRacers = 8;
  std::vector<JobId> ids(kRacers, 0);
  std::vector<std::thread> threads;
  threads.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    threads.emplace_back(
        [&, i] { ids[i] = m.find_or_submit(md5_job("a", "dog")); });
  }
  for (std::thread& t : threads) t.join();
  for (const JobId id : ids) EXPECT_EQ(id, ids[0]);
  EXPECT_EQ(m.snapshot_all().size(), 1u);
}

TEST(Lease, WireSpecCarriesCurrentTargetsAndRecoveries) {
  JobServiceConfig config;
  config.local_scan = false;
  JobManager m(config);
  const std::string abc = hash::Md5::digest("abc").to_hex();
  const std::string dog = hash::Md5::digest("dog").to_hex();
  JobSpec spec = md5_job("a", "abc");
  spec.request.target_hexes.push_back(dog);
  const JobId id = m.submit(spec);

  const auto grant = m.lease("w#1", u128(100), 10.0);
  ASSERT_TRUE(grant.has_value());
  ASSERT_EQ(m.report_found(grant->lease_id, abc, "abc"),
            FoundOutcome::kApplied);

  std::vector<std::pair<std::string, std::string>> found;
  const JobSpec wire = m.wire_spec(id, &found);
  EXPECT_EQ(wire.request.target_hexes.size(), 2u);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].first, abc);
  EXPECT_EQ(found[0].second, "abc");
}

}  // namespace
}  // namespace gks::service

// ---------------------------------------------------------------------------
// The coordinator's per-session reply cache (protocol.h, "Request ids"),
// driven by a raw protocol client over loopback TCP.

namespace gks::dist {
namespace {

class ReplyCache : public ::testing::Test {
 protected:
  ReplyCache() : coordinator_(manager_, tcp_) {
    job_ = manager_.submit(service::md5_job("a", "dog"));
    coordinator_.start("127.0.0.1:0");
    conn_ = tcp_.connect(coordinator_.address(), 5.0);
  }
  ~ReplyCache() override {
    conn_->close();
    coordinator_.stop();
  }

  /// Sends `body` under `rid` (0: none) and returns the next reply.
  std::string call(const std::string& body, std::uint64_t rid) {
    conn_->send(stamp_rid(body, rid));
    auto reply = conn_->recv(5.0);
    EXPECT_TRUE(reply.has_value());
    return reply.value_or("");
  }

  /// Retires `grant` in full.
  std::string retire(const LeaseGrantWire& grant, std::uint64_t rid) {
    RetireMsg retire;
    retire.lease_id = grant.lease_id;
    retire.tested = grant.end - grant.begin;
    return call(encode(retire), rid);
  }

  WorkerHealthWire health() const {
    for (const WorkerHealthWire& w : coordinator_.worker_health()) {
      if (w.name == "w1") return w;
    }
    ADD_FAILURE() << "no health entry for w1";
    return {};
  }

  /// Asks for the smallest lease, so the job has room for several.
  static std::string lease_req() {
    LeaseRequestMsg m;
    m.max_ids = u128(4096);
    return encode(m);
  }

  static HelloMsg hello() {
    HelloMsg m;
    m.name = "w1";
    return m;
  }

  static service::JobServiceConfig config() {
    service::JobServiceConfig c;
    c.local_scan = false;
    return c;
  }

  service::JobManager manager_{config()};
  TcpTransport tcp_;
  Coordinator coordinator_;
  service::JobId job_ = 0;
  std::unique_ptr<Connection> conn_;
};

TEST_F(ReplyCache, RepeatedRidGetsTheSameBytesAndOneLease) {
  const std::string welcome = call(encode(hello()), 1);
  EXPECT_EQ(call(encode(hello()), 1), welcome);  // one session, one holder
  EXPECT_EQ(request_id(json::parse(welcome)), 1u);

  const std::string lease = call(lease_req(), 2);
  ASSERT_EQ(message_type(json::parse(lease)), "lease");
  EXPECT_EQ(request_id(json::parse(lease)), 2u);
  EXPECT_EQ(call(lease_req(), 2), lease);
  EXPECT_EQ(call(lease_req(), 2), lease);
  EXPECT_EQ(manager_.lease_count(), 1u);
  EXPECT_EQ(coordinator_.stats().leases_granted, 1u);
}

TEST_F(ReplyCache, RepeatedRetireRetiresOnceWithoutALateRetireStrike) {
  call(encode(hello()), 1);
  const LeaseGrantWire grant =
      lease_grant_from_json(json::parse(call(lease_req(), 2)));
  const std::string ack = retire(grant, 3);
  EXPECT_TRUE(ack_from_json(json::parse(ack)).ok);
  EXPECT_EQ(retire(grant, 3), ack);

  EXPECT_EQ(coordinator_.stats().leases_retired, 1u);
  EXPECT_EQ(manager_.status(job_).intervals_retired, 1u);
  EXPECT_EQ(health().late_retires, 0u);
  EXPECT_EQ(health().retires_ok, 1u);
  EXPECT_EQ(health().strikes, 0u);
}

TEST_F(ReplyCache, OlderRidGetsNoReply) {
  call(encode(hello()), 1);
  call(encode(HeartbeatMsg{}), 2);
  conn_->send(stamp_rid(lease_req(), 1));  // stale: dropped
  // The next reply on the wire answers rid 3: rid 1 drew nothing, and
  // granted nothing.
  EXPECT_EQ(request_id(json::parse(call(encode(HeartbeatMsg{}), 3))), 3u);
  EXPECT_FALSE(conn_->recv(0.2).has_value());
  EXPECT_EQ(manager_.lease_count(), 0u);
}

TEST_F(ReplyCache, RequestsWithoutRidAreHandledAsBefore) {
  const std::string welcome = call(encode(hello()), 0);
  EXPECT_EQ(request_id(json::parse(welcome)), 0u);
  EXPECT_EQ(welcome.find("\"rid\""), std::string::npos);

  // Each copy is a new request: two leases, and the second retire of
  // one lease is a late retire.
  const LeaseGrantWire first =
      lease_grant_from_json(json::parse(call(lease_req(), 0)));
  const LeaseGrantWire second =
      lease_grant_from_json(json::parse(call(lease_req(), 0)));
  EXPECT_NE(first.lease_id, second.lease_id);
  EXPECT_EQ(manager_.lease_count(), 2u);

  EXPECT_TRUE(ack_from_json(json::parse(retire(first, 0))).ok);
  EXPECT_FALSE(ack_from_json(json::parse(retire(first, 0))).ok);
  EXPECT_EQ(health().late_retires, 1u);
}

}  // namespace
}  // namespace gks::dist
