#include "dist/protocol.h"

#include <gtest/gtest.h>

#include <string>

#include "hash/md5.h"
#include "support/error.h"
#include "support/json.h"

namespace gks::dist {
namespace {

service::JobSpec sample_spec() {
  service::JobSpec spec;
  spec.name = "wire";
  spec.request.algorithm = hash::Algorithm::kMd5;
  spec.request.target_hexes = {hash::Md5::digest("abc").to_hex(),
                               hash::Md5::digest("dog").to_hex()};
  spec.request.charset = keyspace::Charset::lower();
  spec.request.min_length = 1;
  spec.request.max_length = 4;
  spec.request.salt = {hash::SaltPosition::kSuffix, "pepper"};
  spec.priority = 3;
  spec.weight = 2.0;
  return spec;
}

TEST(Protocol, MessageTypeRequiresTypeField) {
  EXPECT_EQ(message_type(json::parse("{\"type\":\"hello\"}")), "hello");
  EXPECT_THROW(message_type(json::parse("{\"x\":1}")), Error);
}

TEST(Protocol, RequestIdRoundTripsThroughTheStamp) {
  const std::string body = encode(HeartbeatMsg{});
  EXPECT_EQ(stamp_rid(body, 0), body);  // rid 0: no id on the wire
  EXPECT_EQ(request_id(json::parse(body)), 0u);

  const json::Value v = json::parse(stamp_rid(body, 42));
  EXPECT_EQ(message_type(v), "heartbeat");
  EXPECT_EQ(request_id(v), 42u);

  // The stamp leaves every other member of the message intact.
  LeaseGrantWire m;
  m.lease_id = 9;
  m.job_name = "wire";
  m.end = u128(1) << 70;
  m.dead = {{"other", "00ff", "k", 41}};
  const json::Value grant = json::parse(stamp_rid(encode(m), (1ULL << 52) + 1));
  EXPECT_EQ(request_id(grant), (1ULL << 52) + 1);
  const LeaseGrantWire back = lease_grant_from_json(grant);
  EXPECT_EQ(back.lease_id, 9u);
  EXPECT_EQ(back.end, m.end);
  ASSERT_EQ(back.dead.size(), 1u);
  EXPECT_EQ(back.dead[0].job_id, 41u);

  for (const char* bad : {R"({"type":"ack","rid":-1})",
                          R"({"type":"ack","rid":1.5})",
                          R"({"type":"ack","rid":"3"})",
                          R"({"type":"ack","rid":1e300})"}) {
    EXPECT_THROW(request_id(json::parse(bad)), Error) << bad;
  }
}

TEST(Protocol, HelloRoundTrips) {
  HelloMsg m;
  m.name = "worker-7";
  m.threads = 12;
  const json::Value v = json::parse(encode(m));
  EXPECT_EQ(message_type(v), "hello");
  const HelloMsg back = hello_from_json(v);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.name, "worker-7");
  EXPECT_EQ(back.threads, 12);
}

TEST(Protocol, WelcomeRoundTrips) {
  WelcomeMsg m;
  m.lease_s = 3.5;
  m.heartbeat_s = 0.75;
  m.holder = "worker-7#42";
  const WelcomeMsg back = welcome_from_json(json::parse(encode(m)));
  EXPECT_EQ(back.lease_s, 3.5);
  EXPECT_EQ(back.heartbeat_s, 0.75);
  EXPECT_EQ(back.holder, "worker-7#42");
}

TEST(Protocol, LeaseRequestCarriesU128AsDecimalString) {
  LeaseRequestMsg m;
  m.max_ids = (u128(1) << 80) + u128(17);
  const json::Value v = json::parse(encode(m));
  const LeaseRequestMsg back = lease_request_from_json(v);
  EXPECT_EQ(back.max_ids, m.max_ids);
}

TEST(Protocol, LeaseGrantWithSpecRoundTrips) {
  LeaseGrantWire m;
  m.lease_id = 9;
  m.job = 2;
  m.job_name = "wire";
  m.begin = u128(1) << 70;
  m.end = (u128(1) << 70) + u128(1000000);
  m.target_gen = 7;
  m.has_spec = true;
  m.spec = sample_spec();
  m.spec_found = {{hash::Md5::digest("abc").to_hex(), "abc"}};
  m.dead = {{"other", "00ff", "k", 41}};
  const LeaseGrantWire back = lease_grant_from_json(json::parse(encode(m)));
  EXPECT_EQ(back.lease_id, 9u);
  EXPECT_EQ(back.job, 2u);
  EXPECT_EQ(back.job_name, "wire");
  EXPECT_EQ(back.begin, m.begin);
  EXPECT_EQ(back.end, m.end);
  EXPECT_EQ(back.target_gen, 7u);
  ASSERT_TRUE(back.has_spec);
  EXPECT_EQ(back.spec.name, "wire");
  EXPECT_EQ(back.spec.request.target_hexes, m.spec.request.target_hexes);
  EXPECT_EQ(back.spec.request.charset, keyspace::Charset::lower());
  EXPECT_EQ(back.spec.request.salt.salt, "pepper");
  EXPECT_EQ(back.spec.priority, 3);
  EXPECT_EQ(back.spec.weight, 2.0);
  ASSERT_EQ(back.spec_found.size(), 1u);
  EXPECT_EQ(back.spec_found[0].second, "abc");
  ASSERT_EQ(back.dead.size(), 1u);
  EXPECT_EQ(back.dead[0].job, "other");
  EXPECT_EQ(back.dead[0].job_id, 41u);
}

TEST(Protocol, LeaseGrantWithoutSpecOmitsIt) {
  LeaseGrantWire m;
  m.lease_id = 1;
  m.job = 1;
  m.job_name = "wire";
  m.end = u128(10);
  const LeaseGrantWire back = lease_grant_from_json(json::parse(encode(m)));
  EXPECT_FALSE(back.has_spec);
  EXPECT_TRUE(back.spec_found.empty());
  EXPECT_TRUE(back.dead.empty());
}

TEST(Protocol, RetireRoundTripsTestedAndBusy) {
  RetireMsg m;
  m.lease_id = 5;
  m.tested = u128(123456789);
  m.busy_s = 0.25;
  const RetireMsg back = retire_from_json(json::parse(encode(m)));
  EXPECT_EQ(back.lease_id, 5u);
  EXPECT_EQ(back.tested, u128(123456789));
  EXPECT_EQ(back.busy_s, 0.25);
}

TEST(Protocol, AckRoundTripsCancelledAndDead) {
  AckMsg m;
  m.ok = false;
  m.error = "lease expired";
  m.cancelled = {3, 4};
  m.dead = {{"j", "dd", "kk", 6}};
  m.id = 7;
  const AckMsg back = ack_from_json(json::parse(encode(m)));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "lease expired");
  EXPECT_EQ(back.cancelled, (std::vector<std::uint64_t>{3, 4}));
  ASSERT_EQ(back.dead.size(), 1u);
  EXPECT_EQ(back.dead[0].digest, "dd");
  EXPECT_EQ(back.dead[0].job_id, 6u);
  EXPECT_EQ(back.id, 7u);
}

TEST(Protocol, SubmitCancelTargetsStatusRoundTrip) {
  SubmitMsg submit;
  submit.spec = sample_spec();
  const SubmitMsg s = submit_from_json(json::parse(encode(submit)));
  EXPECT_EQ(s.spec.name, "wire");
  EXPECT_EQ(s.spec.request.target_hexes.size(), 2u);

  const CancelMsg c =
      cancel_from_json(json::parse(encode(CancelMsg{"wire"})));
  EXPECT_EQ(c.job, "wire");

  TargetsMsg t;
  t.job = "wire";
  t.add = {"0011"};
  t.remove = {"2233", "4455"};
  const TargetsMsg tb = targets_from_json(json::parse(encode(t)));
  EXPECT_EQ(tb.job, "wire");
  EXPECT_EQ(tb.add, (std::vector<std::string>{"0011"}));
  EXPECT_EQ(tb.remove, (std::vector<std::string>{"2233", "4455"}));

  const StatusMsg st = status_from_json(json::parse(encode(StatusMsg{})));
  EXPECT_TRUE(st.job.empty());
}

TEST(Protocol, StatusRespCarriesSnapshots) {
  StatusRespMsg m;
  service::JobSnapshot snap;
  snap.name = "wire";
  snap.state = service::JobState::kRunning;
  snap.space = u128(1000);
  snap.scanned = u128(250);
  snap.targets_total = 2;
  snap.targets_found = 1;
  snap.found = {{"aa", "abc"}};
  m.jobs.push_back(snap);
  const StatusRespMsg back = status_resp_from_json(json::parse(encode(m)));
  ASSERT_EQ(back.jobs.size(), 1u);
  EXPECT_EQ(back.jobs[0].name, "wire");
  EXPECT_EQ(back.jobs[0].state, service::JobState::kRunning);
  EXPECT_EQ(back.jobs[0].scanned, u128(250));
  EXPECT_EQ(back.jobs[0].targets_found, 1u);
  ASSERT_EQ(back.jobs[0].found.size(), 1u);
  EXPECT_EQ(back.jobs[0].found[0].second, "abc");
}

TEST(Protocol, ErrorAndIdleRoundTrip) {
  const ErrorMsg e = error_from_json(json::parse(encode(ErrorMsg{"boom"})));
  EXPECT_EQ(e.error, "boom");

  IdleMsg idle;
  idle.retry_s = 0.5;
  idle.dead = {{"j", "d", "k"}};
  const json::Value v = json::parse(encode(idle));
  EXPECT_EQ(message_type(v), "idle");
  const IdleMsg back = idle_from_json(v);
  EXPECT_EQ(back.retry_s, 0.5);
  ASSERT_EQ(back.dead.size(), 1u);
  EXPECT_EQ(back.dead[0].key, "k");
}

TEST(Protocol, DecoderRejectsMalformedMessages) {
  EXPECT_THROW(hello_from_json(json::parse("{\"type\":\"hello\"}")), Error);
  EXPECT_THROW(found_from_json(json::parse("{\"type\":\"found\"}")), Error);
  EXPECT_THROW(lease_grant_from_json(json::parse("{\"type\":\"lease\"}")),
               Error);
  // busy_s feeds the job's rate estimate: a negative one from an
  // untrusted worker is malformed, not a value to add.
  EXPECT_THROW(retire_from_json(json::parse(
                   "{\"type\":\"retire\",\"lease\":1,\"tested\":\"5\","
                   "\"busy_s\":-3}")),
               Error);
  EXPECT_NO_THROW(retire_from_json(json::parse(
      "{\"type\":\"retire\",\"lease\":1,\"tested\":\"5\",\"busy_s\":0}")));
}

}  // namespace
}  // namespace gks::dist
