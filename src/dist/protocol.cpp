#include "dist/protocol.h"

#include "service/journal.h"
#include "support/error.h"

namespace gks::dist {

namespace {

void write_found_updates(json::Writer& w, const char* key,
                         const std::vector<FoundUpdate>& dead) {
  w.key(key).begin_array();
  for (const FoundUpdate& f : dead) {
    w.begin_object()
        .key("job").value(f.job)
        .key("job_id").value(f.job_id)
        .key("digest").value(f.digest)
        .key("key").value(f.key)
        .end_object();
  }
  w.end_array();
}

std::vector<FoundUpdate> found_updates_from(const json::Value& v,
                                            const char* key) {
  std::vector<FoundUpdate> out;
  if (const json::Value* arr = v.find(key)) {
    for (const json::Value& f : arr->as_array()) {
      FoundUpdate u;
      u.job = f.at("job").as_string();
      u.job_id = static_cast<std::uint64_t>(f.at("job_id").as_number());
      u.digest = f.at("digest").as_string();
      u.key = f.at("key").as_string();
      out.push_back(std::move(u));
    }
  }
  return out;
}

void write_pairs(json::Writer& w, const char* key,
                 const std::vector<std::pair<std::string, std::string>>& kv) {
  w.key(key).begin_array();
  for (const auto& [digest, found_key] : kv) {
    w.begin_object()
        .key("digest").value(digest)
        .key("key").value(found_key)
        .end_object();
  }
  w.end_array();
}

std::vector<std::pair<std::string, std::string>> pairs_from(
    const json::Value& v, const char* key) {
  std::vector<std::pair<std::string, std::string>> out;
  if (const json::Value* arr = v.find(key)) {
    for (const json::Value& f : arr->as_array()) {
      out.emplace_back(f.at("digest").as_string(), f.at("key").as_string());
    }
  }
  return out;
}

std::uint64_t u64_field(const json::Value& v, const char* key) {
  // Lease/job ids fit a double exactly for any realistic session
  // (2^53 leases is beyond the protocol's lifetime), so a JSON number
  // is safe here — unlike keyspace ids, which travel as strings.
  return static_cast<std::uint64_t>(v.at(key).as_number());
}

}  // namespace

std::string message_type(const json::Value& v) {
  return v.at("type").as_string();
}

std::string stamp_rid(std::string body, std::uint64_t rid) {
  if (rid == 0) return body;
  // Every encoded message is a JSON object with at least a "type"
  // member, so the id goes in as one more member before the brace.
  GKS_REQUIRE(body.size() > 2 && body.back() == '}',
              "rid stamp needs an encoded message");
  body.insert(body.size() - 1, ",\"rid\":" + std::to_string(rid));
  return body;
}

std::uint64_t request_id(const json::Value& v) {
  const json::Value* member = v.find("rid");
  if (member == nullptr) return 0;
  const double rid = member->as_number();
  // Ids stay far below 2^53, so a JSON number carries them exactly.
  GKS_REQUIRE(rid >= 0 && rid < 9007199254740992.0 &&
                  rid == static_cast<double>(static_cast<std::uint64_t>(rid)),
              "rid must be a non-negative integer");
  return static_cast<std::uint64_t>(rid);
}

std::string encode(const HelloMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("hello")
      .key("version").value(m.version)
      .key("name").value(m.name)
      .key("threads").value(m.threads)
      .end_object();
  return w.str();
}

HelloMsg hello_from_json(const json::Value& v) {
  HelloMsg m;
  m.version = static_cast<int>(v.at("version").as_number());
  m.name = v.at("name").as_string();
  m.threads = static_cast<int>(v.number_or("threads", 1));
  return m;
}

std::string encode(const WelcomeMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("welcome")
      .key("version").value(m.version)
      .key("lease_s").value(m.lease_s)
      .key("heartbeat_s").value(m.heartbeat_s)
      .key("holder").value(m.holder)
      .end_object();
  return w.str();
}

WelcomeMsg welcome_from_json(const json::Value& v) {
  WelcomeMsg m;
  m.version = static_cast<int>(v.at("version").as_number());
  m.lease_s = v.at("lease_s").as_number();
  m.heartbeat_s = v.at("heartbeat_s").as_number();
  m.holder = v.string_or("holder", "");
  return m;
}

std::string encode(const LeaseRequestMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("lease_req")
      .key("max_ids").value(m.max_ids.to_string())
      .end_object();
  return w.str();
}

LeaseRequestMsg lease_request_from_json(const json::Value& v) {
  LeaseRequestMsg m;
  m.max_ids = u128::parse(v.at("max_ids").as_string());
  return m;
}

std::string encode(const LeaseGrantWire& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("lease")
      .key("lease").value(m.lease_id)
      .key("job_id").value(m.job)
      .key("name").value(m.job_name)
      .key("begin").value(m.begin.to_string())
      .key("end").value(m.end.to_string())
      .key("gen").value(m.target_gen);
  if (m.has_spec) {
    w.key("spec").begin_object();
    service::write_job_spec_fields(w, m.spec);
    w.end_object();
    write_pairs(w, "spec_found", m.spec_found);
  }
  write_found_updates(w, "dead", m.dead);
  w.end_object();
  return w.str();
}

LeaseGrantWire lease_grant_from_json(const json::Value& v) {
  LeaseGrantWire m;
  m.lease_id = u64_field(v, "lease");
  m.job = u64_field(v, "job_id");
  m.job_name = v.at("name").as_string();
  m.begin = u128::parse(v.at("begin").as_string());
  m.end = u128::parse(v.at("end").as_string());
  m.target_gen = static_cast<std::uint64_t>(v.number_or("gen", 0));
  if (const json::Value* spec = v.find("spec")) {
    m.has_spec = true;
    m.spec = service::job_spec_from_json(*spec);
    m.spec_found = pairs_from(v, "spec_found");
  }
  m.dead = found_updates_from(v, "dead");
  return m;
}

std::string encode(const IdleMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("idle")
      .key("retry_s").value(m.retry_s);
  write_found_updates(w, "dead", m.dead);
  w.end_object();
  return w.str();
}

IdleMsg idle_from_json(const json::Value& v) {
  IdleMsg m;
  m.retry_s = v.number_or("retry_s", 0.2);
  m.dead = found_updates_from(v, "dead");
  return m;
}

std::string encode(const FoundMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("found")
      .key("lease").value(m.lease_id)
      .key("digest").value(m.digest)
      .key("key").value(m.key)
      .end_object();
  return w.str();
}

FoundMsg found_from_json(const json::Value& v) {
  FoundMsg m;
  m.lease_id = u64_field(v, "lease");
  m.digest = v.at("digest").as_string();
  m.key = v.at("key").as_string();
  return m;
}

std::string encode(const RetireMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("retire")
      .key("lease").value(m.lease_id)
      .key("tested").value(m.tested.to_string())
      .key("busy_s").value(m.busy_s);
  if (m.metrics.has_value()) {
    w.key("metrics");
    obs::snapshot_to_json(w, *m.metrics);
  }
  w.end_object();
  return w.str();
}

RetireMsg retire_from_json(const json::Value& v) {
  RetireMsg m;
  m.lease_id = u64_field(v, "lease");
  m.tested = u128::parse(v.at("tested").as_string());
  m.busy_s = v.number_or("busy_s", 0);
  // busy_s feeds the job's rate estimate and its reported scan time; a
  // negative one would skew the quantum sizing of every holder.
  GKS_REQUIRE(m.busy_s >= 0, "retire busy_s must not be negative");
  if (const json::Value* snap = v.find("metrics")) {
    m.metrics = obs::snapshot_from_json(*snap);
  }
  return m;
}

std::string encode(const HeartbeatMsg& m) {
  json::Writer w;
  w.begin_object().key("type").value("heartbeat");
  if (m.metrics.has_value()) {
    w.key("metrics");
    obs::snapshot_to_json(w, *m.metrics);
  }
  w.end_object();
  return w.str();
}

HeartbeatMsg heartbeat_from_json(const json::Value& v) {
  HeartbeatMsg m;
  if (const json::Value* snap = v.find("metrics")) {
    m.metrics = obs::snapshot_from_json(*snap);
  }
  return m;
}

std::string encode(const ByeMsg& m) {
  json::Writer w;
  w.begin_object().key("type").value("bye");
  if (m.metrics.has_value()) {
    w.key("metrics");
    obs::snapshot_to_json(w, *m.metrics);
  }
  w.end_object();
  return w.str();
}

ByeMsg bye_from_json(const json::Value& v) {
  ByeMsg m;
  if (const json::Value* snap = v.find("metrics")) {
    m.metrics = obs::snapshot_from_json(*snap);
  }
  return m;
}

std::string encode(const AckMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("ack")
      .key("ok").value(m.ok);
  if (!m.error.empty()) w.key("error").value(m.error);
  if (m.id != 0) w.key("id").value(m.id);
  w.key("cancelled").begin_array();
  for (const std::uint64_t lease : m.cancelled) w.value(lease);
  w.end_array();
  write_found_updates(w, "dead", m.dead);
  w.end_object();
  return w.str();
}

AckMsg ack_from_json(const json::Value& v) {
  AckMsg m;
  m.ok = v.at("ok").as_bool();
  m.error = v.string_or("error", "");
  m.id = static_cast<std::uint64_t>(v.number_or("id", 0));
  if (const json::Value* arr = v.find("cancelled")) {
    for (const json::Value& lease : arr->as_array()) {
      m.cancelled.push_back(static_cast<std::uint64_t>(lease.as_number()));
    }
  }
  m.dead = found_updates_from(v, "dead");
  return m;
}

std::string encode(const SubmitMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("submit")
      .key("spec").begin_object();
  service::write_job_spec_fields(w, m.spec);
  w.end_object().end_object();
  return w.str();
}

SubmitMsg submit_from_json(const json::Value& v) {
  SubmitMsg m;
  m.spec = service::job_spec_from_json(v.at("spec"));
  return m;
}

std::string encode(const CancelMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("cancel")
      .key("job").value(m.job)
      .end_object();
  return w.str();
}

CancelMsg cancel_from_json(const json::Value& v) {
  CancelMsg m;
  m.job = v.at("job").as_string();
  return m;
}

std::string encode(const TargetsMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("targets")
      .key("job").value(m.job)
      .key("add").begin_array();
  for (const std::string& hex : m.add) w.value(hex);
  w.end_array().key("remove").begin_array();
  for (const std::string& hex : m.remove) w.value(hex);
  w.end_array().end_object();
  return w.str();
}

TargetsMsg targets_from_json(const json::Value& v) {
  TargetsMsg m;
  m.job = v.at("job").as_string();
  if (const json::Value* arr = v.find("add")) {
    for (const json::Value& hex : arr->as_array()) {
      m.add.push_back(hex.as_string());
    }
  }
  if (const json::Value* arr = v.find("remove")) {
    for (const json::Value& hex : arr->as_array()) {
      m.remove.push_back(hex.as_string());
    }
  }
  return m;
}

std::string encode(const StatusMsg& m) {
  json::Writer w;
  w.begin_object().key("type").value("status");
  if (!m.job.empty()) w.key("job").value(m.job);
  w.end_object();
  return w.str();
}

StatusMsg status_from_json(const json::Value& v) {
  StatusMsg m;
  m.job = v.string_or("job", "");
  return m;
}

std::string encode(const StatusRespMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("status_resp")
      .key("jobs").begin_array();
  for (const service::JobSnapshot& s : m.jobs) {
    service::snapshot_to_json(w, s);
  }
  w.end_array();
  if (!m.workers.empty()) {
    w.key("workers").begin_array();
    for (const WorkerHealthWire& h : m.workers) {
      w.begin_object()
          .key("name").value(h.name)
          .key("state").value(h.state)
          .key("score").value(h.score)
          .key("strikes").value(h.strikes)
          .key("missed_heartbeats").value(h.missed_heartbeats)
          .key("lease_expiries").value(h.lease_expiries)
          .key("protocol_errors").value(h.protocol_errors)
          .key("late_retires").value(h.late_retires)
          .key("forged_founds").value(h.forged_founds)
          .key("retires_ok").value(h.retires_ok)
          .end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

StatusRespMsg status_resp_from_json(const json::Value& v) {
  StatusRespMsg m;
  for (const json::Value& s : v.at("jobs").as_array()) {
    m.jobs.push_back(service::snapshot_from_json(s));
  }
  if (const json::Value* arr = v.find("workers")) {
    for (const json::Value& h : arr->as_array()) {
      WorkerHealthWire w;
      w.name = h.at("name").as_string();
      w.state = h.string_or("state", "ok");
      w.score = h.number_or("score", 0);
      w.strikes = static_cast<std::uint64_t>(h.number_or("strikes", 0));
      w.missed_heartbeats =
          static_cast<std::uint64_t>(h.number_or("missed_heartbeats", 0));
      w.lease_expiries =
          static_cast<std::uint64_t>(h.number_or("lease_expiries", 0));
      w.protocol_errors =
          static_cast<std::uint64_t>(h.number_or("protocol_errors", 0));
      w.late_retires =
          static_cast<std::uint64_t>(h.number_or("late_retires", 0));
      w.forged_founds =
          static_cast<std::uint64_t>(h.number_or("forged_founds", 0));
      w.retires_ok =
          static_cast<std::uint64_t>(h.number_or("retires_ok", 0));
      m.workers.push_back(std::move(w));
    }
  }
  return m;
}

std::string encode(const MetricsMsg&) {
  json::Writer w;
  w.begin_object().key("type").value("metrics").end_object();
  return w.str();
}

std::string encode(const MetricsRespMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("metrics_resp")
      .key("coordinator");
  obs::snapshot_to_json(w, m.coordinator);
  w.key("workers").begin_array();
  for (const WorkerMetricsWire& wm : m.workers) {
    w.begin_object()
        .key("name").value(wm.name)
        .key("age_s").value(wm.age_s)
        .key("metrics");
    obs::snapshot_to_json(w, wm.metrics);
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

MetricsRespMsg metrics_resp_from_json(const json::Value& v) {
  MetricsRespMsg m;
  m.coordinator = obs::snapshot_from_json(v.at("coordinator"));
  if (const json::Value* arr = v.find("workers")) {
    for (const json::Value& wm : arr->as_array()) {
      WorkerMetricsWire out;
      out.name = wm.at("name").as_string();
      out.age_s = wm.number_or("age_s", 0);
      out.metrics = obs::snapshot_from_json(wm.at("metrics"));
      m.workers.push_back(std::move(out));
    }
  }
  return m;
}

std::string encode(const ErrorMsg& m) {
  json::Writer w;
  w.begin_object()
      .key("type").value("error")
      .key("error").value(m.error)
      .end_object();
  return w.str();
}

ErrorMsg error_from_json(const json::Value& v) {
  ErrorMsg m;
  m.error = v.at("error").as_string();
  return m;
}

}  // namespace gks::dist
