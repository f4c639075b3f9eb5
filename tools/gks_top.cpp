// gks-top: live cluster telemetry viewer.
//
//   gks-top --connect HOST:PORT [--watch SECS] [--json]
//
// Asks a running gks-coordd for its `status` (job + worker health) and
// `metrics` (cluster telemetry) views and renders them as one dashboard:
// per-worker scan rate, lease latency percentiles, health state, and
// the coordinator's own job/journal/fault counters. Both views key
// workers by *name*, so the rows join trivially.
//
// Options:
//   --connect ADDR   coordinator to query (required)
//   --watch SECS     refresh every SECS seconds until SIGINT; the
//                    screen is cleared between frames and a dropped
//                    session is reconnected (coordinators time idle
//                    sessions out, so long watch intervals rely on
//                    this)
//   --json           print the raw metrics_resp JSON instead of tables
//                    (one document per refresh; scripts consume this)
//
// Exit status: 0 on SIGINT or a clean one-shot, 1 when the coordinator
// cannot be reached (or vanishes and stays gone mid-watch).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "dist/tcp_transport.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/json.h"
#include "support/table.h"

namespace {

using namespace gks;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_release); }

struct Options {
  std::string connect;
  double watch_s = 0;  ///< 0 = one shot
  bool json = false;
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s --connect HOST:PORT [--watch SECS] [--json]\n",
               argv0);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], "missing option value");
      return argv[++i];
    };
    if (arg == "--connect") {
      opt.connect = need_value();
    } else if (arg == "--watch") {
      opt.watch_s = std::stod(need_value());
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      usage(argv[0], ("unknown option: " + arg).c_str());
    }
  }
  if (opt.connect.empty()) usage(argv[0], "--connect is required");
  return opt;
}

/// "1851", "12.3k", "4.5M" — rates are coarse by nature.
std::string fmt_rate(double v) {
  const char* suffix = "";
  if (v >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (v >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    v /= 1e3;
    suffix = "k";
  }
  std::string out = TablePrinter::num(v, v >= 100 ? 0 : 1);
  out += suffix;
  return out;
}

/// "87us", "3.4ms", "1.2s" — spans five orders of magnitude.
std::string fmt_seconds(double s) {
  if (s <= 0) return "-";
  if (s < 1e-3) return TablePrinter::num(s * 1e6, 0) + "us";
  if (s < 1.0) return TablePrinter::num(s * 1e3, 1) + "ms";
  return TablePrinter::num(s, 2) + "s";
}

std::string quantile_cell(const obs::HistogramSnapshot* h, double p) {
  if (h == nullptr || h->count() == 0) return "-";
  return fmt_seconds(h->quantile(p));
}

/// One session with the coordinator; reconnected by the watch loop
/// when it drops (idle sessions time out server-side).
struct Client {
  dist::TcpTransport transport;
  std::unique_ptr<dist::Connection> conn;

  explicit Client(const std::string& addr) {
    conn = transport.connect(addr, /*timeout_s=*/5.0);
    dist::HelloMsg hello;
    hello.name = "gks-top";
    hello.threads = 0;
    const json::Value welcome = roundtrip(dist::encode(hello));
    GKS_REQUIRE(dist::message_type(welcome) == "welcome",
                "coordinator rejected session: " +
                    welcome.string_or("error", "unexpected reply"));
  }

  json::Value roundtrip(const std::string& body) {
    conn->send(body);
    const auto reply = conn->recv(/*timeout_s=*/10.0);
    if (!reply.has_value()) {
      throw dist::ConnectionClosed("coordinator did not answer");
    }
    return json::parse(*reply);
  }
};

/// Sums one counter across the coordinator and every worker snapshot.
std::uint64_t cluster_counter(const dist::MetricsRespMsg& m,
                              std::string_view name) {
  std::uint64_t total = m.coordinator.counter_or(name);
  for (const auto& w : m.workers) total += w.metrics.counter_or(name);
  return total;
}

void render(const dist::StatusRespMsg& status,
            const dist::MetricsRespMsg& metrics) {
  const obs::RegistrySnapshot& coord = metrics.coordinator;

  // Health state by worker name; the metrics table joins on it.
  std::vector<std::string> lines;
  std::printf("jobs: %zu    sessions: %llu    leases: %llu granted / %llu "
              "retired    found: %llu\n",
              status.jobs.size(),
              static_cast<unsigned long long>(
                  coord.counter_or("gks_coord_sessions_total")),
              static_cast<unsigned long long>(
                  coord.counter_or("gks_lease_granted_total")),
              static_cast<unsigned long long>(
                  coord.counter_or("gks_lease_retired_total")),
              static_cast<unsigned long long>(
                  coord.counter_or("gks_found_reports_total")));
  const obs::HistogramSnapshot* turnaround =
      coord.histogram("gks_coord_lease_turnaround_seconds");
  const obs::HistogramSnapshot* flush =
      coord.histogram("gks_journal_flush_seconds");
  std::printf("lease turnaround: p50 %s  p99 %s    journal: %s pending, "
              "flush p99 %s\n",
              quantile_cell(turnaround, 0.50).c_str(),
              quantile_cell(turnaround, 0.99).c_str(),
              TablePrinter::num(coord.gauge_or("gks_journal_pending_records"),
                                0)
                  .c_str(),
              quantile_cell(flush, 0.99).c_str());

  // Faults are usually all zero; only surface the line when the chaos
  // harness (or a genuinely bad network) has been at work.
  const char* kFaultCounters[] = {
      "gks_faultnet_dropped_total",    "gks_faultnet_duplicated_total",
      "gks_faultnet_corrupted_total",  "gks_faultnet_truncated_total",
      "gks_faultnet_delayed_total",    "gks_faultnet_resets_total",
      "gks_faultnet_blackholed_total",
  };
  std::string faults;
  for (const char* name : kFaultCounters) {
    const std::uint64_t n = cluster_counter(metrics, name);
    if (n == 0) continue;
    // "dropped=3" from "gks_faultnet_dropped_total"
    std::string label(name + 13);
    label.resize(label.size() - 6);
    if (!faults.empty()) faults += "  ";
    faults += label;
    faults += "=";
    faults += std::to_string(n);
  }
  if (!faults.empty()) std::printf("faults: %s\n", faults.c_str());
  std::printf("\n");

  TablePrinter table;
  table.header({"worker", "state", "age", "keys/s", "lease p50", "lease p99",
                "rtt p50", "rtt p99", "done", "lost", "retx", "reconn"});
  for (const dist::WorkerMetricsWire& w : metrics.workers) {
    std::string state = "?";
    for (const dist::WorkerHealthWire& h : status.workers) {
      if (h.name == w.name) {
        state = h.state;
        break;
      }
    }
    const obs::RegistrySnapshot& s = w.metrics;
    const obs::HistogramSnapshot* lease =
        s.histogram("gks_worker_lease_seconds");
    const obs::HistogramSnapshot* rtt = s.histogram("gks_worker_rtt_seconds");
    table.row({w.name, state, fmt_seconds(w.age_s),
               fmt_rate(s.gauge_or("gks_worker_keys_per_s")),
               quantile_cell(lease, 0.50), quantile_cell(lease, 0.99),
               quantile_cell(rtt, 0.50), quantile_cell(rtt, 0.99),
               std::to_string(
                   s.counter_or("gks_worker_leases_completed_total")),
               std::to_string(
                   s.counter_or("gks_worker_leases_abandoned_total")),
               std::to_string(s.counter_or("gks_worker_retransmits_total")),
               std::to_string(s.counter_or("gks_worker_reconnects_total"))});
  }
  if (metrics.workers.empty()) {
    std::printf("(no worker telemetry yet — workers report on their first "
                "heartbeat)\n");
  } else {
    std::printf("%s\n", table.str().c_str());
  }
}

/// One refresh: status + metrics over an established session.
void refresh(Client& client, const Options& opt) {
  const json::Value status_v =
      client.roundtrip(dist::encode(dist::StatusMsg{}));
  GKS_REQUIRE(dist::message_type(status_v) == "status_resp",
              "unexpected status reply");
  const dist::StatusRespMsg status = dist::status_resp_from_json(status_v);

  const json::Value metrics_v =
      client.roundtrip(dist::encode(dist::MetricsMsg{}));
  GKS_REQUIRE(dist::message_type(metrics_v) == "metrics_resp",
              "unexpected metrics reply");
  if (opt.json) {
    std::printf("%s\n", dist::encode(dist::metrics_resp_from_json(metrics_v))
                            .c_str());
    return;
  }
  render(status, dist::metrics_resp_from_json(metrics_v));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::unique_ptr<Client> client;
  int consecutive_failures = 0;
  for (;;) {
    if (g_stop.load(std::memory_order_acquire)) return 0;
    try {
      if (!client) client = std::make_unique<Client>(opt.connect);
      if (opt.watch_s > 0 && !opt.json) {
        std::printf("\x1b[2J\x1b[H");  // clear + home between frames
      }
      refresh(*client, opt);
      std::fflush(stdout);
      consecutive_failures = 0;
    } catch (const dist::TransportError& e) {
      // Session dropped (idle timeout, coordinator restart). One shot
      // fails hard; a watch tears the session down and tries again
      // next frame, giving up only when the coordinator stays gone.
      client.reset();
      if (opt.watch_s <= 0 || ++consecutive_failures >= 3) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
      std::fprintf(stderr, "reconnecting: %s\n", e.what());
    } catch (const gks::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    if (opt.watch_s <= 0) return 0;
    // Sleep in short slices so SIGINT stays prompt.
    double left = opt.watch_s;
    while (left > 0 && !g_stop.load(std::memory_order_acquire)) {
      const double nap = std::min(left, 0.1);
      std::this_thread::sleep_for(std::chrono::duration<double>(nap));
      left -= nap;
    }
  }
}
