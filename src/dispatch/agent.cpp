#include "dispatch/agent.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>

#include "support/error.h"

namespace gks::dispatch {

NodeAgent::NodeAgent(simnet::Network& net, simnet::NodeId self,
                     std::vector<std::unique_ptr<IntervalSearcher>> devices,
                     AgentConfig config)
    : net_(net), self_(self), devices_(std::move(devices)), config_(config) {}

std::vector<std::size_t> NodeAgent::alive_members() const {
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].alive) alive.push_back(i);
  }
  return alive;
}

Capability NodeAgent::tune_all(const keyspace::Interval& scratch) {
  tune_scratch_ = scratch;
  members_.clear();

  // Fire the children's tuning passes first so subtrees tune in
  // parallel with our local devices.
  const auto& children = net_.children_of(self_);
  for (simnet::NodeId child : children) {
    net_.send(self_, child, TuneRequest{scratch});
  }

  for (auto& device : devices_) {
    Member m;
    m.device = device.get();
    m.name = device->description();
    m.capability = tune_searcher(*device, scratch, config_.tune);
    members_.push_back(std::move(m));
  }

  // Collect child reports. Subtree tuning involves nested timeouts, so
  // the window scales with the tree height conservatively; a child
  // missing it is dead for the whole search.
  std::set<simnet::NodeId> pending(children.begin(), children.end());
  std::map<simnet::NodeId, Capability> reported;
  const simnet::VirtualClock& clock = net_.clock();
  const double floor_virtual = config_.min_timeout_real_s / clock.scale();
  const double deadline = clock.now() + std::max(60.0, 4.0 * floor_virtual);
  while (!pending.empty()) {
    const double budget = deadline - clock.now();
    if (budget <= 0) break;
    auto msg = net_.recv(self_, budget);
    if (!msg) break;
    if (const auto* report = std::any_cast<TuneReport>(&msg->payload)) {
      if (pending.erase(msg->from) > 0) {
        reported[msg->from] = report->capability;
      }
    }
    // Anything else (stale work results) is dropped during tuning.
  }

  for (simnet::NodeId child : children) {
    Member m;
    m.child = child;
    m.name = net_.name_of(child);
    if (const auto it = reported.find(child); it != reported.end()) {
      m.capability = it->second;
    } else {
      m.alive = false;
      ++failures_detected_;
    }
    members_.push_back(std::move(m));
  }

  std::vector<Capability> caps;
  for (const std::size_t i : alive_members()) {
    caps.push_back(members_[i].capability);
  }
  GKS_ENSURE(!caps.empty(), "no working device or child in this subtree");
  return aggregate_capability(caps);
}

WorkResult NodeAgent::process_interval(const keyspace::Interval& interval,
                                       std::uint64_t base_round,
                                       bool& stopped) {
  WorkResult total;
  total.round = base_round;

  keyspace::IntervalCursor cursor(interval);
  std::deque<keyspace::Interval> requeued;
  const auto multiplier = static_cast<std::uint64_t>(
      std::llround(std::max(1.0, config_.rounds_multiplier)));
  std::uint64_t round_seq = 0;
  bool found_stop = false;

  const auto take_chunk = [&](u128 want) -> keyspace::Interval {
    if (!requeued.empty()) {
      keyspace::Interval next = requeued.front();
      requeued.pop_front();
      if (next.size() > want) {
        requeued.push_front(keyspace::Interval(next.begin + want, next.end));
        next.end = next.begin + want;
      }
      return next;
    }
    return cursor.take(want);
  };

  while ((!cursor.exhausted() || !requeued.empty()) && !found_stop &&
         !stopped) {
    // Drain asynchronous traffic that arrived outside an awaiting
    // window — in particular rejoin TuneReports when no child was
    // assigned work last round, and early StopSearch.
    while (auto pending_msg = net_.recv(self_, 0.0)) {
      if (std::any_cast<StopSearch>(&pending_msg->payload) != nullptr) {
        stopped = true;
        break;
      }
      if (const auto* revived =
              std::any_cast<TuneReport>(&pending_msg->payload)) {
        for (Member& m : members_) {
          if (!m.alive && m.child == pending_msg->from) {
            m.alive = true;
            m.capability = revived->capability;
          }
        }
      }
    }
    if (stopped) break;

    // Re-probe temporarily inactive children so they can rejoin
    // (Section III's dynamic network): any TuneReport that comes back
    // is picked up while awaiting this round's results.
    if (config_.allow_rejoin && config_.reprobe_every_rounds > 0 &&
        round_seq % config_.reprobe_every_rounds == 0) {
      for (const Member& m : members_) {
        if (!m.alive && m.child) {
          net_.send(self_, *m.child, TuneRequest{tune_scratch_});
        }
      }
    }

    const std::vector<std::size_t> alive = alive_members();
    if (alive.empty()) break;  // everything died; report partial coverage

    std::vector<Capability> caps;
    caps.reserve(alive.size());
    for (const std::size_t i : alive) caps.push_back(members_[i].capability);
    const std::vector<u128> quotas = balance_quotas(caps);

    // Assign this round's chunks, proportional to member throughput.
    struct Assignment {
      std::size_t member;
      keyspace::Interval chunk;
    };
    std::vector<Assignment> assigns;

    std::vector<u128> wants(alive.size());
    u128 round_total(0);
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const u128 time_floor(static_cast<std::uint64_t>(
          caps[k].throughput * config_.round_virtual_target_s));
      wants[k] = std::max(
          u128::checked_mul(quotas[k], u128(multiplier)), time_floor);
      round_total = u128::saturating_add(round_total, wants[k]);
    }

    // Final-round balancing: when less than a full round remains,
    // shrink every member's share proportionally so they all finish
    // together — the N_j/X_j equal-time condition applied to the tail.
    u128 available = cursor.remaining();
    for (const auto& r : requeued) {
      available = u128::saturating_add(available, r.size());
    }
    if (available < round_total) {
      const double scale = available.to_double() / round_total.to_double();
      for (auto& want : wants) {
        want = u128(
            static_cast<std::uint64_t>(want.to_double() * scale) + 1);
      }
    }

    double expected_round_s = 0;
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const keyspace::Interval chunk = take_chunk(wants[k]);
      if (chunk.empty()) continue;
      assigns.push_back({alive[k], chunk});
      expected_round_s =
          std::max(expected_round_s,
                   chunk.size().to_double() / caps[k].throughput);
    }
    if (assigns.empty()) break;
    ++round_seq;
    const std::uint64_t tag = (base_round << 20) | round_seq;
    const simnet::VirtualClock& clock = net_.clock();
    const double t_round_start = clock.now();
    std::vector<double> completions;

    // Children first (their subtrees start while we compute locally).
    for (const Assignment& a : assigns) {
      Member& m = members_[a.member];
      if (m.child) net_.send(self_, *m.child, WorkAssign{a.chunk, tag});
    }

    // Local devices. A real device scans on its own thread, so the
    // devices of a node work concurrently. A simulated device's scan
    // is computed inline: its duration is model time, so it completes
    // at t_scatter_end + busy, and the node waits that out on the
    // clock (the parent genuinely waits for the slower device).
    std::vector<simnet::ClockThread> scan_threads;
    std::vector<ScanOutcome> local_results(assigns.size());
    std::vector<double> local_done(assigns.size());
    for (std::size_t ai = 0; ai < assigns.size(); ++ai) {
      IntervalSearcher* device = members_[assigns[ai].member].device;
      if (device == nullptr || device->is_simulated()) continue;
      scan_threads.emplace_back(clock, [&, ai, device] {
        local_results[ai] = device->scan(assigns[ai].chunk);
        local_done[ai] = clock.now();
      });
    }
    const double t_scatter_end = clock.now();
    double simulated_until = t_scatter_end;
    for (std::size_t ai = 0; ai < assigns.size(); ++ai) {
      IntervalSearcher* device = members_[assigns[ai].member].device;
      if (device == nullptr || !device->is_simulated()) continue;
      local_results[ai] = device->scan(assigns[ai].chunk);
      local_done[ai] = t_scatter_end + local_results[ai].busy_virtual_s;
      simulated_until = std::max(simulated_until, local_done[ai]);
    }
    for (auto& t : scan_threads) t.join();
    clock.sleep_virtual(simulated_until - clock.now());

    // Merge local outcomes.
    for (std::size_t ai = 0; ai < assigns.size(); ++ai) {
      Member& m = members_[assigns[ai].member];
      if (!m.device) continue;
      const ScanOutcome& out = local_results[ai];
      completions.push_back(local_done[ai]);
      m.tested += out.tested;
      m.busy_virtual_s += out.busy_virtual_s;
      total.tested += out.tested;
      total.busy_virtual_s += out.busy_virtual_s;
      for (const Found& f : out.found) total.found.push_back(f);
    }

    // Await the children of this round.
    std::set<std::size_t> awaiting;
    for (const Assignment& a : assigns) {
      if (members_[a.member].child) awaiting.insert(a.member);
    }
    const double floor_virtual = config_.min_timeout_real_s / clock.scale();
    const double window = std::max(
        floor_virtual, expected_round_s * config_.child_timeout_factor);
    const double deadline = clock.now() + window;
    while (!awaiting.empty()) {
      const double budget = deadline - clock.now();
      if (budget <= 0) break;
      auto msg = net_.recv(self_, budget);
      if (!msg) break;
      if (std::any_cast<StopSearch>(&msg->payload) != nullptr) {
        stopped = true;
        break;
      }
      if (const auto* revived = std::any_cast<TuneReport>(&msg->payload)) {
        for (Member& m : members_) {
          if (!m.alive && m.child == msg->from) {
            m.alive = true;
            m.capability = revived->capability;
          }
        }
        continue;
      }
      const auto* result = std::any_cast<WorkResult>(&msg->payload);
      if (result == nullptr || result->round != tag) continue;  // stale
      // Find the member this child backs.
      for (auto it = awaiting.begin(); it != awaiting.end(); ++it) {
        Member& m = members_[*it];
        if (m.child == msg->from) {
          m.tested += result->tested;
          m.busy_virtual_s += result->busy_virtual_s;
          total.tested += result->tested;
          total.busy_virtual_s += result->busy_virtual_s;
          for (const Found& f : result->found) total.found.push_back(f);
          completions.push_back(clock.now());
          awaiting.erase(it);
          break;
        }
      }
    }

    // Section III cost accounting for this round, as seen from this
    // dispatcher: scatter = sends + local spawns, search = first/last
    // member completion, gather = trailing wait and merge.
    if (!completions.empty()) {
      const double t_round_end = clock.now();
      const double first_done =
          *std::min_element(completions.begin(), completions.end());
      const double last_done =
          *std::max_element(completions.begin(), completions.end());
      RoundCosts costs;
      costs.round = tag;
      costs.members = assigns.size();
      costs.scatter_s = t_scatter_end - t_round_start;
      costs.search_min_s = first_done - t_scatter_end;
      costs.search_max_s = last_done - t_scatter_end;
      costs.gather_s = t_round_end - last_done;
      ledger_.record(costs);
    }

    // Children that missed the window are declared dead; their
    // intervals go back in the queue and the next round's quotas are
    // recomputed over the survivors — the dynamic reconfiguration of
    // Section III.
    if (!awaiting.empty() && !stopped) {
      for (const std::size_t mi : awaiting) {
        members_[mi].alive = false;
        ++failures_detected_;
        for (const Assignment& a : assigns) {
          if (a.member == mi) requeued.push_back(a.chunk);
        }
      }
    }

    if (!total.found.empty() && config_.stop_on_first_find) {
      found_stop = true;
    }
  }

  rounds_run_ += round_seq;
  return total;
}

void NodeAgent::forward_stop() {
  for (simnet::NodeId child : net_.children_of(self_)) {
    net_.send(self_, child, StopSearch{});
  }
}

void NodeAgent::serve() {
  const auto parent = net_.parent_of(self_);
  GKS_REQUIRE(parent.has_value(), "serve() is for non-root nodes");
  const simnet::VirtualClock& clock = net_.clock();
  const double orphan_virtual = config_.orphan_timeout_real_s / clock.scale();
  double last_parent_traffic = clock.now();
  for (;;) {
    // Bounded waits, for two failure modes: an injected crash of THIS
    // node must terminate the thread (a downed node can never receive
    // the final StopSearch), and a dead dispatcher above must not
    // leave this subtree waiting forever (orphan timeout).
    auto msg = net_.recv(self_, 0.05 / clock.scale());
    if (!msg) {
      if (net_.is_down(self_)) return;
      if (clock.now() - last_parent_traffic > orphan_virtual) {
        forward_stop();
        return;
      }
      continue;
    }
    last_parent_traffic = clock.now();
    if (const auto* tune = std::any_cast<TuneRequest>(&msg->payload)) {
      const Capability cap = tune_all(tune->scratch);
      net_.send(self_, *parent, TuneReport{cap});
      continue;
    }
    if (const auto* work = std::any_cast<WorkAssign>(&msg->payload)) {
      bool stopped = false;
      WorkResult result =
          process_interval(work->interval, work->round, stopped);
      result.round = work->round;
      net_.send(self_, *parent, std::move(result));
      if (stopped) {
        forward_stop();
        return;
      }
      continue;
    }
    if (std::any_cast<StopSearch>(&msg->payload) != nullptr) {
      forward_stop();
      return;
    }
  }
}

SearchReport NodeAgent::run_root(const keyspace::Interval& space,
                                 const keyspace::Interval& tune_scratch) {
  const Capability cluster = tune_all(tune_scratch);

  const double start = net_.clock().now();
  bool stopped = false;
  const WorkResult result = process_interval(space, 1, stopped);
  const double elapsed = net_.clock().now() - start;

  forward_stop();

  SearchReport report;
  report.found = result.found;
  report.tested = result.tested;
  report.elapsed_virtual_s = elapsed;
  report.throughput = elapsed > 0 ? result.tested.to_double() / elapsed : 0;
  report.theoretical_sum = cluster.theoretical_sum;
  report.efficiency = report.theoretical_sum > 0
                          ? report.throughput / report.theoretical_sum
                          : 0;
  report.failures_detected = failures_detected_;
  report.rounds = rounds_run_;
  report.costs = ledger_;
  for (const Member& m : members_) {
    MemberStats stats;
    stats.name = m.name;
    stats.throughput = m.capability.throughput;
    stats.theoretical = m.capability.theoretical_sum;
    stats.tested = m.tested;
    stats.busy_virtual_s = m.busy_virtual_s;
    stats.failed = !m.alive;
    report.members.push_back(std::move(stats));
  }
  return report;
}

}  // namespace gks::dispatch
