#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "simnet/channel.h"
#include "simnet/clock.h"
#include "simnet/network.h"
#include "support/stopwatch.h"

namespace gks::simnet {
namespace {

TEST(EventClock, TimeJumpsToTheEarliestWakeUpOnlyWhenAllAreBlocked) {
  const VirtualClock clock(1e-3, TimeMode::kEventDriven);
  const VirtualClock::Participant self(clock);

  std::mutex mu;
  std::vector<std::pair<std::string, double>> woke;
  const auto sleeper = [&](std::string name, double seconds) {
    return ClockThread(clock, [&, name, seconds] {
      clock.sleep_virtual(seconds);
      std::lock_guard<std::mutex> lock(mu);
      woke.emplace_back(name, clock.now());
    });
  };
  ClockThread late = sleeper("late", 5.0);
  ClockThread early = sleeper("early", 3.0);

  // Both sleepers are blocked, but this thread is a participant that
  // is still running: time must stand still however long it runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(clock.now(), 0.0);

  // Once it blocks too, time jumps wake-up by wake-up, in order, and
  // lands exactly on each one.
  const Stopwatch real;
  clock.sleep_virtual(1000.0);
  EXPECT_EQ(clock.now(), 1000.0);
  EXPECT_LT(real.seconds(), 0.5);  // 1000 virtual s would be 1 s slept
  late.join();
  early.join();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], std::make_pair(std::string("early"), 3.0));
  EXPECT_EQ(woke[1], std::make_pair(std::string("late"), 5.0));
}

TEST(EventClock, ReceiveTimeoutAndDeliveryAreWakeUps) {
  Network net(1e-3, Network::kDefaultSeed, TimeMode::kEventDriven);
  const NodeId a = net.add_node("A");
  const NodeId b = net.add_node("B");
  LinkSpec link;
  link.latency_s = 2.5;
  net.connect(a, b, link);
  const VirtualClock::Participant self(net.clock());

  EXPECT_FALSE(net.recv(b, 40.0).has_value());
  EXPECT_EQ(net.clock().now(), 40.0);

  net.send(a, b, 7);
  const auto msg = net.recv(b, 100.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::any_cast<int>(msg->payload), 7);
  EXPECT_DOUBLE_EQ(net.clock().now(), 40.0 + link.transfer_seconds(64));
}

TEST(EventClock, JoinCannotLetTimeSlipBetweenExitAndWake) {
  // A later wake-up is pending while the joiner waits. Had the exiting
  // thread left the clock before its joiner became runnable, everyone
  // left would be blocked and time would jump to that later instant
  // before the joiner ran.
  for (int trial = 0; trial < 50; ++trial) {
    const VirtualClock clock(1e-3, TimeMode::kEventDriven);
    const VirtualClock::Participant self(clock);
    ClockThread pending(clock, [&] { clock.sleep_virtual(100.0); });
    ClockThread worker(clock, [&] { clock.sleep_virtual(1.0); });
    worker.join();
    ASSERT_EQ(clock.now(), 1.0) << "trial " << trial;
    pending.join();
    ASSERT_EQ(clock.now(), 100.0) << "trial " << trial;
  }
}

TEST(EventClock, EqualInstantDeliveriesComeOutInAFixedOrder) {
  const VirtualClock clock(1e-3, TimeMode::kEventDriven);
  const VirtualClock::Participant self(clock);
  Mailbox box(clock, LinkSpec{});

  // Senders in scrambled order, all due at the same instant: they come
  // out by sender id, then in each sender's own send order.
  const std::vector<std::pair<NodeId, int>> sends = {
      {3, 0}, {1, 0}, {2, 0}, {3, 1}, {1, 1}, {2, 1}, {1, 2}};
  for (const auto& [from, seq] : sends) {
    box.send_with_delay(Message{from, seq, 64}, 1.0);
  }
  std::vector<std::pair<NodeId, int>> got;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const auto msg = box.recv(10.0);
    ASSERT_TRUE(msg.has_value());
    got.emplace_back(msg->from, std::any_cast<int>(msg->payload));
  }
  EXPECT_EQ(clock.now(), 1.0);
  const std::vector<std::pair<NodeId, int>> expected = {
      {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {3, 0}, {3, 1}};
  EXPECT_EQ(got, expected);
}

TEST(EventClock, RacingSendersStillDeliverInTheFixedOrder) {
  for (int trial = 0; trial < 20; ++trial) {
    const VirtualClock clock(1e-3, TimeMode::kEventDriven);
    const VirtualClock::Participant self(clock);
    Mailbox box(clock, LinkSpec{});
    std::vector<ClockThread> senders;
    for (NodeId from = 4; from >= 1; --from) {
      senders.emplace_back(clock, [&box, from] {
        for (int seq = 0; seq < 3; ++seq) {
          box.send_with_delay(Message{from, seq, 64}, 0.5);
        }
      });
    }
    std::vector<std::pair<NodeId, int>> got;
    for (int i = 0; i < 12; ++i) {
      const auto msg = box.recv(10.0);
      ASSERT_TRUE(msg.has_value());
      got.emplace_back(msg->from, std::any_cast<int>(msg->payload));
    }
    for (auto& s : senders) s.join();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], std::make_pair(static_cast<NodeId>(1 + i / 3),
                                       static_cast<int>(i % 3)))
          << "trial " << trial << " position " << i;
    }
  }
}

TEST(EventClock, WallClockModeNeedsNoParticipants) {
  const VirtualClock clock(1e-3);
  const VirtualClock::Participant ignored(clock);
  ClockThread t(clock, [&] { clock.sleep_virtual(5.0); });
  t.join();
  EXPECT_GE(clock.now(), 5.0);
}

}  // namespace
}  // namespace gks::simnet
