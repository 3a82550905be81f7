// Unit tests for the discrete-event simulator and network model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"

namespace nw::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(3.0, [&] { order.push_back(3); });
  sim.At(1.0, [&] { order.push_back(1); });
  sim.At(2.0, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(Simulator, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(1.0, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.At(1.0, [&] { ++fired; });
  sim.At(5.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 2);
}

// ---- event key order (time, gen, seq, src) -----------------------------
// The pinned golden digests encode this order; see simulator.h.

TEST(SimulatorKeyOrder, SameTimeChildRunsAfterEveryGenZeroEventAtThatTime) {
  Simulator sim;
  std::vector<std::string> order;
  sim.At(1.0, [&] {
    order.push_back("a");
    sim.At(1.0, [&] { order.push_back("a.child"); });  // gen 1
  });
  sim.At(1.0, [&] { order.push_back("b"); });
  ASSERT_TRUE(sim.Step());  // runs "a", which schedules its child
  // Scheduled after the child, from outside any event: generation 0.
  sim.At(1.0, [&] { order.push_back("c"); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a.child"}));
}

TEST(SimulatorKeyOrder, SameTimeNodeEventsOrderBySeqThenSrc) {
  Simulator sim;
  sim.EnsureContexts(3);
  std::vector<std::string> order;
  // Node 2's event runs first and schedules two events at t=1 (seq 0, 1 of
  // context 2); node 1's runs second and schedules one (seq 0 of context
  // 1). At t=1 the per-context seq decides first, then the source node.
  sim.AtNode(2, 0.5, [&] {
    sim.At(1.0, [&] { order.push_back("n2.0"); });
    sim.At(1.0, [&] { order.push_back("n2.1"); });
  });
  sim.AtNode(1, 0.5, [&] { sim.At(1.0, [&] { order.push_back("n1.0"); }); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"n1.0", "n2.0", "n2.1"}));
}

TEST(SimulatorKeyOrder, RunUntilFiresEventsAtExactlyTAndStepStillWorks) {
  Simulator sim;
  std::vector<int> fired;
  sim.At(2.0, [&] { fired.push_back(2); });
  sim.At(3.0, [&] { fired.push_back(3); });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(fired, (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.After(1.0, recurse);
  };
  sim.After(1.0, recurse);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

class Recorder : public Node {
 public:
  void OnMessage(const Message& msg) override {
    received.push_back(msg);
    receive_times.push_back(Now());
  }
  std::vector<Message> received;
  std::vector<Time> receive_times;
  using Node::Schedule;
  using Node::Send;
};

struct Ping {
  int value = 0;
};

class Env {
 public:
  explicit Env(NetworkConfig cfg, std::size_t n, std::uint64_t seed = 7)
      : sim(seed), net(sim, cfg) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Recorder>());
      net.AddNode(nodes.back().get());
    }
  }
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<Recorder>> nodes;
};

TEST(Network, DeliversWithLatency) {
  NetworkConfig cfg;
  cfg.base_latency = 0.1;
  cfg.jitter_frac = 0.0;
  Env env(cfg, 2);
  env.sim.At(1.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {42}, 10));
  });
  env.sim.RunUntilIdle();
  ASSERT_EQ(env.nodes[1]->received.size(), 1u);
  EXPECT_EQ(env.nodes[1]->received[0].As<Ping>().value, 42);
  EXPECT_NEAR(env.nodes[1]->receive_times[0], 1.1, 1e-6);
}

TEST(Network, UplinkSerializesBackToBackSends) {
  NetworkConfig cfg;
  cfg.base_latency = 0.0;
  cfg.jitter_frac = 0.0;
  cfg.uplink_bytes_per_sec = 1000;  // 1 KB/s
  cfg.per_message_overhead = 0;
  Env env(cfg, 2);
  env.sim.At(0.0, [&] {
    // Two 500-byte messages: second must wait for the first to serialize.
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {1}, 500));
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {2}, 500));
  });
  env.sim.RunUntilIdle();
  ASSERT_EQ(env.nodes[1]->receive_times.size(), 2u);
  EXPECT_NEAR(env.nodes[1]->receive_times[0], 0.5, 1e-6);
  EXPECT_NEAR(env.nodes[1]->receive_times[1], 1.0, 1e-6);
}

TEST(Network, LossDropsApproximatelyTheConfiguredFraction) {
  NetworkConfig cfg;
  cfg.loss_prob = 0.3;
  Env env(cfg, 2);
  constexpr int kSends = 2000;
  env.sim.At(0.0, [&] {
    for (int i = 0; i < kSends; ++i) {
      env.net.Send(Message::Make<Ping>(0, 1, "ping", {i}, 8));
    }
  });
  env.sim.RunUntilIdle();
  const double delivered = double(env.nodes[1]->received.size()) / kSends;
  EXPECT_NEAR(delivered, 0.7, 0.05);
}

TEST(Network, DeadNodeReceivesNothing) {
  Env env(NetworkConfig{}, 2);
  env.net.Kill(1);
  env.sim.At(0.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {1}, 8));
  });
  env.sim.RunUntilIdle();
  EXPECT_TRUE(env.nodes[1]->received.empty());
  EXPECT_EQ(env.net.StatsFor(1).messages_dropped, 1u);
}

TEST(Network, MessageInFlightAtKillTimeIsDropped) {
  NetworkConfig cfg;
  cfg.base_latency = 1.0;
  cfg.jitter_frac = 0.0;
  Env env(cfg, 2);
  env.sim.At(0.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {1}, 8));
  });
  env.sim.At(0.5, [&] { env.net.Kill(1); });
  env.sim.RunUntilIdle();
  EXPECT_TRUE(env.nodes[1]->received.empty());
}

TEST(Network, RestartDeliversAgainButOldTimersStaySuppressed) {
  Env env(NetworkConfig{}, 2);
  int timer_fired = 0;
  env.sim.At(0.0, [&] {
    env.nodes[1]->Schedule(1.0, [&] { ++timer_fired; });
  });
  env.sim.At(0.5, [&] { env.net.Kill(1); });
  env.sim.At(0.6, [&] { env.net.Restart(1); });
  env.sim.At(2.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {5}, 8));
  });
  env.sim.RunUntilIdle();
  EXPECT_EQ(timer_fired, 0);  // timer belonged to the previous incarnation
  ASSERT_EQ(env.nodes[1]->received.size(), 1u);
}

TEST(Network, MessageInFlightAcrossRestartIsDroppedAsStaleIncarnation) {
  NetworkConfig cfg;
  cfg.base_latency = 1.0;
  cfg.jitter_frac = 0.0;
  Env env(cfg, 2);
  // The message departs toward incarnation 0, but the receiver dies and
  // is reborn (incarnation 2) before it lands: the reborn process must
  // not see a delivery addressed to its previous life.
  env.sim.At(0.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {1}, 8));
  });
  env.sim.At(0.3, [&] { env.net.Kill(1); });
  env.sim.At(0.5, [&] { env.net.Restart(1); });
  env.sim.RunUntilIdle();
  EXPECT_TRUE(env.net.IsAlive(1));
  EXPECT_EQ(env.net.Incarnation(1), 2u);
  EXPECT_TRUE(env.nodes[1]->received.empty());
  EXPECT_EQ(env.net.StatsFor(1).messages_dropped, 1u);
}

TEST(Network, RebornNodeReceivesNewTrafficExactlyOnce) {
  NetworkConfig cfg;
  cfg.base_latency = 1.0;
  cfg.jitter_frac = 0.0;
  Env env(cfg, 2);
  env.sim.At(0.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {1}, 8));  // pre-crash
  });
  env.sim.At(0.3, [&] { env.net.Kill(1); });
  env.sim.At(0.5, [&] { env.net.Restart(1); });
  env.sim.At(2.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {2}, 8));  // post-restart
  });
  env.sim.RunUntilIdle();
  // The stale in-flight message was dropped, the fresh one delivered once:
  // no duplicate, no resurrection of the old delivery.
  ASSERT_EQ(env.nodes[1]->received.size(), 1u);
  EXPECT_EQ(env.nodes[1]->received[0].As<Ping>().value, 2);
}

TEST(Network, PartitionBlocksCrossGroupTraffic) {
  Env env(NetworkConfig{}, 3);
  env.net.SetPartitionGroup(2, 1);
  env.sim.At(0.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {1}, 8));
    env.net.Send(Message::Make<Ping>(0, 2, "ping", {2}, 8));
  });
  env.sim.RunUntilIdle();
  EXPECT_EQ(env.nodes[1]->received.size(), 1u);
  EXPECT_TRUE(env.nodes[2]->received.empty());
  env.net.HealPartitions();
  env.sim.At(env.sim.Now(), [&] {
    env.net.Send(Message::Make<Ping>(0, 2, "ping", {3}, 8));
  });
  env.sim.RunUntilIdle();
  EXPECT_EQ(env.nodes[2]->received.size(), 1u);
}

TEST(Network, TrafficStatsAccount) {
  NetworkConfig cfg;
  cfg.per_message_overhead = 10;
  Env env(cfg, 2);
  env.sim.At(0.0, [&] {
    env.net.Send(Message::Make<Ping>(0, 1, "ping", {1}, 90));
  });
  env.sim.RunUntilIdle();
  EXPECT_EQ(env.net.StatsFor(0).messages_sent, 1u);
  EXPECT_EQ(env.net.StatsFor(0).bytes_sent, 100u);
  EXPECT_EQ(env.net.StatsFor(1).bytes_received, 100u);
}

TEST(Network, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.loss_prob = 0.5;
    cfg.jitter_frac = 0.5;
    Env env(cfg, 2, seed);
    env.sim.At(0.0, [&] {
      for (int i = 0; i < 100; ++i) {
        env.net.Send(Message::Make<Ping>(0, 1, "ping", {i}, 8));
      }
    });
    env.sim.RunUntilIdle();
    std::vector<int> got;
    for (const auto& m : env.nodes[1]->received) {
      got.push_back(m.As<Ping>().value);
    }
    return got;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));  // different seed, different loss pattern
}

}  // namespace
}  // namespace nw::sim
