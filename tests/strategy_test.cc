// Tests for the §9 forwarding-queue strategies and §5 load feedback.
#include <gtest/gtest.h>

#include <memory>

#include "astrolabe/deployment.h"
#include "multicast/multicast.h"
#include "newswire/system.h"

namespace nw::multicast {
namespace {

using astrolabe::Deployment;
using astrolabe::DeploymentConfig;
using astrolabe::ZonePath;

struct Arrival {
  std::size_t leaf;
  std::string id;
  double time;
};

struct StrategyEnv {
  StrategyEnv(std::size_t n, std::size_t branching, MulticastConfig mc)
      : dep(n, [&] {
          DeploymentConfig cfg;
          cfg.branching = branching;
          cfg.seed = 7;
          return cfg;
        }()) {
    for (std::size_t i = 0; i < dep.size(); ++i) {
      svc.push_back(std::make_unique<MulticastService>(dep.agent(i), mc));
      svc.back()->SetDeliveryCallback([this, i](const Envelope& hop) {
        arrivals.push_back(Arrival{i, hop.item->id, dep.sim().Now()});
      });
    }
    dep.WarmStart();
  }

  Item MakeItem(const std::string& id, std::int64_t urgency,
                std::size_t body = 2000) {
    Item item;
    item.id = id;
    item.metadata["urgency"] = urgency;
    item.body_bytes = body;
    item.published_at = dep.sim().Now();
    return item;
  }

  Deployment dep;
  std::vector<std::unique_ptr<MulticastService>> svc;
  std::vector<Arrival> arrivals;  // in delivery order
};

MulticastConfig Constrained(QueueStrategy strategy) {
  MulticastConfig mc;
  mc.queue_strategy = strategy;
  mc.forward_bytes_per_sec = 20'000;  // ~10 items/s of 2KB
  mc.forward_burst_bytes = 4'000;
  mc.report_load = false;
  return mc;
}

// Position of the first arrival of `id` in the global arrival order.
std::size_t FirstArrival(const StrategyEnv& env, const std::string& id) {
  for (std::size_t i = 0; i < env.arrivals.size(); ++i) {
    if (env.arrivals[i].id == id) return i;
  }
  return SIZE_MAX;
}

TEST(QueueStrategy, UrgencyFirstOvertakesBacklog) {
  StrategyEnv env(16, 4, Constrained(QueueStrategy::kUrgencyFirst));
  // 30 routine items queue up, then one flash item.
  for (int k = 0; k < 30; ++k) {
    env.svc[0]->SendToZone(ZonePath::Root(),
                           env.MakeItem("routine#" + std::to_string(k), 8));
  }
  env.svc[0]->SendToZone(ZonePath::Root(), env.MakeItem("flash#1", 1));
  env.dep.RunFor(120);
  const std::size_t flash_pos = FirstArrival(env, "flash#1");
  ASSERT_NE(flash_pos, SIZE_MAX);
  // The flash item must beat most of the routine backlog.
  std::size_t later_routines = 0;
  for (std::size_t i = flash_pos + 1; i < env.arrivals.size(); ++i) {
    if (env.arrivals[i].id.rfind("routine", 0) == 0) ++later_routines;
  }
  EXPECT_GT(later_routines, 15u * 20u / 2)
      << "flash item did not overtake the backlog";
}

TEST(QueueStrategy, RoundRobinKeepsFifoOrderPerQueue) {
  StrategyEnv env(16, 4, Constrained(QueueStrategy::kRoundRobin));
  for (int k = 0; k < 10; ++k) {
    env.svc[0]->SendToZone(ZonePath::Root(),
                           env.MakeItem("item#" + std::to_string(k), 8));
  }
  env.dep.RunFor(120);
  // At any single leaf, items arrive in publication order (per-queue FIFO
  // + in-order simulated links).
  std::map<std::size_t, std::vector<std::string>> per_leaf;
  for (const auto& a : env.arrivals) per_leaf[a.leaf].push_back(a.id);
  for (const auto& [leaf, ids] : per_leaf) {
    for (std::size_t i = 1; i < ids.size(); ++i) {
      EXPECT_LT(ids[i - 1], ids[i]) << "reorder at leaf " << leaf;
    }
  }
}

TEST(QueueStrategy, WeightedRoundRobinFavorsLargerZones) {
  // 38 agents, branching 4, depth 3: top-level zones hold 16 (z0), 16
  // (z1) and 6 (z2) agents. The sender sits in z1, so its level-0 queues
  // are z0 (weight 16) and z2 (weight 6): under a starved budget, WRR
  // lets the backlog toward the 16-member zone complete first.
  StrategyEnv env(38, 4, Constrained(QueueStrategy::kWeightedRoundRobin));
  ASSERT_EQ(env.dep.Depth(), 3u);
  const std::size_t sender = 16;  // first agent of z1
  ASSERT_EQ(env.dep.PathFor(sender).Component(0), "z1");
  for (int k = 0; k < 20; ++k) {
    env.svc[sender]->SendToZone(ZonePath::Root(),
                                env.MakeItem("item#" + std::to_string(k), 8));
  }
  env.dep.RunFor(600);
  // Judge the *publisher's* drain order, not downstream fan-out: for each
  // item, the first arrival inside a zone is its representative receiving
  // it from the sender. The heavier zone's 20th such hand-off must come
  // first.
  std::map<std::string, double> first_in_z0, first_in_z2;
  std::size_t got_z0 = 0, got_z2 = 0;
  for (const auto& a : env.arrivals) {
    const auto& top = env.dep.PathFor(a.leaf).Component(0);
    if (top == "z0") {
      ++got_z0;
      auto [it, fresh] = first_in_z0.try_emplace(a.id, a.time);
      if (!fresh) it->second = std::min(it->second, a.time);
    } else if (top == "z2") {
      ++got_z2;
      auto [it, fresh] = first_in_z2.try_emplace(a.id, a.time);
      if (!fresh) it->second = std::min(it->second, a.time);
    }
  }
  EXPECT_EQ(got_z0, 16u * 20u);
  EXPECT_EQ(got_z2, 6u * 20u);
  double handoff_done_z0 = 0, handoff_done_z2 = 0;
  for (const auto& [id, t] : first_in_z0) {
    handoff_done_z0 = std::max(handoff_done_z0, t);
  }
  for (const auto& [id, t] : first_in_z2) {
    handoff_done_z2 = std::max(handoff_done_z2, t);
  }
  EXPECT_LT(handoff_done_z0, handoff_done_z2)
      << "the heavier zone's backlog should drain first under WRR";
}

TEST(LoadFeedback, ForwardingUpdatesTheLoadAttribute) {
  MulticastConfig mc;
  mc.report_load = true;
  mc.load_report_interval = 1.0;
  DeploymentConfig cfg;
  cfg.branching = 4;
  Deployment dep(16, cfg);
  std::vector<std::unique_ptr<MulticastService>> svc;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    svc.push_back(std::make_unique<MulticastService>(dep.agent(i), mc));
  }
  dep.WarmStart();
  // Saturate the sender with big items relative to its budget.
  MulticastConfig tight = mc;
  for (int k = 0; k < 50; ++k) {
    Item item;
    item.id = "x#" + std::to_string(k);
    item.body_bytes = 50'000;
    svc[0]->SendToZone(ZonePath::Root(), std::move(item));
  }
  dep.RunFor(10);
  const auto& row = dep.agent(0).LocalRow();
  ASSERT_TRUE(row.contains(astrolabe::kAttrLoad));
  EXPECT_GT(row.at(astrolabe::kAttrLoad).AsDouble(), 0.0);
  // An idle node reports (near) zero.
  const auto& idle = dep.agent(15).LocalRow();
  if (idle.contains(astrolabe::kAttrLoad)) {
    EXPECT_LT(idle.at(astrolabe::kAttrLoad).AsDouble(), 0.05);
  }
  (void)tight;
}

TEST(LoadFeedback, CanBeDisabled) {
  MulticastConfig mc;
  mc.report_load = false;
  Deployment dep(4);
  std::vector<std::unique_ptr<MulticastService>> svc;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    svc.push_back(std::make_unique<MulticastService>(dep.agent(i), mc));
  }
  dep.WarmStart();
  Item item;
  item.id = "y#1";
  item.body_bytes = 1000;
  svc[0]->SendToZone(ZonePath::Root(), std::move(item));
  dep.RunFor(20);
  EXPECT_FALSE(dep.agent(0).LocalRow().contains(astrolabe::kAttrLoad));
}

TEST(QueueStrategy, NamesAreStable) {
  EXPECT_STREQ(QueueStrategyName(QueueStrategy::kWeightedRoundRobin),
               "weighted-round-robin");
  EXPECT_STREQ(QueueStrategyName(QueueStrategy::kRoundRobin), "round-robin");
  EXPECT_STREQ(QueueStrategyName(QueueStrategy::kUrgencyFirst),
               "urgency-first");
}

}  // namespace
}  // namespace nw::multicast
