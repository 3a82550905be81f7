// Additional multicast coverage: duplicate-log bounds, affinity, filter
// placement, and traffic accounting.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "astrolabe/deployment.h"
#include "multicast/multicast.h"

namespace nw::multicast {
namespace {

using astrolabe::Deployment;
using astrolabe::DeploymentConfig;
using astrolabe::ZonePath;

struct Env {
  Env(std::size_t n, std::size_t branching, MulticastConfig mc)
      : dep(n, [&] {
          DeploymentConfig cfg;
          cfg.branching = branching;
          cfg.seed = 5;
          return cfg;
        }()) {
    deliveries.assign(dep.size(), 0);
    for (std::size_t i = 0; i < dep.size(); ++i) {
      svc.push_back(std::make_unique<MulticastService>(dep.agent(i), mc));
      svc.back()->SetDeliveryCallback(
          [this, i](const Envelope&) { ++deliveries[i]; });
    }
    dep.WarmStart();
  }
  Item MakeItem(const std::string& id, std::size_t body = 128) {
    Item item;
    item.id = id;
    item.body_bytes = body;
    return item;
  }
  Deployment dep;
  std::vector<std::unique_ptr<MulticastService>> svc;
  std::vector<int> deliveries;
};

TEST(DupLog, BoundedLogForgetsAncientIds) {
  MulticastConfig mc;
  mc.dup_log_capacity = 4;  // tiny
  Env env(4, 4, mc);
  env.svc[0]->SendToZone(ZonePath::Root(), env.MakeItem("x#1"));
  env.dep.RunFor(5);
  const int first_round = env.deliveries[3];
  // Push 10 other ids through to evict "x#1" from every log...
  for (int k = 0; k < 10; ++k) {
    env.svc[0]->SendToZone(ZonePath::Root(),
                           env.MakeItem("y#" + std::to_string(k)));
  }
  env.dep.RunFor(5);
  // ...then replay it: with the id evicted, it is delivered again. This
  // documents the bounded-memory trade-off of the §9 duplicate log.
  env.svc[0]->SendToZone(ZonePath::Root(), env.MakeItem("x#1"));
  env.dep.RunFor(5);
  EXPECT_EQ(env.deliveries[3], first_round + 10 + 1);
}

TEST(DupLog, LargeLogSuppressesReplay) {
  MulticastConfig mc;
  mc.dup_log_capacity = 1 << 12;
  Env env(4, 4, mc);
  env.svc[0]->SendToZone(ZonePath::Root(), env.MakeItem("x#1"));
  env.dep.RunFor(5);
  const int before = env.deliveries[3];
  env.svc[0]->SendToZone(ZonePath::Root(), env.MakeItem("x#1"));
  env.dep.RunFor(5);
  EXPECT_EQ(env.deliveries[3], before);
  EXPECT_GT(env.svc[0]->stats().duplicates, 0u);
}

TEST(Affinity, RepeatedSendsReuseTheSameRepresentatives) {
  // With warm replicas and no failures, the affinity choice pins one
  // representative per child zone: the set of nodes that ever forward
  // stays fixed across batches.
  MulticastConfig mc;
  Env env(64, 4, mc);
  for (int k = 0; k < 3; ++k) {
    env.svc[0]->SendToZone(ZonePath::Root(),
                           env.MakeItem("a#" + std::to_string(k)));
  }
  env.dep.RunFor(10);
  std::set<std::size_t> forwarders_first;
  for (std::size_t i = 0; i < env.dep.size(); ++i) {
    if (env.svc[i]->stats().forwards > 0) forwarders_first.insert(i);
  }
  for (int k = 0; k < 7; ++k) {
    env.svc[0]->SendToZone(ZonePath::Root(),
                           env.MakeItem("b#" + std::to_string(k)));
  }
  env.dep.RunFor(10);
  std::set<std::size_t> forwarders_second;
  for (std::size_t i = 0; i < env.dep.size(); ++i) {
    if (env.svc[i]->stats().forwards > 0) forwarders_second.insert(i);
  }
  EXPECT_EQ(forwarders_first, forwarders_second)
      << "affinity should keep routing through the same representatives";
}

TEST(Filter, LeafRowsAreFilteredIndividually) {
  // The forwarding filter sees leaf MIB rows on the last hop, so a single
  // leaf can be excluded while its siblings receive.
  MulticastConfig mc;
  Env env(16, 4, mc);
  const std::string excluded_name = env.dep.PathFor(5).Leaf();
  for (std::size_t i = 0; i < env.dep.size(); ++i) {
    env.svc[i]->SetForwardFilter(
        [excluded_name](const Item&, const astrolabe::Row& child) {
          return !child.contains("blocked");
        });
  }
  env.dep.agent(5).SetLocalAttr("blocked", true);
  env.dep.WarmStart();  // refresh replicas with the marker
  env.svc[0]->SendToZone(ZonePath::Root(), env.MakeItem("m#1"));
  env.dep.RunFor(10);
  for (std::size_t i = 0; i < env.dep.size(); ++i) {
    EXPECT_EQ(env.deliveries[i], i == 5 ? 0 : 1) << "leaf " << i;
  }
}

TEST(Stats, ForwardBytesMatchBodyPlusMetadata) {
  MulticastConfig mc;
  Env env(4, 4, mc);
  env.svc[0]->SendToZone(ZonePath::Root(), env.MakeItem("b#1", 1000));
  env.dep.RunFor(5);
  const auto& stats = env.svc[0]->stats();
  ASSERT_EQ(stats.forwards, 3u);  // three siblings
  EXPECT_GE(stats.forward_bytes, 3u * 1000u);
  EXPECT_LT(stats.forward_bytes, 3u * 1400u);  // + metadata overhead only
}

Item UrgentItem(Env& env, const std::string& id, int urgency,
                std::size_t body = 1000) {
  Item item = env.MakeItem(id, body);
  item.metadata["urgency"] = urgency;
  return item;
}

// Regression for the shed-policy bug: a full queue used to refuse the
// incoming item unconditionally, so a flash bulletin arriving behind a
// backlog of routine traffic was the one that got lost.
TEST(Shedding, FlashItemIsNeverShedInFavorOfRoutine) {
  MulticastConfig mc;
  mc.forward_bytes_per_sec = 1'500;  // throttle hard so queues back up
  mc.forward_burst_bytes = 1'500;
  mc.max_queue_items = 2;
  Env env(4, 4, mc);
  std::vector<std::set<std::string>> got(env.dep.size());
  for (std::size_t i = 0; i < env.dep.size(); ++i) {
    env.svc[i]->SetDeliveryCallback(
        [&got, i](const Envelope& hop) { got[i].insert(hop.item->id); });
  }
  // Back up every per-child queue with routine traffic (NITF urgency 8)...
  for (int k = 0; k < 12; ++k) {
    env.svc[0]->SendToZone(ZonePath::Root(),
                           UrgentItem(env, "routine#" + std::to_string(k), 8));
  }
  EXPECT_GT(env.svc[0]->stats().queue_drops, 0u);
  const auto shed_before = env.svc[0]->stats().queue_shed;
  // ...then a flash bulletin (urgency 1) arrives at the full queues.
  env.svc[0]->SendToZone(ZonePath::Root(), UrgentItem(env, "flash#1", 1));
  EXPECT_GT(env.svc[0]->stats().queue_shed, shed_before)
      << "the flash item must evict a routine entry, not be refused";
  env.dep.RunFor(120);
  // Every leaf received the flash item; only routine items were lost.
  for (std::size_t i = 1; i < env.dep.size(); ++i) {
    EXPECT_TRUE(got[i].contains("flash#1")) << "leaf " << i;
    EXPECT_LT(got[i].size(), 13u) << "leaf " << i;  // overflow really shed
  }
}

TEST(Shedding, RoutineNewcomerIsShedWhenQueueHoldsMoreUrgent) {
  MulticastConfig mc;
  mc.forward_bytes_per_sec = 1'500;
  mc.forward_burst_bytes = 1'500;
  mc.max_queue_items = 2;
  Env env(4, 4, mc);
  for (int k = 0; k < 12; ++k) {
    env.svc[0]->SendToZone(ZonePath::Root(),
                           UrgentItem(env, "flash#" + std::to_string(k), 1));
  }
  const auto drops_before = env.svc[0]->stats().queue_drops;
  EXPECT_GT(drops_before, 0u);
  env.svc[0]->SendToZone(ZonePath::Root(), UrgentItem(env, "routine#1", 8));
  EXPECT_GT(env.svc[0]->stats().queue_drops, drops_before);
  EXPECT_EQ(env.svc[0]->stats().queue_shed, 0u)
      << "nothing lower-urgency was queued, so nothing may be evicted";
}

TEST(Shedding, TieKeepsQueuedEntryAndShedsNewcomer) {
  MulticastConfig mc;
  mc.forward_bytes_per_sec = 1'500;
  mc.forward_burst_bytes = 1'500;
  mc.max_queue_items = 1;
  Env env(4, 4, mc);
  for (int k = 0; k < 8; ++k) {
    env.svc[0]->SendToZone(ZonePath::Root(),
                           UrgentItem(env, "even#" + std::to_string(k), 5));
  }
  // Equal urgency everywhere: overflow counts as a plain drop (FIFO
  // fairness keeps the older entry), never as an urgency eviction.
  EXPECT_GT(env.svc[0]->stats().queue_drops, 0u);
  EXPECT_EQ(env.svc[0]->stats().queue_shed, 0u);
}

TEST(Stats, MisroutedCountsUnknownZones) {
  MulticastConfig mc;
  Env env(16, 4, mc);
  Item item = env.MakeItem("m#1");
  // Not visible from the sender's path at all.
  env.svc[0]->SendToZone(ZonePath::Parse("/nowhere/at/all"), std::move(item));
  EXPECT_EQ(env.svc[0]->stats().misrouted, 1u);
}

}  // namespace
}  // namespace nw::multicast
