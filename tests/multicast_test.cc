// Tests for the application-level multicast: full dissemination, duplicate
// suppression, redundancy under loss and failures, filtering, scoped
// sends, and overload behavior of the forwarding queues.
#include <gtest/gtest.h>

#include <memory>

#include "astrolabe/deployment.h"
#include "multicast/multicast.h"

namespace nw::multicast {
namespace {

using astrolabe::Deployment;
using astrolabe::DeploymentConfig;
using astrolabe::ZonePath;

class MulticastEnv {
 public:
  MulticastEnv(std::size_t n, std::size_t branching, MulticastConfig mc = {},
               sim::NetworkConfig net = {}, std::uint64_t seed = 1)
      : dep_([&] {
          DeploymentConfig cfg;
          cfg.num_agents = n;
          cfg.branching = branching;
          cfg.net = net;
          cfg.seed = seed;
          return cfg;
        }()) {
    for (std::size_t i = 0; i < dep_.size(); ++i) {
      services_.push_back(
          std::make_unique<MulticastService>(dep_.agent(i), mc));
      services_.back()->SetDeliveryCallback(
          [this, i](const Envelope& hop) {
            deliveries_[i].push_back(hop.item->id);
          });
      deliveries_.emplace_back();
    }
    dep_.WarmStart();
  }

  Deployment& dep() { return dep_; }
  MulticastService& svc(std::size_t i) { return *services_[i]; }
  const std::vector<std::string>& delivered(std::size_t i) const {
    return deliveries_[i];
  }
  std::size_t TotalDeliveries() const {
    std::size_t n = 0;
    for (const auto& d : deliveries_) n += d.size();
    return n;
  }

  Item MakeItem(const std::string& id, std::size_t body = 256) {
    Item item;
    item.id = id;
    item.body_bytes = body;
    item.published_at = dep_.sim().Now();
    return item;
  }

 private:
  Deployment dep_;
  std::vector<std::unique_ptr<MulticastService>> services_;
  std::vector<std::vector<std::string>> deliveries_;
};

TEST(Multicast, RootSendReachesEveryLeafExactlyOnce) {
  MulticastEnv env(27, 3);
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 27; ++i) {
    ASSERT_EQ(env.delivered(i).size(), 1u) << "leaf " << i;
    EXPECT_EQ(env.delivered(i)[0], "a#1");
  }
}

TEST(Multicast, ManyItemsAllDelivered) {
  MulticastEnv env(16, 4);
  for (int k = 0; k < 10; ++k) {
    env.svc(0).SendToZone(ZonePath::Root(),
                          env.MakeItem("a#" + std::to_string(k)));
  }
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(env.delivered(i).size(), 10u) << "leaf " << i;
  }
}

TEST(Multicast, RedundantForwardingSuppressesDuplicates) {
  MulticastConfig mc;
  mc.redundancy = 3;
  MulticastEnv env(27, 3, mc);
  env.svc(5).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  std::uint64_t dups = 0;
  for (std::size_t i = 0; i < 27; ++i) {
    EXPECT_EQ(env.delivered(i).size(), 1u) << "leaf " << i;
    dups += env.svc(i).stats().duplicates;
  }
  EXPECT_GT(dups, 0u);  // redundancy produced suppressed extra copies
}

TEST(Multicast, ScopedSendStaysInsideZone) {
  MulticastEnv env(27, 3);
  // Sender 0 lives in the first top-level zone.
  const ZonePath scope = env.dep().PathFor(0).Prefix(1);
  env.svc(0).SendToZone(scope, env.MakeItem("a#1"));
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 27; ++i) {
    const bool inside = scope.IsPrefixOf(env.dep().PathFor(i));
    EXPECT_EQ(env.delivered(i).size(), inside ? 1u : 0u) << "leaf " << i;
  }
}

TEST(Multicast, NonMemberCanPublishIntoRemoteZone) {
  MulticastEnv env(27, 3);
  // Sender 0 publishes into the top-level zone of agent 26.
  const ZonePath scope = env.dep().PathFor(26).Prefix(1);
  ASSERT_FALSE(scope.IsPrefixOf(env.dep().PathFor(0)));
  env.svc(0).SendToZone(scope, env.MakeItem("a#1"));
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 27; ++i) {
    const bool inside = scope.IsPrefixOf(env.dep().PathFor(i));
    EXPECT_EQ(env.delivered(i).size(), inside ? 1u : 0u) << "leaf " << i;
  }
}

TEST(Multicast, ForwardFilterPrunesSubtrees) {
  MulticastEnv env(16, 4);
  // Filter: never forward into child zones/leaves whose row has 2 members
  // or fewer... use a simpler rule: block every child whose key is "z0"
  // by marking with nmembers. Instead filter on leaf rows: only leaves
  // with contacts containing an even node id would be unreachable to
  // verify; keep it simple and block everything -> only local delivery.
  for (std::size_t i = 0; i < 16; ++i) {
    env.svc(i).SetForwardFilter(
        [](const Item&, const astrolabe::Row&) { return false; });
  }
  env.svc(3).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  EXPECT_EQ(env.TotalDeliveries(), 1u);  // only the sender itself
  EXPECT_GT(env.svc(3).stats().filtered, 0u);
}

TEST(Multicast, SurvivesModerateLossWithRedundancy) {
  sim::NetworkConfig net;
  net.loss_prob = 0.1;
  MulticastConfig mc;
  mc.redundancy = 2;
  MulticastEnv env(64, 4, mc, net);
  for (int k = 0; k < 5; ++k) {
    env.svc(0).SendToZone(ZonePath::Root(),
                          env.MakeItem("a#" + std::to_string(k)));
  }
  env.dep().RunFor(60);
  // With 10% loss and 2x redundancy the expected delivery rate is high.
  const double rate = double(env.TotalDeliveries()) / (64 * 5);
  EXPECT_GT(rate, 0.95);
}

TEST(Multicast, DeadRepresentativeLosesOnlyItsSubtreeWithoutRedundancy) {
  MulticastEnv env(16, 4);
  // Kill one agent that represents its leaf zone; items forwarded through
  // it are lost (k=1), but other zones still receive.
  env.dep().net().Kill(env.dep().agent(5).id());
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  std::size_t received = 0;
  for (std::size_t i = 0; i < 16; ++i) received += env.delivered(i).size();
  EXPECT_GE(received, 16u - 5u);  // at worst the victim's whole zone (4) + self
  EXPECT_LT(received, 16u);       // the dead node itself cannot receive
}

TEST(Multicast, OverloadDropsInQueuesNotCrash) {
  MulticastConfig mc;
  mc.forward_bytes_per_sec = 5'000;  // tiny forwarding budget
  mc.forward_burst_bytes = 5'000;
  mc.max_queue_items = 10;
  MulticastEnv env(16, 4, mc);
  for (int k = 0; k < 300; ++k) {
    env.svc(0).SendToZone(ZonePath::Root(),
                          env.MakeItem("flood#" + std::to_string(k), 1000));
  }
  env.dep().RunFor(120);
  EXPECT_GT(env.svc(0).stats().queue_drops, 0u);
  // The system still delivered something.
  EXPECT_GT(env.TotalDeliveries(), 16u);
}

TEST(Multicast, StatsCountForwardBytes) {
  MulticastEnv env(16, 4);
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1", 500));
  env.dep().RunFor(30);
  EXPECT_GT(env.svc(0).stats().forwards, 0u);
  EXPECT_GT(env.svc(0).stats().forward_bytes,
            env.svc(0).stats().forwards * 500);
}

TEST(Multicast, HopCountsGrowWithDepth) {
  MulticastEnv env(64, 4);  // depth 3
  Item item = env.MakeItem("a#1");
  std::vector<int> hops(64, -1);
  for (std::size_t i = 0; i < 64; ++i) {
    env.svc(i).SetDeliveryCallback(
        [&hops, i](const Envelope& hop) { hops[i] = hop.hops; });
  }
  env.svc(0).SendToZone(ZonePath::Root(), item);
  env.dep().RunFor(30);
  int max_hops = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_GE(hops[i], 0) << "leaf " << i << " missed the item";
    max_hops = std::max(max_hops, hops[i]);
  }
  EXPECT_GE(max_hops, 2);  // at least two forwarding stages in a 3-level tree
  EXPECT_LE(max_hops, 4);
}

TEST(Multicast, EveryHopSharesOnePublishedItem) {
  MulticastEnv env(64, 4);  // depth 3
  std::vector<const Item*> got(64, nullptr);
  for (std::size_t i = 0; i < 64; ++i) {
    env.svc(i).SetDeliveryCallback(
        [&got, i](const Envelope& hop) { got[i] = hop.item.get(); });
  }
  env.svc(0).SendToZone(ZonePath::Root(), env.MakeItem("a#1"));
  env.dep().RunFor(30);
  ASSERT_NE(got[0], nullptr);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(got[i], got[0]) << "leaf " << i << " got its own copy";
  }
}

TEST(Multicast, CallerChangesAfterSendDoNotReachReceivers) {
  MulticastEnv env(16, 4);
  std::vector<std::shared_ptr<const Item>> got;
  for (std::size_t i = 0; i < 16; ++i) {
    env.svc(i).SetDeliveryCallback(
        [&got](const Envelope& hop) { got.push_back(hop.item); });
  }
  Item item = env.MakeItem("a#1", 300);
  item.metadata["urgency"] = std::int64_t{1};
  env.svc(0).SendToZone(ZonePath::Root(), item);
  item.id = "changed";
  item.body_bytes = 1;
  item.metadata["urgency"] = std::int64_t{8};
  env.dep().RunFor(30);
  ASSERT_EQ(got.size(), 16u);
  for (const auto& delivered : got) {
    EXPECT_EQ(delivered->id, "a#1");
    EXPECT_EQ(delivered->body_bytes, 300u);
    EXPECT_EQ(delivered->metadata.at("urgency").AsInt(), 1);
  }
}

// A reliable relay is charged the item (id + 16 + metadata row + body),
// the child zone's name and the 8-byte hop id, plus the network's header.
TEST(Multicast, ReliableHopWireBytesFollowTheItemFormula) {
  MulticastEnv env(4, 4);  // one level: leaves /n0 ... /n3
  Item item = env.MakeItem("a#1", 500);
  item.metadata["urgency"] = std::int64_t{1};
  env.svc(0).SendToZone(ZonePath::Root(), item);
  env.dep().RunFor(30);
  ASSERT_EQ(env.svc(0).stats().retransmits, 0u);
  const auto& rfwd =
      env.dep().net().StatsByType().at(
          std::string(MulticastService::kReliableType.name()));
  ASSERT_EQ(rfwd.messages, 3u);
  // id 3 + zone "/nK" 3 + 16 + row (8 + "urgency" 7 + 2 + int 8 = 25)
  // + body 500 = 547 per relay; + 8 hop id + 64 header on the wire.
  EXPECT_EQ(env.svc(0).stats().forward_bytes, 3u * 547u);
  EXPECT_EQ(rfwd.bytes, 3u * (547u + 8u + 64u));
}

}  // namespace
}  // namespace nw::multicast
