// Tests for the Bloom-filter pub/sub layer and the §7 category-mask
// prototype.
#include <gtest/gtest.h>

#include <memory>

#include "astrolabe/deployment.h"
#include "pubsub/bloom_filter.h"
#include "pubsub/category_subscriptions.h"
#include "pubsub/pubsub.h"

namespace nw::pubsub {
namespace {

using astrolabe::Deployment;
using astrolabe::DeploymentConfig;
using astrolabe::ZonePath;

// ---------- BloomFilter unit tests ----------

TEST(BloomFilter, NoFalseNegatives) {
  BloomConfig cfg;
  cfg.bits = 256;
  cfg.hashes = 2;
  BloomFilter f(cfg);
  std::vector<std::string> subjects;
  for (int i = 0; i < 50; ++i) subjects.push_back("s" + std::to_string(i));
  for (const auto& s : subjects) f.Add(s);
  for (const auto& s : subjects) {
    EXPECT_TRUE(f.MightContain(s)) << s;  // Bloom property: never a miss
  }
}

TEST(BloomFilter, PositionsAreDeterministicAndShared) {
  BloomConfig cfg;
  BloomFilter a(cfg), b(cfg);
  EXPECT_EQ(a.Positions("tech.linux"), b.Positions("tech.linux"));
  EXPECT_NE(a.Positions("tech.linux"), a.Positions("tech.bsd"));
}

TEST(BloomFilter, SingleHashByDefaultMatchesPaper) {
  BloomFilter f(BloomConfig{});
  EXPECT_EQ(f.Positions("anything").size(), 1u);
}

TEST(BloomFilter, FalsePositiveRateShrinksWithArraySize) {
  auto fp_rate = [](std::size_t bits) {
    BloomConfig cfg;
    cfg.bits = bits;
    BloomFilter f(cfg);
    for (int i = 0; i < 100; ++i) f.Add("sub" + std::to_string(i));
    int fp = 0;
    const int kProbes = 2000;
    for (int i = 0; i < kProbes; ++i) {
      if (f.MightContain("other" + std::to_string(i))) ++fp;
    }
    return double(fp) / kProbes;
  };
  EXPECT_GT(fp_rate(128), fp_rate(1024));
  EXPECT_LT(fp_rate(4096), 0.05);
}

TEST(BloomFilter, AdmitsChecksAllStampedBits) {
  BloomConfig cfg;
  cfg.bits = 64;
  BloomFilter f(cfg);
  f.Add("a");
  const auto positions = f.Positions("a");
  EXPECT_TRUE(BloomFilter::Admits(f.bits(), positions));
  EXPECT_FALSE(BloomFilter::Admits(f.bits(), {63, positions[0]}));
  // Out-of-range bits never admit.
  EXPECT_FALSE(BloomFilter::Admits(f.bits(), {9999}));
}

// ---------- end-to-end pub/sub over the zone tree ----------

class PubSubEnv {
 public:
  explicit PubSubEnv(std::size_t n, std::size_t branching,
                     BloomConfig bloom = {}, std::uint64_t seed = 1)
      : dep_(n, [&] {
          DeploymentConfig cfg;
          cfg.branching = branching;
          cfg.seed = seed;
          return cfg;
        }()) {
    dep_.InstallFunctionEverywhere(kSubsFunctionName, SubsFunctionCode());
    for (std::size_t i = 0; i < dep_.size(); ++i) {
      mc_.push_back(std::make_unique<multicast::MulticastService>(
          dep_.agent(i), multicast::MulticastConfig{}));
      ps_.push_back(std::make_unique<PubSubService>(dep_.agent(i), *mc_[i],
                                                    bloom));
      received_.emplace_back();
      ps_.back()->SetNewsCallback([this, i](const multicast::Item& item) {
        received_[i].push_back(item.id);
      });
    }
  }

  void Converge() { dep_.WarmStart(); }

  Deployment& dep() { return dep_; }
  PubSubService& ps(std::size_t i) { return *ps_[i]; }
  multicast::MulticastService& mc(std::size_t i) { return *mc_[i]; }
  const std::vector<std::string>& received(std::size_t i) const {
    return received_[i];
  }

  void Publish(std::size_t from, const std::string& id,
               const std::string& subject) {
    multicast::Item item;
    item.id = id;
    item.body_bytes = 512;
    ps_[from]->Publish(std::move(item), subject);
  }

 private:
  Deployment dep_;
  std::vector<std::unique_ptr<multicast::MulticastService>> mc_;
  std::vector<std::unique_ptr<PubSubService>> ps_;
  std::vector<std::vector<std::string>> received_;
};

TEST(PubSub, OnlySubscribersReceive) {
  PubSubEnv env(27, 3);
  env.ps(3).Subscribe("tech.linux");
  env.ps(17).Subscribe("tech.linux");
  env.ps(20).Subscribe("sports.chess");
  env.Converge();
  env.Publish(0, "p#1", "tech.linux");
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 27; ++i) {
    const bool expect = (i == 3 || i == 17);
    EXPECT_EQ(env.received(i).size(), expect ? 1u : 0u) << "leaf " << i;
  }
}

TEST(PubSub, NoSubscribersMeansAlmostNoTraffic) {
  PubSubEnv env(27, 3);
  env.Converge();
  env.dep().net().ResetStats();
  env.Publish(0, "p#1", "nobody.cares");
  env.dep().RunFor(30);
  // The item may only cross links due to Bloom collisions; with an empty
  // subscription system the aggregated filters are empty, so nothing
  // is forwarded at all.
  const auto total = env.dep().net().TotalStats();
  EXPECT_EQ(total.messages_sent, 0u);
}

TEST(PubSub, SubscribersInEveryZoneReceive) {
  PubSubEnv env(27, 3);
  for (std::size_t i = 0; i < 27; i += 2) env.ps(i).Subscribe("world.news");
  env.Converge();
  env.Publish(1, "p#1", "world.news");
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 27; ++i) {
    EXPECT_EQ(env.received(i).size(), (i % 2 == 0) ? 1u : 0u) << i;
  }
}

TEST(PubSub, LeafRecheckSuppressesBloomFalsePositives) {
  // A tiny filter forces collisions: subscriber A's subject collides with
  // the published subject's bit, but the exact re-check must reject it.
  BloomConfig bloom;
  bloom.bits = 2;  // everything collides
  PubSubEnv env(9, 3, bloom);
  env.ps(4).Subscribe("subject.a");
  env.Converge();
  env.Publish(0, "p#1", "subject.b");  // same bit with high probability
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_TRUE(env.received(i).empty()) << "leaf " << i;
  }
  // The item traveled (false-positive forwarding) but was rejected at a
  // leaf; with 2 bits the collision is near-certain but not guaranteed,
  // so only assert on deliveries above.
}

TEST(PubSub, PredicateRefinesSubscription) {
  PubSubEnv env(9, 3);
  env.ps(2).Subscribe("markets");
  env.ps(2).SetPredicate("urgency <= 2");
  env.ps(7).Subscribe("markets");
  env.Converge();
  multicast::Item urgent;
  urgent.id = "p#1";
  urgent.metadata["urgency"] = std::int64_t{1};
  env.ps(0).Publish(std::move(urgent), "markets");
  multicast::Item routine;
  routine.id = "p#2";
  routine.metadata["urgency"] = std::int64_t{8};
  env.ps(0).Publish(std::move(routine), "markets");
  env.dep().RunFor(30);
  EXPECT_EQ(env.received(2).size(), 1u);  // urgent only
  EXPECT_EQ(env.received(7).size(), 2u);  // no predicate: both
  EXPECT_EQ(env.ps(2).stats().predicate_rejected, 1u);
}

TEST(PubSub, SubscriptionChangePropagatesThroughGossip) {
  PubSubEnv env(16, 4);
  env.dep().StartAll();
  env.dep().RunFor(60);  // converge membership
  env.ps(9).Subscribe("late.subject");
  env.dep().RunFor(60);  // filter flows up within "tens of seconds"
  env.Publish(0, "p#1", "late.subject");
  env.dep().RunFor(30);
  EXPECT_EQ(env.received(9).size(), 1u);
}

TEST(PubSub, UnsubscribeEventuallyStopsDelivery) {
  PubSubEnv env(16, 4);
  env.ps(9).Subscribe("s.x");
  env.dep().StartAll();
  env.dep().RunFor(60);
  env.ps(9).Unsubscribe("s.x");
  env.dep().RunFor(90);  // old filter bits age out of the aggregates
  env.Publish(0, "p#1", "s.x");
  env.dep().RunFor(30);
  EXPECT_TRUE(env.received(9).empty());
}

TEST(PubSub, ChildAdmitsMissingFilterErrsTowardDelivery) {
  multicast::Item item;
  item.metadata[kAttrSubBits] =
      astrolabe::ValueList{astrolabe::AttrValue(std::int64_t{5})};
  astrolabe::Row child;  // no "subs" attribute yet
  EXPECT_TRUE(PubSubService::ChildAdmits(item, child));
}

TEST(PubSub, ChildAdmitsChecksBits) {
  multicast::Item item;
  item.metadata[kAttrSubBits] =
      astrolabe::ValueList{astrolabe::AttrValue(std::int64_t{5})};
  astrolabe::BitVector bv(64);
  astrolabe::Row child;
  bv.Set(5);
  child[kAttrSubs] = bv;
  EXPECT_TRUE(PubSubService::ChildAdmits(item, child));
  bv.Clear(5);
  bv.Set(6);
  child[kAttrSubs] = bv;
  EXPECT_FALSE(PubSubService::ChildAdmits(item, child));
}

// ---------- hierarchical subjects (§7 enriched subscription space) ----------

TEST(SubjectHierarchy, PrefixLaws) {
  EXPECT_TRUE(SubjectIsUnder("tech.linux", "tech"));
  EXPECT_TRUE(SubjectIsUnder("tech.linux.kernel", "tech.linux"));
  EXPECT_TRUE(SubjectIsUnder("tech", "tech"));
  EXPECT_FALSE(SubjectIsUnder("technology", "tech"));  // not a dot boundary
  EXPECT_FALSE(SubjectIsUnder("tech", "tech.linux"));
  EXPECT_EQ(SubjectPrefixes("a.b.c"),
            (std::vector<std::string>{"a", "a.b", "a.b.c"}));
  EXPECT_EQ(SubjectPrefixes("solo"), (std::vector<std::string>{"solo"}));
}

class HierarchicalEnv {
 public:
  explicit HierarchicalEnv(std::size_t n, std::size_t branching)
      : dep_(n, [&] {
          DeploymentConfig cfg;
          cfg.branching = branching;
          cfg.seed = 2;
          return cfg;
        }()) {
    dep_.InstallFunctionEverywhere(kSubsFunctionName, SubsFunctionCode());
    PubSubOptions opts;
    opts.hierarchical_subjects = true;
    for (std::size_t i = 0; i < dep_.size(); ++i) {
      mc_.push_back(std::make_unique<multicast::MulticastService>(
          dep_.agent(i), multicast::MulticastConfig{}));
      ps_.push_back(
          std::make_unique<PubSubService>(dep_.agent(i), *mc_[i], opts));
      received_.emplace_back();
      ps_.back()->SetNewsCallback([this, i](const multicast::Item& item) {
        received_[i].push_back(item.id);
      });
    }
  }
  astrolabe::Deployment& dep() { return dep_; }
  PubSubService& ps(std::size_t i) { return *ps_[i]; }
  const std::vector<std::string>& received(std::size_t i) const {
    return received_[i];
  }

 private:
  astrolabe::Deployment dep_;
  std::vector<std::unique_ptr<multicast::MulticastService>> mc_;
  std::vector<std::unique_ptr<PubSubService>> ps_;
  std::vector<std::vector<std::string>> received_;
};

TEST(SubjectHierarchy, AncestorSubscriptionReceivesDescendants) {
  HierarchicalEnv env(16, 4);
  env.ps(3).Subscribe("tech");              // whole tech section
  env.ps(9).Subscribe("tech.linux");        // one subtree
  env.ps(12).Subscribe("sports");           // unrelated
  env.dep().WarmStart();
  multicast::Item item;
  item.id = "p#1";
  env.ps(0).Publish(std::move(item), "tech.linux.kernel");
  env.dep().RunFor(30);
  EXPECT_EQ(env.received(3).size(), 1u);   // via "tech"
  EXPECT_EQ(env.received(9).size(), 1u);   // via "tech.linux"
  EXPECT_TRUE(env.received(12).empty());
}

TEST(SubjectHierarchy, ExactSubjectStillWorks) {
  HierarchicalEnv env(16, 4);
  env.ps(5).Subscribe("tech.linux");
  env.dep().WarmStart();
  multicast::Item a;
  a.id = "p#1";
  env.ps(0).Publish(std::move(a), "tech.linux");
  multicast::Item b;
  b.id = "p#2";
  env.ps(0).Publish(std::move(b), "tech");  // ancestor only: no match
  env.dep().RunFor(30);
  EXPECT_EQ(env.received(5).size(), 1u);
  EXPECT_EQ(env.received(5)[0], "p#1");
}

TEST(SubjectHierarchy, NoDotCollisionFalseDelivery) {
  HierarchicalEnv env(9, 3);
  env.ps(2).Subscribe("tech");
  env.dep().WarmStart();
  multicast::Item item;
  item.id = "p#1";
  env.ps(0).Publish(std::move(item), "technology.news");
  env.dep().RunFor(30);
  EXPECT_TRUE(env.received(2).empty());  // "technology" is not under "tech"
}

TEST(SubjectHierarchy, FlatListStampStillAdmits) {
  // Backward compatibility of the wire format: a flat conjunctive group.
  multicast::Item item;
  item.metadata[kAttrSubBits] =
      astrolabe::ValueList{astrolabe::AttrValue(std::int64_t{3})};
  astrolabe::BitVector bv(8);
  bv.Set(3);
  astrolabe::Row child;
  child[kAttrSubs] = bv;
  EXPECT_TRUE(PubSubService::ChildAdmits(item, child));
  // Grouped format: second group matches even though first does not.
  astrolabe::ValueList g1{astrolabe::AttrValue(std::int64_t{7})};
  astrolabe::ValueList g2{astrolabe::AttrValue(std::int64_t{3})};
  item.metadata[kAttrSubBits] = astrolabe::ValueList{
      astrolabe::AttrValue(g1), astrolabe::AttrValue(g2)};
  EXPECT_TRUE(PubSubService::ChildAdmits(item, child));
}

// ---------- the §7 category-mask prototype ----------

class CategoryEnv {
 public:
  explicit CategoryEnv(std::size_t n, std::size_t branching,
                       const std::vector<std::string>& publishers)
      : dep_(n, [&] {
          DeploymentConfig cfg;
          cfg.branching = branching;
          return cfg;
        }()) {
    for (const auto& p : publishers) {
      dep_.InstallFunctionEverywhere(CategoryFunctionNameFor(p),
                                     CategoryFunctionCodeFor(p));
    }
    for (std::size_t i = 0; i < dep_.size(); ++i) {
      mc_.push_back(std::make_unique<multicast::MulticastService>(
          dep_.agent(i), multicast::MulticastConfig{}));
      cs_.push_back(
          std::make_unique<CategorySubscriptions>(dep_.agent(i), *mc_[i]));
      received_.emplace_back();
      cs_.back()->SetNewsCallback([this, i](const multicast::Item& item) {
        received_[i].push_back(item.id);
      });
    }
  }

  astrolabe::Deployment& dep() { return dep_; }
  CategorySubscriptions& cs(std::size_t i) { return *cs_[i]; }
  const std::vector<std::string>& received(std::size_t i) const {
    return received_[i];
  }

 private:
  astrolabe::Deployment dep_;
  std::vector<std::unique_ptr<multicast::MulticastService>> mc_;
  std::vector<std::unique_ptr<CategorySubscriptions>> cs_;
  std::vector<std::vector<std::string>> received_;
};

TEST(CategoryScheme, MaskRoutingDeliversMatchingCategories) {
  CategoryEnv env(16, 4, {"reuters"});
  env.cs(3).Subscribe("reuters", 0b0001);   // category 0
  env.cs(10).Subscribe("reuters", 0b0110);  // categories 1,2
  env.dep().WarmStart();
  multicast::Item item;
  item.id = "r#1";
  env.cs(0).Publish(std::move(item), "reuters", 0b0010);  // category 1
  env.dep().RunFor(30);
  EXPECT_TRUE(env.received(3).empty());
  EXPECT_EQ(env.received(10).size(), 1u);
}

TEST(CategoryScheme, UnknownPublisherIsNotForwarded) {
  CategoryEnv env(16, 4, {"reuters"});
  env.cs(3).Subscribe("reuters", 1);
  env.dep().WarmStart();
  multicast::Item item;
  item.id = "x#1";
  env.cs(0).Publish(std::move(item), "upstart", 1);  // no aggregation fn
  env.dep().RunFor(30);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(env.received(i).empty()) << i;
  }
}

TEST(CategoryScheme, ChildAdmitsIntersectsMasks) {
  multicast::Item item;
  item.metadata[kAttrPublisher] = std::string("reuters");
  item.metadata[kAttrCatMask] = std::int64_t{0b0101};
  astrolabe::Row child;
  child[CategoryAttrFor("reuters")] = std::int64_t{0b0100};
  EXPECT_TRUE(CategorySubscriptions::ChildAdmits(item, child));
  child[CategoryAttrFor("reuters")] = std::int64_t{0b1010};
  EXPECT_FALSE(CategorySubscriptions::ChildAdmits(item, child));
  astrolabe::Row empty;
  EXPECT_FALSE(CategorySubscriptions::ChildAdmits(item, empty));
}

}  // namespace
}  // namespace nw::pubsub
