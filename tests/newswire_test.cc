// Tests for the NewsWire application layer: item model, message cache,
// publisher flow control and authentication, subscriber repair and state
// transfer, feed agents, and the whole-system harness.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "newswire/feed_agent.h"
#include "newswire/message_cache.h"
#include "newswire/news_item.h"
#include "newswire/system.h"

namespace nw::newswire {
namespace {

// ---------- NewsItem ----------

NewsItem MakeItem(const std::string& pub, std::uint64_t seq,
                  const std::string& subject) {
  NewsItem item;
  item.publisher = pub;
  item.seq = seq;
  item.subject = subject;
  item.headline = "headline " + std::to_string(seq);
  item.published_at = 1.5;
  return item;
}

TEST(NewsItem, IdCombinesPublisherAndSeq) {
  EXPECT_EQ(MakeItem("ap", 7, "x").Id(), "ap#7");
}

TEST(NewsItem, MetadataRoundTrip) {
  NewsItem item = MakeItem("reuters", 42, "world.politics");
  item.categories = 0b101;
  item.revision = 3;
  item.supersedes = "reuters#40";
  item.urgency = 2;
  item.signature = 0xdeadbeef;
  astrolabe::Row row = item.ToMetadata();
  row["subject"] = item.subject;  // stamped by the pub/sub layer
  auto back = NewsItem::FromMetadata(row);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Id(), item.Id());
  EXPECT_EQ(back->subject, item.subject);
  EXPECT_EQ(back->categories, item.categories);
  EXPECT_EQ(back->revision, 3);
  EXPECT_EQ(back->supersedes, "reuters#40");
  EXPECT_EQ(back->urgency, 2);
  EXPECT_EQ(back->signature, 0xdeadbeefu);
}

TEST(NewsItem, MalformedMetadataRejected) {
  astrolabe::Row row;
  row["publisher"] = "ap";  // missing everything else
  EXPECT_FALSE(NewsItem::FromMetadata(row).has_value());
  row["seq"] = "not-an-int";
  EXPECT_FALSE(NewsItem::FromMetadata(row).has_value());
}

TEST(NewsItem, DigestCoversContent) {
  NewsItem a = MakeItem("ap", 1, "x");
  NewsItem b = a;
  EXPECT_EQ(a.Digest(), b.Digest());
  b.headline = "tampered";
  EXPECT_NE(a.Digest(), b.Digest());
}

// ---------- MessageCache ----------

TEST(MessageCache, InsertAndDuplicate) {
  MessageCache cache;
  EXPECT_TRUE(cache.Insert(MakeItem("ap", 1, "x"), 1.0));
  EXPECT_FALSE(cache.Insert(MakeItem("ap", 1, "x"), 2.0));
  EXPECT_EQ(cache.stats().duplicates, 1u);
  EXPECT_TRUE(cache.Contains("ap#1"));
}

TEST(MessageCache, RevisionFusionDropsSuperseded) {
  MessageCache cache;
  cache.Insert(MakeItem("ap", 1, "x"), 1.0);
  NewsItem rev2 = MakeItem("ap", 2, "x");
  rev2.supersedes = "ap#1";
  rev2.revision = 2;
  EXPECT_TRUE(cache.Insert(rev2, 2.0));
  EXPECT_FALSE(cache.Contains("ap#1"));  // fused away (§9)
  EXPECT_TRUE(cache.Contains("ap#2"));
  EXPECT_EQ(cache.stats().superseded_dropped, 1u);
}

TEST(MessageCache, LateStaleRevisionRejected) {
  MessageCache cache;
  NewsItem rev2 = MakeItem("ap", 2, "x");
  rev2.supersedes = "ap#1";
  EXPECT_TRUE(cache.Insert(rev2, 1.0));
  // The original arrives late (out of order): rejected.
  EXPECT_FALSE(cache.Insert(MakeItem("ap", 1, "x"), 2.0));
  EXPECT_EQ(cache.stats().stale_revisions_rejected, 1u);
}

TEST(MessageCache, FusionCanBeDisabled) {
  MessageCache::Config cfg;
  cfg.fuse_revisions = false;
  MessageCache cache(cfg);
  NewsItem rev2 = MakeItem("ap", 2, "x");
  rev2.supersedes = "ap#1";
  cache.Insert(rev2, 1.0);
  EXPECT_TRUE(cache.Insert(MakeItem("ap", 1, "x"), 2.0));
}

TEST(MessageCache, CapacityEvictsOldest) {
  MessageCache::Config cfg;
  cfg.capacity = 3;
  MessageCache cache(cfg);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    cache.Insert(MakeItem("ap", i, "x"), double(i));
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Contains("ap#1"));
  EXPECT_FALSE(cache.Contains("ap#2"));
  EXPECT_TRUE(cache.Contains("ap#5"));
  EXPECT_EQ(cache.stats().evicted, 2u);
}

TEST(MessageCache, ItemsSinceFiltersByTimeAndSubject) {
  MessageCache cache;
  cache.Insert(MakeItem("ap", 1, "tech"), 1.0);
  cache.Insert(MakeItem("ap", 2, "sports"), 5.0);
  cache.Insert(MakeItem("ap", 3, "tech"), 9.0);
  EXPECT_EQ(cache.ItemsSince(0.0).size(), 3u);
  EXPECT_EQ(cache.ItemsSince(4.0).size(), 2u);
  EXPECT_EQ(cache.ItemsSince(0.0, {"tech"}).size(), 2u);
  EXPECT_EQ(cache.IdsSince(4.0).size(), 2u);
}

// ---------- the whole system ----------

SystemConfig SmallSystem(std::size_t subs, std::size_t pubs = 1,
                         std::uint64_t seed = 1) {
  SystemConfig cfg;
  cfg.num_subscribers = subs;
  cfg.num_publishers = pubs;
  cfg.branching = 4;
  cfg.seed = seed;
  cfg.catalog_size = 8;
  cfg.subjects_per_subscriber = 2;
  return cfg;
}

// SystemConfig inherits the deployment and agent tuning, so every knob set
// on it must arrive unchanged at every agent and at the network.
TEST(System, EveryTuningKnobReachesEveryAgent) {
  SystemConfig cfg = SmallSystem(15);
  cfg.gossip_period = 1.5;
  cfg.fail_timeout_rounds = 9;
  cfg.contacts_per_zone = 2;
  cfg.gossip_wire = astrolabe::GossipWireMode::kFull;
  cfg.phi.threshold = 5.0;
  cfg.phi.window = 7;
  cfg.phi.min_samples = 4;
  cfg.phi.floor_rounds = 3;
  cfg.force_full_recompute = true;
  cfg.top_level_names = {"asia", "europe", "americas", "africa"};
  cfg.net.base_latency = 0.05;
  cfg.net.loss_prob = 0.01;
  cfg.run_gossip = false;
  NewswireSystem sys(cfg);

  ASSERT_EQ(sys.node_count(), 16u);
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    const astrolabe::AgentConfig& ac = sys.deployment().agent(i).config();
    EXPECT_EQ(ac.gossip_period, 1.5) << "agent " << i;
    EXPECT_EQ(ac.fail_timeout_rounds, 9) << "agent " << i;
    EXPECT_EQ(ac.contacts_per_zone, 2) << "agent " << i;
    EXPECT_EQ(ac.gossip_wire, astrolabe::GossipWireMode::kFull)
        << "agent " << i;
    EXPECT_EQ(ac.phi.threshold, 5.0) << "agent " << i;
    EXPECT_EQ(ac.phi.window, 7u) << "agent " << i;
    EXPECT_EQ(ac.phi.min_samples, 4u) << "agent " << i;
    EXPECT_EQ(ac.phi.floor_rounds, 3) << "agent " << i;
    EXPECT_TRUE(ac.force_full_recompute) << "agent " << i;
  }
  EXPECT_EQ(sys.deployment().config().top_level_names, cfg.top_level_names);
  std::set<std::string> regions;
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    regions.insert(sys.deployment().PathFor(i).Component(0));
  }
  EXPECT_EQ(regions, (std::set<std::string>{"asia", "europe", "americas",
                                            "africa"}));
  EXPECT_EQ(sys.deployment().net().config().base_latency, 0.05);
  EXPECT_EQ(sys.deployment().net().config().loss_prob, 0.01);
}

TEST(System, PublishedItemsReachExactlyTheSubscribers) {
  NewswireSystem sys(SmallSystem(15));
  sys.RunFor(5);
  const std::string subject = sys.catalog()[0];
  const std::string id = sys.PublishArticle(0, subject);
  ASSERT_FALSE(id.empty());
  sys.RunFor(30);
  EXPECT_EQ(sys.DeliveredCount(id), sys.ExpectedRecipients(subject));
}

TEST(System, AllCatalogSubjectsRouteCorrectly) {
  NewswireSystem sys(SmallSystem(30));
  sys.RunFor(5);
  std::vector<std::pair<std::string, std::string>> published;
  for (const auto& subject : sys.catalog()) {
    const std::string id = sys.PublishArticle(0, subject);
    ASSERT_FALSE(id.empty());
    published.emplace_back(id, subject);
  }
  sys.RunFor(60);
  for (const auto& [id, subject] : published) {
    EXPECT_EQ(sys.DeliveredCount(id), sys.ExpectedRecipients(subject))
        << subject;
  }
}

TEST(System, LatencyIsSecondsNotMinutes) {
  NewswireSystem sys(SmallSystem(30));
  sys.RunFor(5);
  sys.PublishArticle(0, sys.catalog()[0]);
  sys.RunFor(60);
  ASSERT_GT(sys.latencies().Count(), 0u);
  EXPECT_LT(sys.latencies().Max(), 10.0);  // "tens of seconds" target (§1)
}

TEST(System, PublisherFlowControlThrottlesFlood) {
  SystemConfig cfg = SmallSystem(15);
  cfg.publisher_rate = 2.0;  // two items/s admitted
  cfg.publisher_burst = 2.0;
  NewswireSystem sys(cfg);
  sys.RunFor(5);
  int admitted = 0;
  for (int i = 0; i < 50; ++i) {
    if (!sys.PublishArticle(0, sys.catalog()[0]).empty()) ++admitted;
  }
  EXPECT_LE(admitted, 15);  // burst + accumulated tokens only
  EXPECT_GT(sys.publisher(0).stats().throttled, 30u);
}

TEST(System, ForgedItemsRejectedWhenVerificationOn) {
  SystemConfig cfg = SmallSystem(15);
  cfg.subscriber.verify_publishers = true;
  NewswireSystem sys(cfg);
  sys.RunFor(5);
  // A legitimate item flows.
  const std::string subject = sys.catalog()[0];
  const std::string id = sys.PublishArticle(0, subject);
  sys.RunFor(30);
  EXPECT_EQ(sys.DeliveredCount(id), sys.ExpectedRecipients(subject));

  // An impostor publishes under the same name from a subscriber node
  // without the signing key: delivered items must not increase.
  NewsItem forged;
  forged.publisher = "pub0";
  forged.seq = 999;
  forged.subject = subject;
  forged.headline = "FAKE";
  forged.published_at = sys.Now();
  forged.signature = 0x1234;  // wrong key
  const std::size_t node = sys.subscriber_node(0);
  sys.pubsub_at(node).Publish(forged.ToMulticastItem(), subject);
  sys.RunFor(30);
  EXPECT_EQ(sys.DeliveredCount("pub0#999"), 0u);
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    rejected += sys.subscriber(i).stats().bad_signature;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(System, RevisionsFuseInSubscriberCaches) {
  NewswireSystem sys(SmallSystem(15));
  sys.RunFor(5);
  const std::string subject = sys.catalog()[0];
  NewsItem story;
  story.subject = subject;
  story.headline = "v1";
  ASSERT_TRUE(sys.publisher(0).Publish(story));
  sys.RunFor(20);
  NewsItem prev;
  prev.publisher = "pub0";
  prev.seq = 1;
  prev.revision = 1;
  prev.subject = subject;
  NewsItem updated;
  updated.subject = subject;
  updated.headline = "v2";
  ASSERT_TRUE(sys.publisher(0).PublishRevision(prev, updated));
  sys.RunFor(30);
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    Subscriber& sub = sys.subscriber(i);
    if (sub.cache().Contains("pub0#2")) {
      EXPECT_FALSE(sub.cache().Contains("pub0#1"))
          << "subscriber " << i << " kept a superseded revision";
    }
  }
}

TEST(System, RepairRecoversItemsLostToMessageLoss) {
  SystemConfig cfg = SmallSystem(24, 1, 3);
  cfg.net.loss_prob = 0.25;  // heavy loss
  cfg.subscriber.repair_interval = 5.0;
  cfg.subscriber.repair_window = 300.0;
  cfg.catalog_size = 2;      // everyone shares subjects -> peers can repair
  cfg.subjects_per_subscriber = 2;
  NewswireSystem sys(cfg);
  sys.RunFor(5);
  std::vector<std::pair<std::string, std::string>> published;
  for (int k = 0; k < 10; ++k) {
    const std::string subject = sys.catalog()[k % 2];
    const std::string id = sys.PublishArticle(0, subject);
    if (!id.empty()) published.emplace_back(id, subject);
  }
  sys.RunFor(240);  // time for several repair rounds
  std::size_t missing = 0, expected_total = 0;
  for (const auto& [id, subject] : published) {
    expected_total += sys.ExpectedRecipients(subject);
    missing += sys.ExpectedRecipients(subject) - sys.DeliveredCount(id);
  }
  std::uint64_t repaired = 0;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    repaired += sys.subscriber(i).stats().repaired;
  }
  EXPECT_GT(repaired, 0u);  // anti-entropy actually recovered items
  // End-to-end completeness despite 25% loss:
  EXPECT_GT(expected_total, 0u);
  EXPECT_LT(double(missing) / double(expected_total), 0.05);
}

TEST(System, StateTransferCatchesUpAJoiner) {
  SystemConfig cfg = SmallSystem(24);
  cfg.catalog_size = 4;  // > subjects per subscriber: some miss catalog[0]
  NewswireSystem sys(cfg);
  sys.RunFor(5);
  for (int k = 0; k < 5; ++k) {
    sys.PublishArticle(0, sys.catalog()[0]);
  }
  sys.RunFor(20);
  // Find a donor holding the published items, and a joiner that was not
  // subscribed while they were published (its cache misses them).
  std::size_t donor = SIZE_MAX, joiner = SIZE_MAX;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    if (donor == SIZE_MAX && sys.subscriber(i).cache().size() >= 5) donor = i;
    if (joiner == SIZE_MAX && sys.subscriber(i).cache().size() == 0) joiner = i;
  }
  ASSERT_NE(donor, SIZE_MAX);
  ASSERT_NE(joiner, SIZE_MAX) << "every subscriber already holds the items";
  sys.subscriber(joiner).Subscribe(sys.catalog()[0]);
  const std::size_t before = sys.subscriber(joiner).cache().size();
  sys.subscriber(joiner).RequestStateTransfer(
      sys.subscriber_agent(donor).id());
  sys.RunFor(10);
  EXPECT_GE(sys.subscriber(joiner).cache().size(), before + 1);
  EXPECT_GT(sys.subscriber(joiner).stats().state_transfer, 0u);
}

TEST(System, ScopedPublishConfinesDelivery) {
  SystemConfig cfg = SmallSystem(30);
  cfg.catalog_size = 1;  // everyone subscribes to the same subject
  cfg.subjects_per_subscriber = 1;
  NewswireSystem sys(cfg);
  sys.RunFor(5);
  const astrolabe::ZonePath scope = sys.publisher_agent(0).path().Prefix(1);
  const std::string id = sys.PublishArticle(0, sys.catalog()[0], scope);
  ASSERT_FALSE(id.empty());
  sys.RunFor(30);
  std::size_t in_scope = 0;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    const bool inside = scope.IsPrefixOf(sys.subscriber_agent(i).path());
    const bool got = sys.subscriber(i).cache().Contains(id);
    if (inside) ++in_scope;
    EXPECT_EQ(got, inside) << "subscriber " << i;
  }
  EXPECT_GT(in_scope, 0u);
  EXPECT_LT(in_scope, sys.subscriber_count());
}

TEST(System, PublisherPredicateTargetsPremiumSubscribers) {
  SystemConfig cfg = SmallSystem(30);
  cfg.catalog_size = 1;  // everyone subscribes the same subject
  cfg.subjects_per_subscriber = 1;
  NewswireSystem sys(cfg);
  // Half of the subscribers export premium=1 in their MIB; re-aggregate
  // with MAX so a zone advertises whether any premium subscriber exists.
  sys.deployment().InstallFunctionEverywhere("premium",
                                             "SELECT MAX(premium) AS premium");
  for (std::size_t i = 0; i < sys.subscriber_count(); i += 2) {
    sys.subscriber_agent(i).SetLocalAttr("premium", std::int64_t{1});
  }
  sys.deployment().WarmStart();  // refresh replicas with the new attribute
  sys.RunFor(5);
  NewsItem item;
  item.subject = sys.catalog()[0];
  item.headline = "premium only";
  item.forward_predicate = "premium = 1";
  ASSERT_TRUE(sys.publisher(0).Publish(item));
  sys.RunFor(30);
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    const bool premium = (i % 2 == 0);
    EXPECT_EQ(sys.subscriber(i).cache().Contains("pub0#1"), premium)
        << "subscriber " << i;
  }
}

TEST(System, PredicateSurvivesRepairPath) {
  // A repaired copy must not leak to a non-premium subscriber: the
  // predicate is re-evaluated against the local MIB row on repair arrival.
  SystemConfig cfg = SmallSystem(10);
  NewswireSystem sys(cfg);
  NewsItem item;
  item.publisher = "pub0";
  item.seq = 5;
  item.subject = sys.catalog()[0];
  item.forward_predicate = "premium = 1";
  item.published_at = 1.0;
  // Inject directly through the acceptance path via a fake repair batch.
  Subscriber& sub = sys.subscriber(0);
  sub.Subscribe(sys.catalog()[0]);
  Subscriber::ItemBatch batch;
  batch.items.push_back(item);
  const std::size_t wire = batch.WireBytes();
  auto& donor_agent = sys.subscriber_agent(1);
  donor_agent.Send(sim::Message::Make(donor_agent.id(),
                                      sys.subscriber_agent(0).id(),
                                      Subscriber::kRepairType, batch, wire));
  sys.RunFor(5);
  EXPECT_FALSE(sub.cache().Contains("pub0#5"));  // not premium
  sys.subscriber_agent(0).SetLocalAttr("premium", std::int64_t{1});
  donor_agent.Send(sim::Message::Make(donor_agent.id(),
                                      sys.subscriber_agent(0).id(),
                                      Subscriber::kRepairType, batch, wire));
  sys.RunFor(5);
  EXPECT_TRUE(sub.cache().Contains("pub0#5"));  // premium now
}

TEST(System, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    NewswireSystem sys(SmallSystem(15, 1, seed));
    sys.RunFor(5);
    sys.PublishArticle(0, sys.catalog()[0]);
    sys.RunFor(30);
    return sys.total_delivered();
  };
  EXPECT_EQ(run(7), run(7));
}

// ---------- feed agent ----------

TEST(FeedAgent, RepublishesLegacyArticlesIntoNewswire) {
  SystemConfig cfg = SmallSystem(15);
  cfg.catalog_size = 1;
  cfg.subjects_per_subscriber = 1;
  NewswireSystem sys(cfg);

  // A legacy pull site on the same simulated network.
  baseline::PullServer legacy(25);
  sys.deployment().net().AddNode(&legacy);

  FeedAgentConfig fc;
  fc.legacy_server = legacy.id();
  fc.poll_interval = 10.0;
  FeedAgent feed(sys.publisher_agent(0), sys.publisher(0), fc);
  feed.Start();
  sys.RunFor(5);

  // The legacy site posts articles on the catalog subject.
  sys.deployment().sim().At(sys.Now() + 1, [&] {
    legacy.AddArticle(1500, 90, sys.catalog()[0]);
    legacy.AddArticle(900, 90, sys.catalog()[0]);
  });
  sys.RunFor(60);
  EXPECT_EQ(feed.stats().republished, 2u);
  EXPECT_EQ(sys.DeliveredCount("pub0#1"),
            sys.ExpectedRecipients(sys.catalog()[0]));
  EXPECT_EQ(sys.DeliveredCount("pub0#2"),
            sys.ExpectedRecipients(sys.catalog()[0]));
}

}  // namespace
}  // namespace nw::newswire
