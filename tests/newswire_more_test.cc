// Additional NewsWire coverage: signature scope binding, feed-agent edge
// cases, archive hook, and cache boundary behavior.
#include <gtest/gtest.h>

#include "newswire/feed_agent.h"
#include "newswire/system.h"

namespace nw::newswire {
namespace {

SystemConfig Small(std::size_t subs = 15, std::uint64_t seed = 2) {
  SystemConfig cfg;
  cfg.num_subscribers = subs;
  cfg.num_publishers = 1;
  cfg.branching = 4;
  cfg.catalog_size = 4;
  cfg.subjects_per_subscriber = 2;
  cfg.seed = seed;
  return cfg;
}

TEST(Signature, ScopeIsBoundIntoTheSignature) {
  // A valid item whose scope string is widened after signing must fail
  // verification: re-scoping a localized item is tampering.
  SystemConfig cfg = Small();
  cfg.subscriber.verify_publishers = true;
  cfg.catalog_size = 1;
  cfg.subjects_per_subscriber = 1;
  NewswireSystem sys(cfg);
  sys.RunFor(5);
  const astrolabe::ZonePath scope = sys.publisher_agent(0).path().Prefix(1);
  const std::string id = sys.PublishArticle(0, sys.catalog()[0], scope);
  ASSERT_FALSE(id.empty());
  sys.RunFor(20);
  // Pick a subscriber inside scope: it verified and cached the item.
  std::size_t holder = SIZE_MAX;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    if (sys.subscriber(i).cache().Contains(id)) holder = i;
  }
  ASSERT_NE(holder, SIZE_MAX);
  NewsItem stolen = *sys.subscriber(holder).cache().Find(id);
  stolen.scope = "/";  // widen the scope without the signing key
  EXPECT_FALSE(astrolabe::VerifyDigest(
      /*pub key known to subscribers*/ 0, stolen.Digest(), stolen.signature))
      << "tampered digest should not verify under any key";
  // And re-injected through the pub/sub path, nobody outside accepts it.
  const std::size_t outside_node = sys.subscriber_node(
      (holder + 1) % sys.subscriber_count());
  sys.pubsub_at(outside_node).Publish(stolen.ToMulticastItem(),
                                      stolen.subject);
  sys.RunFor(20);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    bad += sys.subscriber(i).stats().bad_signature;
  }
  EXPECT_GT(bad, 0u);
}

TEST(Signature, ForwardPredicateIsBoundIntoTheSignature) {
  NewsItem item;
  item.publisher = "p";
  item.seq = 1;
  item.subject = "s";
  item.forward_predicate = "premium = 1";
  const auto digest_with = item.Digest();
  item.forward_predicate.clear();  // strip targeting after signing
  EXPECT_NE(item.Digest(), digest_with);
}

TEST(PublisherArchive, PublisherCachesItsOwnItems) {
  NewswireSystem sys(Small());
  sys.RunFor(5);
  const std::string id = sys.PublishArticle(0, sys.catalog()[0]);
  ASSERT_FALSE(id.empty());
  sys.RunFor(5);
  // The publisher core's cache can serve repair for its own output: ask
  // it for a state transfer from a fresh subscriber.
  Subscriber& joiner = sys.subscriber(0);
  joiner.Subscribe(sys.catalog()[0]);
  joiner.RequestStateTransfer(sys.publisher_agent(0).id());
  sys.RunFor(5);
  EXPECT_TRUE(joiner.cache().Contains(id));
}

TEST(FeedAgent, DoesNotRepublishDuplicates) {
  NewswireSystem sys(Small());
  baseline::PullServer legacy(10);
  sys.deployment().net().AddNode(&legacy);
  FeedAgentConfig fc;
  fc.legacy_server = legacy.id();
  fc.poll_interval = 5.0;
  FeedAgent feed(sys.publisher_agent(0), sys.publisher(0), fc);
  feed.Start();
  sys.deployment().sim().At(sys.Now() + 1, [&] {
    legacy.AddArticle(1000, 50, sys.catalog()[0]);
  });
  sys.RunFor(60);  // many polls over the same article
  EXPECT_GT(feed.stats().polls, 5u);
  EXPECT_EQ(feed.stats().republished, 1u);
}

TEST(FeedAgent, ThrottledByPublisherFlowControl) {
  SystemConfig cfg = Small();
  cfg.publisher_rate = 0.001;
  cfg.publisher_burst = 1.0;
  NewswireSystem sys(cfg);
  baseline::PullServer legacy(25);
  sys.deployment().net().AddNode(&legacy);
  FeedAgentConfig fc;
  fc.legacy_server = legacy.id();
  fc.poll_interval = 5.0;
  FeedAgent feed(sys.publisher_agent(0), sys.publisher(0), fc);
  feed.Start();
  sys.deployment().sim().At(sys.Now() + 1, [&] {
    for (int i = 0; i < 5; ++i) legacy.AddArticle(1000, 50, sys.catalog()[0]);
  });
  sys.RunFor(30);
  EXPECT_EQ(feed.stats().republished, 1u);  // burst of 1 admitted
  EXPECT_EQ(feed.stats().throttled, 4u);
}

TEST(Publisher, RevisionChainsSupersedesAndInheritsSubject) {
  NewswireSystem sys(Small());
  sys.RunFor(5);
  // Publish an original on a subject somebody subscribes to.
  const std::string subject = sys.SubjectsOf(0)[0];
  const std::string id1 = sys.PublishArticle(0, subject);
  ASSERT_FALSE(id1.empty());
  sys.RunFor(10);

  // PublishRevision only reads the chain fields of `prev`.
  NewsItem prev;
  prev.publisher = sys.publisher(0).name();
  prev.seq = 1;
  prev.subject = subject;
  prev.revision = 0;
  ASSERT_EQ(prev.Id(), id1);

  NewsItem update;
  update.headline = "corrected";
  update.body_bytes = 512;  // subject left empty: inherited from prev
  ASSERT_TRUE(sys.publisher(0).PublishRevision(prev, update));
  sys.RunFor(10);

  const std::string id2 = sys.publisher(0).name() + "#2";
  std::size_t holder = SIZE_MAX;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    if (sys.subscriber(i).cache().Contains(id2)) holder = i;
  }
  ASSERT_NE(holder, SIZE_MAX) << "revision was disseminated like any item";
  const NewsItem* rev = sys.subscriber(holder).cache().Find(id2);
  ASSERT_NE(rev, nullptr);
  EXPECT_EQ(rev->supersedes, id1);
  EXPECT_EQ(rev->revision, 1u);
  EXPECT_EQ(rev->subject, subject) << "empty subject inherits from prev";
  // fuse_revisions: accepting the successor evicted the original.
  EXPECT_FALSE(sys.subscriber(holder).cache().Contains(id1));
}

TEST(Publisher, FlowControlThrottlesAndKeepsSequenceGapFree) {
  SystemConfig cfg = Small();
  cfg.publisher_rate = 0.001;  // effectively no refill during the test
  cfg.publisher_burst = 2.0;
  NewswireSystem sys(cfg);
  sys.RunFor(5);
  int admitted = 0, refused = 0;
  for (int k = 0; k < 5; ++k) {
    if (sys.PublishArticle(0, sys.catalog()[0]).empty()) {
      ++refused;
    } else {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 2);  // the burst allowance
  EXPECT_EQ(refused, 3);
  const Publisher::Stats& stats = sys.publisher(0).stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.throttled, 3u);
  // Refused items consume no sequence numbers: ids stay dense.
  EXPECT_EQ(sys.publisher(0).next_seq(), 3u);
}

TEST(CacheBoundary, IdsSinceIsInclusive) {
  MessageCache cache;
  NewsItem a;
  a.publisher = "p";
  a.seq = 1;
  cache.Insert(a, 5.0);
  EXPECT_EQ(cache.IdsSince(5.0).size(), 1u);   // >= since
  EXPECT_EQ(cache.IdsSince(5.01).size(), 0u);
}

TEST(CacheBoundary, FindReturnsStoredContent) {
  MessageCache cache;
  NewsItem a;
  a.publisher = "p";
  a.seq = 9;
  a.headline = "hello";
  a.body_bytes = 1234;
  cache.Insert(a, 1.0);
  const NewsItem* found = cache.Find("p#9");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->headline, "hello");
  EXPECT_EQ(found->body_bytes, 1234u);
  EXPECT_EQ(cache.Find("p#10"), nullptr);
}

TEST(SubscriberConfig, WrongCertKindIgnored) {
  NewswireSystem sys(Small());
  astrolabe::Certificate wrong;
  wrong.kind = astrolabe::CertKind::kAgent;
  wrong.subject = "pubX";
  wrong.subject_key = 42;
  sys.subscriber(0).AddPublisherCert(wrong);  // silently ignored
  // No crash, and behavior unchanged (nothing to assert beyond liveness).
  sys.RunFor(1);
}

TEST(MulticastItem, WireBytesIncludeBodyAndMetadata) {
  NewsItem item;
  item.publisher = "p";
  item.seq = 1;
  item.subject = "subject";
  item.headline = std::string(100, 'h');
  item.body_bytes = 5000;
  multicast::Item wire = item.ToMulticastItem();
  EXPECT_GT(wire.WireBytes(), 5100u);
  auto back = NewsItem::FromMulticastItem(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->body_bytes, 5000u);
  EXPECT_EQ(back->headline, item.headline);
}

}  // namespace
}  // namespace nw::newswire
