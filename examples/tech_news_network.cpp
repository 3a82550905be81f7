// The paper's first planned configuration (§10): "targeted towards the
// publishing of technical news articles by sites such as Slashdot.org,
// Wired, The Register, SilliconValley.com, News.com".
//
// Five tech publishers — two native NewsWire publishers and three legacy
// pull-model sites bridged by RSS feed agents — serve 500 subscribers
// with Zipf-skewed interests. Prints the delivery report the operator of
// such a network would look at.
//
//   ./examples/tech_news_network
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "baseline/pull.h"
#include "newswire/feed_agent.h"
#include "newswire/system.h"
#include "util/rng.h"

using namespace nw;

namespace {

const char* kSections[] = {"tech.linux",    "tech.security", "tech.hardware",
                           "tech.internet", "tech.science",  "tech.games"};

}  // namespace

int main() {
  newswire::SystemConfig cfg;
  cfg.num_subscribers = 500;
  cfg.num_publishers = 5;
  cfg.branching = 8;
  cfg.catalog_size = 6;
  cfg.subjects_per_subscriber = 2;
  cfg.zipf_skew = 1.0;  // slashdot-style popularity skew
  cfg.subscriber.verify_publishers = true;
  cfg.subscriber.repair_interval = 10.0;
  cfg.seed = 1986;
  newswire::NewswireSystem sys(cfg);

  // Rename the harness catalog onto real sections for the printout.
  std::map<std::string, std::string> section_of;
  for (std::size_t s = 0; s < 6; ++s) {
    section_of[sys.catalog()[s]] = kSections[s];
  }

  // Publishers 0-1 are native ("slashdot", "theregister" in spirit);
  // publishers 2-4 republish legacy pull-model sites through feed agents.
  std::vector<std::unique_ptr<baseline::PullServer>> legacy_sites;
  std::vector<std::unique_ptr<newswire::FeedAgent>> feeds;
  for (std::size_t j = 2; j < 5; ++j) {
    legacy_sites.push_back(std::make_unique<baseline::PullServer>(25));
    sys.deployment().net().AddNode(legacy_sites.back().get());
    newswire::FeedAgentConfig fc;
    fc.legacy_server = legacy_sites.back()->id();
    fc.poll_interval = 30.0;  // the bridge still pulls; subscribers don't
    feeds.push_back(std::make_unique<newswire::FeedAgent>(
        sys.publisher_agent(j), sys.publisher(j), fc));
    feeds.back()->Start();
  }

  std::printf("converging 500-subscriber tech-news network (5 publishers, "
              "3 of them legacy sites behind feed agents)...\n");
  sys.RunFor(40);

  // Half an hour of simulated news flow.
  util::DeterministicRng rng(7);
  int native_published = 0;
  for (int minute = 0; minute < 30; ++minute) {
    sys.deployment().sim().At(sys.Now() + minute * 60.0, [&] {
      // Native publishers post directly.
      for (std::size_t j = 0; j < 2; ++j) {
        if (rng.NextBool(0.35)) {
          newswire::NewsItem item;
          item.subject = sys.catalog()[rng.NextZipf(6, 1.0)];
          item.headline = "story-" + std::to_string(native_published++);
          item.urgency = 1 + std::int64_t(rng.NextBelow(8));
          sys.publisher(j).Publish(item);
        }
      }
      // Legacy sites post to their own front pages; feed agents bridge.
      for (auto& site : legacy_sites) {
        if (rng.NextBool(0.25)) {
          site->AddArticle(1500 + rng.NextBelow(2000), 96,
                           sys.catalog()[rng.NextZipf(6, 1.0)]);
        }
      }
    });
  }
  sys.RunFor(1900);

  // ---- operator's report ----
  std::printf("\n== half a simulated hour of tech news ==\n");
  for (std::size_t j = 0; j < 5; ++j) {
    const auto& pub = sys.publisher(j);
    const auto& traffic = sys.PublisherTraffic(j);
    std::string suffix;
    if (j >= 2) {
      suffix = " (" + std::to_string(feeds[j - 2]->stats().polls) +
               " legacy polls)";
    }
    std::printf("  %-6s (%s): %3llu items published, egress (incl. gossip) %6.1f KB%s\n",
                pub.name().c_str(), j < 2 ? "native" : "feed-agent bridge",
                static_cast<unsigned long long>(pub.stats().published),
                double(traffic.bytes_sent) / 1e3, suffix.c_str());
  }
  std::printf("\n  section subscriptions and deliveries:\n");
  for (std::size_t s = 0; s < 6; ++s) {
    std::printf("    %-14s %3zu subscribers\n", kSections[s],
                sys.ExpectedRecipients(sys.catalog()[s]));
  }
  const auto& lat = sys.latencies();
  std::printf(
      "\n  deliveries: %llu total | latency p50 %.0f ms, p99 %.0f ms, max "
      "%.2f s\n",
      static_cast<unsigned long long>(sys.total_delivered()),
      lat.Percentile(50) * 1e3, lat.Percentile(99) * 1e3, lat.Max());
  std::uint64_t repaired = 0, fp = 0;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    repaired += sys.subscriber(i).stats().repaired;
  }
  for (std::size_t i = 0; i < sys.node_count(); ++i) {
    fp += sys.pubsub_at(i).stats().false_positives;
  }
  std::printf("  anti-entropy repairs: %llu, Bloom false-positive "
              "deliveries: %llu\n",
              static_cast<unsigned long long>(repaired),
              static_cast<unsigned long long>(fp));
  std::printf(
      "\nCompare §1 of the paper: the same period served by polling would "
      "have cost each subscriber a front-page download per poll — here "
      "only the three bridge agents poll, once each 30 s, and everyone "
      "else receives pushed items within ~a hundred milliseconds.\n");
  return 0;
}
