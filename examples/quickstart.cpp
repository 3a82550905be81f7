// Quickstart: the smallest complete NewsWire system.
//
// Builds a 32-node simulated deployment (31 subscribers + 1 publisher),
// subscribes three nodes to "tech.linux", publishes two stories, and
// shows who received what, when, and what it cost the publisher.
//
//   ./examples/quickstart
#include <cstdio>

#include "newswire/system.h"

using namespace nw;

int main() {
  // 1. Describe the system: one publisher, 31 subscribers, zone branching
  //    of 4, the paper's 1024-bit subscription Bloom filter.
  newswire::SystemConfig cfg;
  cfg.num_subscribers = 31;
  cfg.num_publishers = 1;
  cfg.branching = 4;
  cfg.catalog_size = 8;  // harness assigns random subjects; we add our own
  cfg.seed = 2024;
  newswire::NewswireSystem sys(cfg);

  // 2. Hand-pick three subscribers for our subject, one of them with an
  //    SQL predicate over the item metadata (paper §8).
  sys.subscriber(2).Subscribe("tech.linux");
  sys.subscriber(11).Subscribe("tech.linux");
  sys.subscriber(29).Subscribe("tech.linux");
  sys.subscriber(29).SetPredicate("urgency <= 2");  // breaking news only

  for (std::size_t i : {2u, 11u, 29u}) {
    sys.subscriber(i).AddNewsHandler(
        [i](const newswire::NewsItem& item, double latency) {
          std::printf("  subscriber %2zu <- %-10s '%s' (%.0f ms after publish)\n",
                      i, item.Id().c_str(), item.headline.c_str(),
                      latency * 1e3);
        });
  }

  // 3. Let the epidemic propagate the new subscriptions up the zone tree.
  std::printf("gossiping subscriptions toward the root...\n");
  sys.RunFor(30);

  // 4. Publish: one routine story, one urgent bulletin.
  newswire::NewsItem routine;
  routine.subject = "tech.linux";
  routine.headline = "Kernel 2.4.18 released";
  routine.urgency = 5;
  sys.publisher(0).Publish(routine);

  newswire::NewsItem urgent;
  urgent.subject = "tech.linux";
  urgent.headline = "Critical remote hole, patch now";
  urgent.urgency = 1;
  sys.publisher(0).Publish(urgent);

  std::printf("published 2 items on 'tech.linux':\n");
  sys.RunFor(30);

  // 5. What did it cost the publisher?
  const auto& traffic = sys.PublisherTraffic(0);
  std::printf(
      "\npublisher egress: %llu messages, %.1f KB "
      "(subscriber 29 got only the urgent item - its predicate filtered "
      "the routine one)\n",
      static_cast<unsigned long long>(traffic.messages_sent),
      double(traffic.bytes_sent) / 1e3);
  return 0;
}
