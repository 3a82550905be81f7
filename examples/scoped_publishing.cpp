// Scoped and targeted publishing (paper §8): a world-news wire with
// regional zones. A publisher inside Asia posts a local item only into
// /asia ("This for example allows the publisher to disseminate localized
// news items in Asia"), and a premium bulletin is steered by a forwarding
// predicate to premium subscribers only — the §8 "future feature".
//
//   ./examples/scoped_publishing
#include <cstdio>

#include "newswire/system.h"

using namespace nw;

int main() {
  newswire::SystemConfig cfg;
  cfg.num_subscribers = 255;  // + 1 publisher = 4 even regions of 64
  cfg.num_publishers = 1;
  cfg.branching = 4;
  cfg.top_level_names = {"asia", "europe", "americas", "africa"};
  cfg.catalog_size = 1;  // one channel: "world.news"
  cfg.subjects_per_subscriber = 1;
  cfg.seed = 11;
  newswire::NewswireSystem sys(cfg);

  // Premium flag on every 5th subscriber, aggregated with MAX so zones
  // advertise whether premium customers live below them.
  sys.deployment().InstallFunctionEverywhere("premium",
                                             "SELECT MAX(premium) AS premium");
  std::size_t premium_total = 0;
  for (std::size_t i = 0; i < sys.subscriber_count(); i += 5) {
    sys.subscriber_agent(i).SetLocalAttr("premium", std::int64_t{1});
    ++premium_total;
  }
  sys.deployment().WarmStart();
  sys.RunFor(10);

  const astrolabe::ZonePath asia = astrolabe::ZonePath::Parse("/asia");
  std::printf("publisher lives at %s\n",
              sys.publisher_agent(0).path().ToString().c_str());

  // 1. A world item to everyone.
  const std::string world_id = sys.PublishArticle(0, sys.catalog()[0]);
  // 2. A local item scoped to /asia.
  const std::string asia_id =
      sys.PublishArticle(0, sys.catalog()[0], asia);
  // 3. A premium bulletin, root-scoped but predicate-targeted.
  newswire::NewsItem premium_item;
  premium_item.subject = sys.catalog()[0];
  premium_item.headline = "premium market flash";
  premium_item.forward_predicate = "premium = 1";
  sys.publisher(0).Publish(premium_item);
  const std::string premium_id = "pub0#3";
  sys.RunFor(30);

  std::size_t world_got = 0, asia_got = 0, asia_outside = 0, premium_got = 0,
              premium_leak = 0;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    const auto& sub = sys.subscriber(i);
    const bool in_asia = asia.IsPrefixOf(sys.subscriber_agent(i).path());
    const bool is_premium = (i % 5 == 0);
    if (sub.cache().Contains(world_id)) ++world_got;
    if (sub.cache().Contains(asia_id)) {
      if (in_asia) {
        ++asia_got;
      } else {
        ++asia_outside;
      }
    }
    if (sub.cache().Contains(premium_id)) {
      if (is_premium) {
        ++premium_got;
      } else {
        ++premium_leak;
      }
    }
  }

  std::printf("\nworld item   : delivered to %zu/%zu subscribers\n",
              world_got, sys.subscriber_count());
  std::printf("asia item    : delivered to %zu subscribers inside /asia, "
              "%zu leaked outside\n",
              asia_got, asia_outside);
  std::printf("premium item : delivered to %zu/%zu premium subscribers, "
              "%zu leaked to non-premium\n",
              premium_got, premium_total, premium_leak);
  std::printf(
      "\nThe forwarding components pruned whole regions for the scoped "
      "item and whole premium-free zones for the targeted one — no "
      "per-recipient work at the publisher (paper §8).\n");
  return 0;
}
