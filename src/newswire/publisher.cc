#include "newswire/publisher.h"

namespace nw::newswire {

Publisher::Publisher(astrolabe::Agent& agent, pubsub::PubSubService& pubsub,
                     PublisherConfig config)
    : agent_(agent),
      pubsub_(pubsub),
      config_(std::move(config)),
      flow_(config_.max_items_per_sec, config_.burst) {
  // Register metric ids up front, so a metrics dump lists this layer's
  // metrics (at zero) whether or not an event touched them.
  (void)Metrics();
}

obs::MetricsRegistry* Publisher::Metrics() {
  auto* net = agent_.attached_network();
  auto* m = net != nullptr ? net->metrics() : nullptr;
  if (m != nullptr && !obs_.init) {
    obs_.published = m->Counter("newswire.publisher.published");
    obs_.throttled = m->Counter("newswire.publisher.throttled");
    obs_.init = true;
  }
  return m;
}

bool Publisher::Publish(NewsItem item, const astrolabe::ZonePath& scope) {
  if (!flow_.TryConsume(agent_.Now())) {
    ++stats_.throttled;
    if (auto* m = Metrics()) m->Add(obs_.throttled, agent_.id());
    return false;
  }
  item.publisher = config_.name;
  item.seq = next_seq_++;
  item.published_at = agent_.Now();
  item.scope = scope.ToString();
  item.signature = astrolabe::SignDigest(config_.signing_key, item.Digest());
  const std::string subject = item.subject;
  ++stats_.published;
  if (auto* m = Metrics()) m->Add(obs_.published, agent_.id());
  if (auto* net = agent_.attached_network(); net != nullptr) {
    if (auto* t = net->tracer();
        t != nullptr && t->Enabled(obs::EventCategory::kPublish)) {
      t->Record(agent_.Now(), agent_.id(), obs::EventCategory::kPublish,
                "pub.item", item.seq, item.body_bytes, item.Id());
    }
  }
  if (hook_) hook_(item);
  pubsub_.Publish(item.ToMulticastItem(), subject, scope,
                  item.forward_predicate);
  return true;
}

bool Publisher::PublishRevision(const NewsItem& prev, NewsItem updated,
                                const astrolabe::ZonePath& scope) {
  updated.supersedes = prev.Id();
  updated.revision = prev.revision + 1;
  if (updated.subject.empty()) updated.subject = prev.subject;
  return Publish(std::move(updated), scope);
}

}  // namespace nw::newswire
