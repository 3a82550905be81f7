#include "newswire/system.h"

#include <algorithm>
#include <cassert>

namespace nw::newswire {

namespace {

astrolabe::DeploymentConfig MakeDeploymentConfig(const SystemConfig& cfg) {
  astrolabe::DeploymentConfig dc;
  dc.num_agents = cfg.num_subscribers + cfg.num_publishers;
  dc.branching = cfg.branching;
  dc.top_level_names = cfg.region_names;
  dc.gossip_period = cfg.gossip_period;
  dc.contacts_per_zone = cfg.contacts_per_zone;
  dc.gossip_wire = cfg.gossip_wire;
  dc.phi = cfg.phi;
  dc.force_full_recompute = cfg.force_full_recompute;
  dc.net = cfg.net;
  dc.seed = cfg.seed;
  dc.metrics = cfg.metrics;
  dc.tracer = cfg.tracer;
  return dc;
}

}  // namespace

NewswireSystem::NewswireSystem(SystemConfig config)
    : config_(config),
      dep_(MakeDeploymentConfig(config)),
      rng_(config.seed ^ 0x4e657773ull /*'News'*/) {
  const std::size_t n = dep_.size();
  assert(config_.num_publishers >= 1);
  assert(config_.num_publishers < n);
  assert(config_.sim_threads <= 1);

  // Subject catalog.
  catalog_.reserve(config_.catalog_size);
  for (std::size_t s = 0; s < config_.catalog_size; ++s) {
    catalog_.push_back("subject." + std::to_string(s));
  }

  // Publisher placement: evenly spaced so publishers land in different
  // zones ("just another Astrolabe leaf node", §8).
  std::vector<bool> is_publisher(n, false);
  const std::size_t stride = n / config_.num_publishers;
  for (std::size_t j = 0; j < config_.num_publishers; ++j) {
    is_publisher[j * stride] = true;
  }

  // The subscription-filter aggregation (§6).
  dep_.InstallFunctionEverywhere(pubsub::kSubsFunctionName,
                                 pubsub::SubsFunctionCode());

  // Per-node services.
  mc_.reserve(n);
  ps_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mc_.push_back(std::make_unique<multicast::MulticastService>(
        dep_.agent(i), config_.multicast));
    ps_.push_back(std::make_unique<pubsub::PubSubService>(
        dep_.agent(i), *mc_[i],
        pubsub::PubSubOptions{config_.bloom, config_.hierarchical_subjects}));
  }

  // Publisher identities and applications.
  util::DeterministicRng key_rng(config_.seed ^ 0x5075626cull /*'Publ'*/);
  std::vector<astrolabe::Certificate> publisher_certs;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_publisher[i]) continue;
    const std::size_t j = publisher_nodes_.size();
    publisher_nodes_.push_back(i);
    const astrolabe::KeyPair keys = astrolabe::GenerateKeyPair(key_rng);
    PublisherConfig pc;
    pc.name = "pub" + std::to_string(j);
    pc.max_items_per_sec = config_.publisher_rate;
    pc.burst = config_.publisher_burst;
    pc.signing_key = keys.priv;
    publishers_.push_back(
        std::make_unique<Publisher>(dep_.agent(i), *ps_[i], pc));
    publisher_certs.push_back(dep_.root_authority().Issue(
        astrolabe::CertKind::kPublisher, pc.name, keys.pub, {}, 0, 1e18));
    publisher_cores_.push_back(
        std::make_unique<Subscriber>(dep_.agent(i), *ps_[i], config_.subscriber));
    // The publisher archives its own output so repair always has a source.
    publishers_.back()->SetPublishHook(
        [core = publisher_cores_.back().get()](const NewsItem& item) {
          core->ArchiveLocal(item);
        });
  }

  // Every application core, publisher cores included, trusts every
  // publisher, so verify_publishers means the same thing on every node.
  for (auto& core : publisher_cores_) {
    for (const auto& cert : publisher_certs) core->AddPublisherCert(cert);
  }

  // Subscriber applications with Zipf-assigned subjects.
  for (std::size_t i = 0; i < n; ++i) {
    if (is_publisher[i]) continue;
    const std::size_t s = subscribers_.size();
    subscriber_nodes_.push_back(i);
    subscribers_.push_back(std::make_unique<Subscriber>(
        dep_.agent(i), *ps_[i], config_.subscriber));
    Subscriber& sub = *subscribers_.back();
    for (const auto& cert : publisher_certs) sub.AddPublisherCert(cert);

    std::vector<std::string> mine;
    for (std::size_t tries = 0;
         tries < config_.subjects_per_subscriber * 8 &&
         mine.size() < config_.subjects_per_subscriber;
         ++tries) {
      const std::string& subject =
          catalog_[rng_.NextZipf(catalog_.size(), config_.zipf_skew)];
      if (std::find(mine.begin(), mine.end(), subject) != mine.end()) continue;
      mine.push_back(subject);
      sub.Subscribe(subject);
      ++expected_by_subject_[subject];
    }
    assigned_subjects_.push_back(std::move(mine));

    delivery_log_.emplace_back();
    delivery_cursor_.push_back(0);
    sub.AddNewsHandler([this, s](const NewsItem& item, double latency) {
      // Aggregation happens in FoldDeliveries(), in subscriber order.
      delivery_log_[s].emplace_back(item.Id(), latency);
    });
  }

  if (config_.run_gossip) dep_.StartAll();
  if (config_.warm_start) dep_.WarmStart();
  for (auto& sub : subscribers_) sub->Start();
  for (auto& core : publisher_cores_) core->Start();
}

NewswireSystem::~NewswireSystem() = default;

Subscriber& NewswireSystem::subscriber(std::size_t i) {
  return *subscribers_[i];
}
Publisher& NewswireSystem::publisher(std::size_t j) { return *publishers_[j]; }

astrolabe::Agent& NewswireSystem::subscriber_agent(std::size_t i) {
  return dep_.agent(subscriber_nodes_[i]);
}
astrolabe::Agent& NewswireSystem::publisher_agent(std::size_t j) {
  return dep_.agent(publisher_nodes_[j]);
}
multicast::MulticastService& NewswireSystem::multicast_at(std::size_t node) {
  return *mc_[node];
}
pubsub::PubSubService& NewswireSystem::pubsub_at(std::size_t node) {
  return *ps_[node];
}

std::size_t NewswireSystem::ExpectedRecipients(
    const std::string& subject) const {
  auto it = expected_by_subject_.find(subject);
  return it == expected_by_subject_.end() ? 0 : it->second;
}

const std::string& NewswireSystem::RandomSubject() {
  return catalog_[rng_.NextZipf(catalog_.size(), config_.zipf_skew)];
}

std::string NewswireSystem::PublishArticle(std::size_t publisher_idx,
                                           const std::string& subject,
                                           const astrolabe::ZonePath& scope) {
  Publisher& pub = *publishers_[publisher_idx];
  NewsItem item;
  item.subject = subject;
  item.headline = subject + " story " + std::to_string(pub.next_seq());
  item.body_bytes = config_.body_bytes;
  item.categories = 1;
  const std::uint64_t seq = pub.next_seq();
  if (!pub.Publish(item, scope)) return "";
  return pub.name() + "#" + std::to_string(seq);
}

multicast::MulticastStats NewswireSystem::MulticastTotals() const {
  multicast::MulticastStats total;
  for (const auto& mc : mc_) {
    const multicast::MulticastStats& s = mc->stats();
    total.delivered += s.delivered;
    total.duplicates += s.duplicates;
    total.forwards += s.forwards;
    total.forward_bytes += s.forward_bytes;
    total.filtered += s.filtered;
    total.queue_drops += s.queue_drops;
    total.queue_shed += s.queue_shed;
    total.misrouted += s.misrouted;
    total.acks_received += s.acks_received;
    total.retransmits += s.retransmits;
    total.failovers += s.failovers;
    total.abandoned += s.abandoned;
    total.pending_overflow += s.pending_overflow;
    total.dup_hops_received += s.dup_hops_received;
    total.quarantines += s.quarantines;
  }
  return total;
}

void NewswireSystem::FoldDeliveries() const {
  // Fold un-aggregated log suffixes in subscriber order (see system.h).
  for (std::size_t s = 0; s < delivery_log_.size(); ++s) {
    const auto& log = delivery_log_[s];
    for (std::size_t k = delivery_cursor_[s]; k < log.size(); ++k) {
      ++delivered_count_[log[k].first];
      ++total_delivered_;
      latencies_.Add(log[k].second);
    }
    delivery_cursor_[s] = log.size();
  }
}

std::size_t NewswireSystem::DeliveredCount(const std::string& item_id) const {
  FoldDeliveries();
  auto it = delivered_count_.find(item_id);
  return it == delivered_count_.end() ? 0 : it->second;
}

const util::SampleStats& NewswireSystem::latencies() const {
  FoldDeliveries();
  return latencies_;
}

std::uint64_t NewswireSystem::total_delivered() const {
  FoldDeliveries();
  return total_delivered_;
}

const sim::TrafficStats& NewswireSystem::PublisherTraffic(std::size_t j) {
  return dep_.net().StatsFor(dep_.agent(publisher_nodes_[j]).id());
}

}  // namespace nw::newswire
