// NewswireSystem: wires a complete simulated NewsWire deployment — an
// Astrolabe zone tree whose leaves run the multicast forwarding component,
// the Bloom-filter pub/sub layer, and either a subscriber or a publisher
// application — plus a synthetic workload (subject catalog with Zipf
// popularity) and delivery metrics. Examples and every benchmark build on
// this harness.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "astrolabe/deployment.h"
#include "multicast/multicast.h"
#include "newswire/publisher.h"
#include "newswire/subscriber.h"
#include "pubsub/pubsub.h"
#include "util/stats.h"

namespace nw::newswire {

// The deployment half (zone tree, agent tuning, network, seed, sinks) is
// inherited and handed to the Deployment as is; the agent count is
// num_subscribers + num_publishers.
struct SystemConfig : astrolabe::DeploymentConfig {
  std::size_t num_subscribers = 64;
  std::size_t num_publishers = 1;
  pubsub::PubSubOptions pubsub;
  multicast::MulticastConfig multicast;
  SubscriberConfig subscriber;
  double publisher_rate = 1000.0;  // flow-control rate (items/s)
  double publisher_burst = 2000.0;

  // Workload: subjects are drawn from a catalog with Zipf popularity.
  std::size_t catalog_size = 64;
  std::size_t subjects_per_subscriber = 4;
  double zipf_skew = 0.8;
  std::size_t body_bytes = 2048;

  bool warm_start = true;  // install converged replicas directly
  bool run_gossip = true;  // start the epidemic protocol
  // Always 1 (asserted); goes once the benchmark program stops setting it.
  unsigned sim_threads = 1;
};

class NewswireSystem {
 public:
  explicit NewswireSystem(SystemConfig config);
  ~NewswireSystem();

  NewswireSystem(const NewswireSystem&) = delete;
  NewswireSystem& operator=(const NewswireSystem&) = delete;

  astrolabe::Deployment& deployment() { return dep_; }
  const SystemConfig& config() const { return config_; }
  double Now() { return dep_.sim().Now(); }
  void RunFor(double seconds) { dep_.RunFor(seconds); }

  // ---- topology --------------------------------------------------------
  std::size_t node_count() const { return dep_.size(); }
  std::size_t subscriber_count() const { return subscriber_nodes_.size(); }
  std::size_t publisher_count() const { return publisher_nodes_.size(); }

  Subscriber& subscriber(std::size_t i);
  Publisher& publisher(std::size_t j);
  astrolabe::Agent& subscriber_agent(std::size_t i);
  astrolabe::Agent& publisher_agent(std::size_t j);
  multicast::MulticastService& multicast_at(std::size_t node);
  pubsub::PubSubService& pubsub_at(std::size_t node);
  // Deployment node index of subscriber i / publisher j.
  std::size_t subscriber_node(std::size_t i) const {
    return subscriber_nodes_[i];
  }
  std::size_t publisher_node(std::size_t j) const {
    return publisher_nodes_[j];
  }

  // ---- workload --------------------------------------------------------
  const std::vector<std::string>& catalog() const { return catalog_; }
  const std::vector<std::string>& SubjectsOf(std::size_t subscriber) const {
    return assigned_subjects_[subscriber];
  }
  // How many subscribers are subscribed to `subject`.
  std::size_t ExpectedRecipients(const std::string& subject) const;
  // A Zipf-popular subject from the catalog.
  const std::string& RandomSubject();

  // Publishes an article; returns its id, or "" if flow control refused.
  std::string PublishArticle(
      std::size_t publisher, const std::string& subject,
      const astrolabe::ZonePath& scope = astrolabe::ZonePath::Root());

  // Sum of the per-node forwarding-component counters across the whole
  // deployment (acks, retransmits, failovers, shed items, ...).
  multicast::MulticastStats MulticastTotals() const;

  // ---- delivery metrics --------------------------------------------------
  std::size_t DeliveredCount(const std::string& item_id) const;
  const util::SampleStats& latencies() const;
  std::uint64_t total_delivered() const;

  // Publisher-side network cost (egress bytes/messages of publisher j).
  const sim::TrafficStats& PublisherTraffic(std::size_t j);

 private:
  SystemConfig config_;
  astrolabe::Deployment dep_;
  util::DeterministicRng rng_;
  std::vector<std::string> catalog_;

  std::vector<std::unique_ptr<multicast::MulticastService>> mc_;
  std::vector<std::unique_ptr<pubsub::PubSubService>> ps_;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;   // by subscriber idx
  std::vector<std::unique_ptr<Publisher>> publishers_;     // by publisher idx
  // §8: "under the covers of the publisher is an application identical to
  // the subscriber application core" — publisher nodes run one too, so
  // they answer repair digests and participate in the overlay fully.
  std::vector<std::unique_ptr<Subscriber>> publisher_cores_;
  std::vector<std::size_t> subscriber_nodes_;
  std::vector<std::size_t> publisher_nodes_;
  std::vector<std::vector<std::string>> assigned_subjects_;

  std::map<std::string, std::size_t> expected_by_subject_;

  // Delivery accounting. Each subscriber appends to its own log, and the
  // aggregate views below are folded lazily, in subscriber order, when an
  // accessor is called. That canonical order (subscriber by subscriber, not
  // global event order) fixes the latency sample order, which the reported
  // mean and standard deviation depend on bit for bit.
  void FoldDeliveries() const;
  mutable std::vector<std::vector<std::pair<std::string, double>>>
      delivery_log_;                               // by subscriber idx
  mutable std::vector<std::size_t> delivery_cursor_;  // folded prefix length
  mutable std::map<std::string, std::size_t> delivered_count_;
  mutable util::SampleStats latencies_;
  mutable std::uint64_t total_delivered_ = 0;
};

}  // namespace nw::newswire
