// The subscriber application (paper §8, §9): subscribes to subjects (plus
// an optional SQL predicate over item metadata), caches delivered items,
// verifies publisher signatures, repairs missed items through peer
// anti-entropy over the cache, and catches up via state transfer when
// joining.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "astrolabe/cert.h"
#include "newswire/message_cache.h"
#include "pubsub/pubsub.h"
#include "util/stats.h"

namespace nw::newswire {

struct SubscriberConfig {
  double repair_interval = 10.0;  // 0 disables peer anti-entropy (§9)
  double repair_window = 60.0;    // how far back digests reach
  MessageCache::Config cache;
  // When true, items from unknown publishers or with bad signatures are
  // rejected (paper §8: restrictions "to handle the authentication of
  // publishers, to assure the authenticity of the data they publish").
  bool verify_publishers = false;
};

class Subscriber {
 public:
  // Called with each accepted item and its end-to-end latency (seconds).
  using NewsHandler = std::function<void(const NewsItem&, double latency)>;

  Subscriber(astrolabe::Agent& agent, pubsub::PubSubService& pubsub,
             SubscriberConfig config);

  // Begins the repair timer. Call after the agent is on the network.
  void Start();

  void Subscribe(const std::string& subject) { pubsub_.Subscribe(subject); }
  void Unsubscribe(const std::string& subject) { pubsub_.Unsubscribe(subject); }
  void SetPredicate(const std::string& sql) { pubsub_.SetPredicate(sql); }
  // Handlers are additive: the system harness installs its accounting
  // handler and applications add their own alongside it.
  void AddNewsHandler(NewsHandler handler) {
    handlers_.push_back(std::move(handler));
  }

  // Registers a trusted publisher certificate (kPublisher, subject_key =
  // the publisher's verification key).
  void AddPublisherCert(const astrolabe::Certificate& cert);

  // Join state transfer (§9): asks `peer` for recent items matching our
  // subscriptions.
  void RequestStateTransfer(sim::NodeId peer);

  // Archives an item into the local cache without subscription matching.
  // Used by the publisher application running on the same node (§8: the
  // publisher is "an application identical to the subscriber application
  // core"), so its own output is always repairable from the source.
  void ArchiveLocal(const NewsItem& item) {
    cache_.Insert(item, agent_.Now());
  }

  const MessageCache& cache() const { return cache_; }
  const util::SampleStats& latency() const { return latency_; }

  struct Stats {
    std::uint64_t received = 0;          // accepted via normal delivery
    std::uint64_t repaired = 0;          // recovered via peer anti-entropy
    std::uint64_t state_transfer = 0;    // received while joining
    std::uint64_t bad_signature = 0;
    std::uint64_t unknown_publisher = 0;
    std::uint64_t repair_rounds = 0;
  };
  const Stats& stats() const { return stats_; }

  // Wire protocol types.
  static inline const sim::MsgType kDigestType{"nw.digest"};
  static inline const sim::MsgType kRepairType{"nw.repair"};
  static inline const sim::MsgType kXferReqType{"nw.xfer_req"};
  static inline const sim::MsgType kXferType{"nw.xfer"};

  struct Digest {
    double since = 0;
    std::string requester_path;  // scoped items only repair inside scope
    std::vector<std::string> subjects;
    std::vector<std::string> known_ids;
    std::size_t WireBytes() const;
  };
  struct ItemBatch {
    std::vector<NewsItem> items;
    bool is_state_transfer = false;
    std::size_t WireBytes() const;
  };
  struct XferRequest {
    double since = 0;
    std::string requester_path;
    std::vector<std::string> subjects;
  };

 private:
  enum class Source { kDelivery, kRepair, kStateTransfer };

  // Observability (null-safe; ids registered lazily on first use).
  obs::MetricsRegistry* Metrics();
  obs::EventTracer* Tracer() const;
  struct ObsIds {
    bool init = false;
    std::uint32_t accepted, repaired, state_transfer, latency, dup_suppressed,
        repair_rounds, pull_served, rejected;
  };

  void OnNews(const multicast::Item& item);
  bool Accept(const NewsItem& item, Source source);
  void RepairRound();
  void HandleDigest(const sim::Message& msg);
  void HandleBatch(const sim::Message& msg);
  void HandleXferRequest(const sim::Message& msg);
  std::vector<sim::NodeId> LeafPeers() const;

  astrolabe::Agent& agent_;
  pubsub::PubSubService& pubsub_;
  SubscriberConfig config_;
  MessageCache cache_;
  std::vector<NewsHandler> handlers_;
  std::map<std::string, astrolabe::PublicKey> publisher_keys_;
  util::SampleStats latency_;
  Stats stats_;
  ObsIds obs_{};
  bool started_ = false;
};

}  // namespace nw::newswire
