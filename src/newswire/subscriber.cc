#include "newswire/subscriber.h"

#include <algorithm>

#include "astrolabe/sql/eval.h"
#include "astrolabe/sql/parser.h"
#include "util/log.h"

namespace nw::newswire {

using astrolabe::AttrValue;

std::size_t Subscriber::Digest::WireBytes() const {
  std::size_t n = 16 + requester_path.size();
  for (const auto& s : subjects) n += s.size() + 2;
  for (const auto& s : known_ids) n += s.size() + 2;
  return n;
}

std::size_t Subscriber::ItemBatch::WireBytes() const {
  std::size_t n = 8;
  for (const auto& item : items) {
    n += astrolabe::RowWireBytes(item.ToMetadata()) + item.body_bytes;
  }
  return n;
}

obs::MetricsRegistry* Subscriber::Metrics() {
  auto* net = agent_.attached_network();
  auto* m = net != nullptr ? net->metrics() : nullptr;
  if (m != nullptr && !obs_.init) {
    obs_.accepted = m->Counter("newswire.subscriber.accepted");
    obs_.repaired = m->Counter("newswire.subscriber.repaired");
    obs_.state_transfer = m->Counter("newswire.subscriber.state_transfer");
    obs_.latency = m->Histogram("newswire.subscriber.latency_s",
                                obs::MetricsRegistry::LatencyBucketsSeconds());
    obs_.dup_suppressed = m->Counter("newswire.cache.duplicate_suppressed");
    obs_.repair_rounds = m->Counter("newswire.subscriber.repair_rounds");
    obs_.pull_served = m->Counter("newswire.cache.pull_items_served");
    obs_.rejected = m->Counter("newswire.subscriber.rejected");
    obs_.init = true;
  }
  return m;
}

obs::EventTracer* Subscriber::Tracer() const {
  auto* net = agent_.attached_network();
  return net != nullptr ? net->tracer() : nullptr;
}

Subscriber::Subscriber(astrolabe::Agent& agent,
                       pubsub::PubSubService& pubsub, SubscriberConfig config)
    : agent_(agent),
      pubsub_(pubsub),
      config_(config),
      cache_(config.cache) {
  pubsub_.SetNewsCallback([this](const multicast::Item& item) {
    OnNews(item);
  });
  agent_.RegisterHandler(kDigestType, [this](const sim::Message& msg) {
    HandleDigest(msg);
  });
  agent_.RegisterHandler(kRepairType, [this](const sim::Message& msg) {
    HandleBatch(msg);
  });
  agent_.RegisterHandler(kXferReqType, [this](const sim::Message& msg) {
    HandleXferRequest(msg);
  });
  agent_.RegisterHandler(kXferType, [this](const sim::Message& msg) {
    HandleBatch(msg);
  });
  agent_.AddRestartHook([this] {
    // The cache is process memory: a restarted node comes back empty and
    // must re-arm its repair timer (the old one died with the process).
    cache_ = MessageCache(config_.cache);
    if (started_) Start();
  });
  // Register metric ids up front, so a metrics dump lists this layer's
  // metrics (at zero) whether or not an event touched them.
  (void)Metrics();
}

void Subscriber::Start() {
  started_ = true;
  if (config_.repair_interval > 0) {
    agent_.Schedule(config_.repair_interval * (0.5 + agent_.Rng().NextDouble()),
                    [this] { RepairRound(); });
  }
}

void Subscriber::AddPublisherCert(const astrolabe::Certificate& cert) {
  if (cert.kind != astrolabe::CertKind::kPublisher) return;
  publisher_keys_[cert.subject] = cert.subject_key;
}

void Subscriber::OnNews(const multicast::Item& item) {
  auto news = NewsItem::FromMulticastItem(item);
  if (!news) {
    util::LogWarn("subscriber %s: malformed news item '%s'",
                  agent_.path().ToString().c_str(), item.id.c_str());
    return;
  }
  Accept(*news, Source::kDelivery);
}

bool Subscriber::Accept(const NewsItem& item, Source source) {
  if (config_.verify_publishers) {
    auto key = publisher_keys_.find(item.publisher);
    if (key == publisher_keys_.end()) {
      ++stats_.unknown_publisher;
      if (auto* m = Metrics()) m->Add(obs_.rejected, agent_.id());
      return false;
    }
    if (!astrolabe::VerifyDigest(key->second, item.Digest(), item.signature)) {
      ++stats_.bad_signature;
      if (auto* m = Metrics()) m->Add(obs_.rejected, agent_.id());
      return false;
    }
  }
  if (!item.forward_predicate.empty()) {
    // Publisher targeting (§8): arrivals that bypassed the forwarding
    // filter (repair, state transfer) must still satisfy the predicate
    // against this machine's own MIB row.
    try {
      auto pred = astrolabe::sql::ParseExpression(item.forward_predicate);
      if (!astrolabe::sql::EvalPredicate(*pred, agent_.LocalRow())) {
        return false;
      }
    } catch (const astrolabe::sql::ParseError&) {
      return false;
    }
  }
  if (!cache_.Insert(item, agent_.Now())) {  // dup or stale revision
    if (auto* m = Metrics()) m->Add(obs_.dup_suppressed, agent_.id());
    if (auto* t = Tracer(); t != nullptr && t->Enabled(obs::EventCategory::kCache)) {
      t->Record(agent_.Now(), agent_.id(), obs::EventCategory::kCache,
                "cache.dup", 0, 0, item.Id());
    }
    return false;
  }
  switch (source) {
    case Source::kDelivery: ++stats_.received; break;
    case Source::kRepair: ++stats_.repaired; break;
    case Source::kStateTransfer: ++stats_.state_transfer; break;
  }
  const double latency = agent_.Now() - item.published_at;
  latency_.Add(latency);
  if (auto* m = Metrics()) {
    m->Add(obs_.accepted, agent_.id());
    if (source == Source::kRepair) m->Add(obs_.repaired, agent_.id());
    if (source == Source::kStateTransfer) {
      m->Add(obs_.state_transfer, agent_.id());
    }
    m->Observe(obs_.latency, agent_.id(), latency);
  }
  if (auto* t = Tracer(); t != nullptr) {
    const obs::EventCategory cat = source == Source::kDelivery
                                       ? obs::EventCategory::kDeliver
                                       : obs::EventCategory::kRepair;
    if (t->Enabled(cat)) {
      t->Record(agent_.Now(), agent_.id(), cat,
                source == Source::kDelivery       ? "news.accept"
                : source == Source::kRepair       ? "news.accept.repair"
                                                  : "news.accept.xfer",
                item.seq, std::uint64_t(latency * 1e6) /*us*/, item.Id());
    }
  }
  for (const auto& handler : handlers_) handler(item, latency);
  return true;
}

std::vector<sim::NodeId> Subscriber::LeafPeers() const {
  // Anti-entropy partners: siblings in the leaf zone plus representatives
  // of sibling zones at every level. The cross-zone partners matter when a
  // forwarding loss cut off an entire zone — no sibling inside it has the
  // item, but a peer across the tree does.
  std::vector<sim::NodeId> peers;
  for (std::size_t level = 0; level < agent_.Depth(); ++level) {
    const std::string& own_key = agent_.path().Component(level);
    for (const auto& [key, entry] : agent_.TableAt(level)) {
      if (key == own_key) continue;
      auto it = entry.attrs.find(astrolabe::kAttrContacts);
      if (it == entry.attrs.end() ||
          it->second.type() != AttrValue::Type::kList) {
        continue;
      }
      for (const AttrValue& v : it->second.AsList()) {
        if (v.type() == AttrValue::Type::kInt) {
          peers.push_back(static_cast<sim::NodeId>(v.AsInt()));
        }
      }
    }
  }
  return peers;
}

void Subscriber::RepairRound() {
  ++stats_.repair_rounds;
  if (auto* m = Metrics()) m->Add(obs_.repair_rounds, agent_.id());
  const auto peers = LeafPeers();
  if (!peers.empty()) {
    const sim::NodeId peer = peers[agent_.Rng().NextBelow(peers.size())];
    Digest digest;
    digest.since = std::max(0.0, agent_.Now() - config_.repair_window);
    digest.requester_path = agent_.path().ToString();
    digest.subjects.assign(pubsub_.subjects().begin(),
                           pubsub_.subjects().end());
    digest.known_ids = cache_.IdsSince(digest.since);
    if (auto* t = Tracer(); t != nullptr && t->Enabled(obs::EventCategory::kRepair)) {
      t->Record(agent_.Now(), agent_.id(), obs::EventCategory::kRepair,
                "repair.digest", peer, digest.known_ids.size());
    }
    const std::size_t wire = digest.WireBytes();
    agent_.Send(sim::Message::Make(agent_.id(), peer, kDigestType,
                                   std::move(digest), wire));
  }
  agent_.Schedule(config_.repair_interval * (0.9 + 0.2 * agent_.Rng().NextDouble()),
                  [this] { RepairRound(); });
}

namespace {
// Scoped items (§8) may only be handed to peers inside their scope.
bool ScopeCovers(const NewsItem& item, const std::string& peer_path) {
  return astrolabe::ZonePath::Parse(item.scope)
      .IsPrefixOf(astrolabe::ZonePath::Parse(peer_path));
}
}  // namespace

void Subscriber::HandleDigest(const sim::Message& msg) {
  const auto& digest = msg.As<Digest>();
  ItemBatch batch;
  for (NewsItem& item : cache_.ItemsSince(digest.since, digest.subjects)) {
    if (!ScopeCovers(item, digest.requester_path)) continue;
    if (std::find(digest.known_ids.begin(), digest.known_ids.end(),
                  item.Id()) == digest.known_ids.end()) {
      batch.items.push_back(std::move(item));
    }
  }
  if (batch.items.empty()) return;
  if (auto* m = Metrics()) {
    m->Add(obs_.pull_served, agent_.id(), batch.items.size());
  }
  if (auto* t = Tracer(); t != nullptr && t->Enabled(obs::EventCategory::kRepair)) {
    t->Record(agent_.Now(), agent_.id(), obs::EventCategory::kRepair,
              "repair.serve", msg.from, batch.items.size());
  }
  const std::size_t wire = batch.WireBytes();
  agent_.Send(sim::Message::Make(agent_.id(), msg.from, kRepairType,
                                 std::move(batch), wire));
}

void Subscriber::HandleBatch(const sim::Message& msg) {
  const auto& batch = msg.As<ItemBatch>();
  const Source source =
      msg.type == kXferType ? Source::kStateTransfer : Source::kRepair;
  for (const NewsItem& item : batch.items) {
    // Repair bypasses the Bloom path; apply the exact local match.
    if (!pubsub_.Matches(item.ToMulticastItem())) continue;
    Accept(item, source);
  }
}

void Subscriber::HandleXferRequest(const sim::Message& msg) {
  const auto& req = msg.As<XferRequest>();
  ItemBatch batch;
  batch.is_state_transfer = true;
  for (NewsItem& item : cache_.ItemsSince(req.since, req.subjects)) {
    if (ScopeCovers(item, req.requester_path)) {
      batch.items.push_back(std::move(item));
    }
  }
  const std::size_t wire = batch.WireBytes();
  agent_.Send(sim::Message::Make(agent_.id(), msg.from, kXferType,
                                 std::move(batch), wire));
}

void Subscriber::RequestStateTransfer(sim::NodeId peer) {
  XferRequest req;
  req.since = std::max(0.0, agent_.Now() - config_.repair_window);
  req.requester_path = agent_.path().ToString();
  req.subjects.assign(pubsub_.subjects().begin(), pubsub_.subjects().end());
  agent_.Send(sim::Message::Make(agent_.id(), peer, kXferReqType, req, 64));
}

}  // namespace nw::newswire
