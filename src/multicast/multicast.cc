#include "multicast/multicast.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace nw::multicast {

using astrolabe::Agent;
using astrolabe::Row;
using astrolabe::ZonePath;

namespace {

// Re-check interval for queues left non-empty by the forwarding budget.
constexpr double kDrainInterval = 0.05;
// Sends to one peer before a hop fails over to an alternate representative
// of the same child zone.
constexpr int kAttemptsPerPeer = 3;
// Election avoidance (DESIGN.md §10): the load reported for representative
// election is load + (1 - health) * kHealthLoadPenalty, so SELECT TOP(k ...
// ORDER BY load ASC) steers around unhealthy nodes without a schema change.
constexpr double kHealthLoadPenalty = 0.5;
// Bad events per report interval that drive instantaneous health to 0.
constexpr double kHealthEventsFullPenalty = 20.0;

// An empty suspicion cache. A kSlow (gray) quarantine starts at a quarter
// of the kDead TTL and doubles per strike up to it.
SuspicionCache FreshSuspicions(const ReliableConfig& rc) {
  return SuspicionCache(rc.suspicion_ttl, rc.suspicion_ttl / 4,
                        rc.escalate_strikes);
}

}  // namespace

MulticastService::MulticastService(Agent& agent, MulticastConfig config)
    : agent_(agent),
      config_(config),
      path_text_(agent_.path().ToString()),
      budget_(config.forward_bytes_per_sec, config.forward_burst_bytes),
      backoff_(config.reliable),
      suspects_(FreshSuspicions(config.reliable)) {
  prefix_len_.push_back(0);
  for (std::size_t i = 0; i < agent_.Depth(); ++i) {
    prefix_len_.push_back(prefix_len_.back() + 1 +
                          agent_.path().Component(i).size());
  }
  agent_.RegisterHandler(kForwardType, [this](const sim::Message& msg) {
    HandleForward(msg);
  });
  agent_.RegisterHandler(kReliableType, [this](const sim::Message& msg) {
    HandleReliableForward(msg);
  });
  agent_.RegisterHandler(kAckType, [this](const sim::Message& msg) {
    HandleAck(msg);
  });
  agent_.AddRestartHook([this] { OnRestart(); });
  // Register metric ids up front, so a metrics dump lists this layer's
  // metrics (at zero) whether or not an event touched them.
  (void)Metrics();
  if (config_.report_load && config_.load_report_interval > 0) {
    agent_.Schedule(config_.load_report_interval *
                        (0.5 + agent_.Rng().NextDouble()),
                    [this] { ReportLoad(); });
  }
}

void MulticastService::OnRestart() {
  // Everything here is process memory: a crashed-and-rebooted forwarding
  // component comes back with empty queues, no unacked hops, an empty
  // duplicate log, and no suspicions. Its timers died with the old
  // incarnation, so the load reporter must be re-armed.
  queues_.clear();
  for (const auto& [hop_id, hop] : pending_) agent_.CancelTimer(hop.ack_timer);
  pending_.clear();
  suspects_ = FreshSuspicions(config_.reliable);
  seen_.clear();
  seen_order_.clear();
  drain_scheduled_ = false;
  last_reported_bytes_ = stats_.forward_bytes;
  load_ewma_ = 0.0;
  health_ewma_ = 1.0;
  last_health_reported_ = -1.0;
  last_integrity_drops_ = agent_.gossip_stats().integrity_drops;
  last_dup_hops_ = stats_.dup_hops_received;
  if (config_.report_load && config_.load_report_interval > 0) {
    agent_.Schedule(config_.load_report_interval *
                        (0.5 + agent_.Rng().NextDouble()),
                    [this] { ReportLoad(); });
  }
}

obs::MetricsRegistry* MulticastService::Metrics() {
  auto* net = agent_.attached_network();
  auto* m = net != nullptr ? net->metrics() : nullptr;
  if (m != nullptr && !obs_.init) {
    obs_.delivered = m->Counter("multicast.forward.delivered");
    obs_.duplicates = m->Counter("multicast.forward.duplicates");
    obs_.forwards = m->Counter("multicast.forward.forwards");
    obs_.queue_drops = m->Counter("multicast.forward.queue_drops");
    obs_.queue_shed = m->Counter("multicast.forward.queue_shed");
    obs_.acks = m->Counter("multicast.forward.acks");
    obs_.retransmits = m->Counter("multicast.forward.retransmits");
    obs_.failovers = m->Counter("multicast.forward.failovers");
    obs_.abandoned = m->Counter("multicast.forward.abandoned");
    obs_.dup_hops = m->Counter("multicast.forward.dup_hops");
    obs_.quarantines = m->Counter("multicast.forward.quarantines");
    obs_.init = true;
  }
  return m;
}

obs::EventTracer* MulticastService::Tracer() const {
  auto* net = agent_.attached_network();
  return net != nullptr ? net->tracer() : nullptr;
}

void MulticastService::ReportLoad() {
  // Utilization of the forwarding budget since the last report, smoothed;
  // fed into representative election via the "load" MIB attribute (§5).
  const std::uint64_t bytes = stats_.forward_bytes - last_reported_bytes_;
  last_reported_bytes_ = stats_.forward_bytes;
  const double inst =
      double(bytes) /
      (config_.load_report_interval * config_.forward_bytes_per_sec);
  load_ewma_ = 0.7 * load_ewma_ + 0.3 * std::min(1.0, inst);

  // Self-assessed health (DESIGN.md §10): duplicate reliable hops mean our
  // acks were lost or too slow, and integrity drops mean inbound frames
  // arrive corrupted — both symptoms a gray node can observe about itself,
  // from its own counters, without any oracle.
  const std::uint64_t corrupt = agent_.gossip_stats().integrity_drops;
  const std::uint64_t bad = (corrupt - last_integrity_drops_) +
                            (stats_.dup_hops_received - last_dup_hops_);
  last_integrity_drops_ = corrupt;
  last_dup_hops_ = stats_.dup_hops_received;
  const double inst_health =
      1.0 - std::min(1.0, double(bad) / kHealthEventsFullPenalty);
  health_ewma_ = 0.7 * health_ewma_ + 0.3 * inst_health;
  // Quantized so small fluctuations do not churn MIB content versions.
  const double health = std::round(health_ewma_ * 20.0) / 20.0;
  if (health != last_health_reported_) {
    agent_.SetLocalAttr(astrolabe::kAttrHealth, health);
    last_health_reported_ = health;
  }
  // Election sees the effective load: an unhealthy node inflates its
  // reported load so the least-loaded election (§5) steers around it.
  agent_.SetLocalAttr(astrolabe::kAttrLoad,
                      load_ewma_ + (1.0 - health) * kHealthLoadPenalty);
  agent_.Schedule(config_.load_report_interval, [this] { ReportLoad(); });
}

void MulticastService::SendToZone(const ZonePath& zone, Item item) {
  Envelope env{std::make_shared<const Item>(std::move(item)), zone.ToString()};
  if (zone.IsPrefixOf(agent_.path())) {
    Disseminate(env);
    return;
  }
  // Publishing into a zone we are not a member of (paper §8: "disseminate
  // localized news items in Asia"): hand the item to a representative of
  // that zone, provided the zone is visible from our root path.
  if (zone.IsRoot() || zone.Depth() > agent_.Depth()) {
    ++stats_.misrouted;
    return;
  }
  const std::size_t level = zone.Depth() - 1;
  if (!(zone.Prefix(level) == agent_.path().Prefix(level))) {
    ++stats_.misrouted;
    util::LogWarn("multicast %s: zone %s is not visible from here",
                  agent_.path().ToString().c_str(), env.target_zone.c_str());
    return;
  }
  agent_.ContactsInto(level, zone.Leaf(), contacts_buf_);
  if (contacts_buf_.empty()) {
    ++stats_.misrouted;
    return;
  }
  ChildQueue& q = queues_[env.target_zone];
  ChooseReps(q, contacts_buf_, reps_buf_);
  EnqueueForChild(q, 1, QueueEntry{std::move(env), reps_buf_});
  DrainQueues();
}

void MulticastService::HandleForward(const sim::Message& msg) {
  suspects_.Clear(msg.from);  // any inbound message proves the peer alive
  Disseminate(msg.As<Envelope>());
}

void MulticastService::HandleReliableForward(const sim::Message& msg) {
  const auto& hop = msg.As<ReliableHop>();
  suspects_.Clear(msg.from);
  // Always ack — including duplicates. The retransmission that produced a
  // duplicate means our previous ack was lost (or raced the timer); only a
  // fresh ack stops the sender.
  agent_.Send(sim::Message::Make(agent_.id(), msg.from, kAckType,
                                 HopAck{hop.hop_id}, kAckWireBytes));
  if (seen_.contains(hop.env.item->id)) {
    // A retransmission reaching us for an item we already processed means
    // our ack was lost or too slow — self-evidence of grayness, fed into
    // the health score by the next ReportLoad cycle.
    ++stats_.dup_hops_received;
    if (auto* m = Metrics()) m->Add(obs_.dup_hops, agent_.id());
  }
  Disseminate(hop.env);
}

void MulticastService::HandleAck(const sim::Message& msg) {
  const auto& ack = msg.As<HopAck>();
  suspects_.Clear(msg.from);
  auto it = pending_.find(ack.hop_id);
  if (it == pending_.end()) return;  // late ack after failover/abandon
  ++stats_.acks_received;
  if (auto* m = Metrics()) m->Add(obs_.acks, agent_.id());
  agent_.CancelTimer(it->second.ack_timer);
  pending_.erase(it);
}

bool MulticastService::SeenBefore(const std::string& id) {
  if (seen_.contains(id)) return true;
  seen_.insert(id);
  seen_order_.push_back(id);
  if (seen_order_.size() > config_.dup_log_capacity) {
    seen_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return false;
}

std::size_t MulticastService::MemberDepth(std::string_view zone) const {
  if (zone == "/") return 0;
  const std::string_view path = path_text_;
  if (!path.starts_with(zone) ||
      (path.size() > zone.size() && path[zone.size()] != '/')) {
    return kNotMember;
  }
  return static_cast<std::size_t>(std::count(zone.begin(), zone.end(), '/'));
}

void MulticastService::Disseminate(const Envelope& env) {
  const Item& item = *env.item;
  const std::size_t zone_depth = MemberDepth(env.target_zone);
  if (zone_depth == kNotMember) {
    // Stale contact information routed the item to a node outside the
    // target zone; drop (redundant paths cover the loss).
    ++stats_.misrouted;
    return;
  }
  if (SeenBefore(item.id)) {
    ++stats_.duplicates;
    if (auto* m = Metrics()) m->Add(obs_.duplicates, agent_.id());
    if (auto* t = Tracer();
        t != nullptr && t->Enabled(obs::EventCategory::kCache)) {
      t->Record(agent_.Now(), agent_.id(), obs::EventCategory::kCache,
                "mc.dup", env.hops, 0, item.id);
    }
    return;
  }
  // Member of the target zone: deliver locally once.
  ++stats_.delivered;
  if (auto* m = Metrics()) m->Add(obs_.delivered, agent_.id());
  if (deliver_) deliver_(env);

  // Recursive expansion (§5): forward to representatives of every child
  // zone, deepest first when the target is an ancestor of ours. Each relay
  // is a new envelope around the same shared item.
  for (std::size_t level = zone_depth; level < agent_.Depth(); ++level) {
    const astrolabe::Table& table = agent_.TableAt(level);
    const std::string& own_child = agent_.path().Component(level);
    for (const auto& [child_key, entry] : table) {
      if (child_key == own_child) continue;  // we handle our own subtree
      if (filter_ && !filter_(item, entry.attrs)) {
        ++stats_.filtered;
        continue;
      }
      Agent::ContactsFromRow(entry.attrs, contacts_buf_);
      if (contacts_buf_.empty()) continue;
      // The child's zone name: our prefix of this depth plus its key.
      Envelope forwarded{env.item, std::string(), env.hops + 1};
      forwarded.target_zone.reserve(prefix_len_[level] + 1 + child_key.size());
      forwarded.target_zone.append(path_text_, 0, prefix_len_[level]);
      forwarded.target_zone += '/';
      forwarded.target_zone += child_key;
      ChildQueue& q = queues_[forwarded.target_zone];
      ChooseReps(q, contacts_buf_, reps_buf_);
      std::uint64_t weight = 1;
      if (auto it = entry.attrs.find(astrolabe::kAttrMembers);
          it != entry.attrs.end() &&
          it->second.type() == astrolabe::AttrValue::Type::kInt) {
        weight = static_cast<std::uint64_t>(
            std::max<std::int64_t>(1, it->second.AsInt()));
      }
      EnqueueForChild(q, weight, QueueEntry{std::move(forwarded), reps_buf_});
    }
    // Within our own subtree we recurse in place: the loop continues one
    // level deeper, so no self-addressed network message is needed.
  }
  DrainQueues();
}

void MulticastService::ChooseReps(ChildQueue& q,
                                  const std::vector<sim::NodeId>& contacts,
                                  std::vector<sim::NodeId>& reps) {
  // Steer fresh sends away from suspected peers (negative cache). Tiered:
  // unsuspected first; if none, retry suspected-slow (gray) peers — they
  // answer eventually and their quarantine backs off on repeat failures —
  // and only when every contact is suspected dead fall back to the full
  // list rather than stalling the relay. With nobody suspected the first
  // tier is the contacts themselves, so no copy is made.
  const double now = agent_.Now();
  const std::vector<sim::NodeId>* pool = &contacts;
  if (!suspects_.empty()) {
    std::vector<sim::NodeId>& tiered = candidates_buf_;
    tiered.clear();
    for (sim::NodeId c : contacts) {
      if (suspects_.LevelOf(c, now) == SuspicionLevel::kNone) {
        tiered.push_back(c);
      }
    }
    if (tiered.empty()) {
      for (sim::NodeId c : contacts) {
        if (suspects_.LevelOf(c, now) == SuspicionLevel::kSlow) {
          tiered.push_back(c);
        }
      }
    }
    if (!tiered.empty()) pool = &tiered;
  }
  const std::vector<sim::NodeId>& candidates = *pool;

  reps.clear();
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(config_.redundancy),
                            candidates.size());
  // Prefer the representative we already talk to ("where there currently
  // are open connections", §5), then fill randomly.
  if (std::find(candidates.begin(), candidates.end(), q.affinity) !=
      candidates.end()) {
    reps.push_back(q.affinity);
  }
  std::size_t guard = 0;
  while (reps.size() < want && guard++ < candidates.size() * 4 + 8) {
    const sim::NodeId pick =
        candidates[agent_.Rng().NextBelow(candidates.size())];
    if (std::find(reps.begin(), reps.end(), pick) == reps.end()) {
      reps.push_back(pick);
    }
  }
  if (!reps.empty()) q.affinity = reps.front();
}

std::int64_t MulticastService::UrgencyOf(const Item& item) const {
  auto it = item.metadata.find(kAttrUrgency);
  if (it == item.metadata.end() ||
      it->second.type() != astrolabe::AttrValue::Type::kInt) {
    return 5;  // NITF mid-range default
  }
  return it->second.AsInt();
}

void MulticastService::EnqueueForChild(ChildQueue& q, std::uint64_t weight,
                                       QueueEntry entry) {
  q.weight = weight;
  if (q.entries.size() >= config_.max_queue_items) {
    // Graceful degradation: shed the lowest-urgency entry in the queue,
    // not blindly the newcomer — a flash item (urgency 1) must never be
    // lost in favor of a routine one. Ties keep the queued entry (FIFO
    // fairness: the newcomer is shed).
    auto worst = q.entries.begin();
    for (auto it = std::next(q.entries.begin()); it != q.entries.end(); ++it) {
      if (UrgencyOf(*it->env.item) > UrgencyOf(*worst->env.item)) worst = it;
    }
    obs::MetricsRegistry* m = Metrics();
    ++stats_.queue_drops;
    if (m != nullptr) m->Add(obs_.queue_drops, agent_.id());
    if (UrgencyOf(*entry.env.item) < UrgencyOf(*worst->env.item)) {
      ++stats_.queue_shed;
      if (m != nullptr) m->Add(obs_.queue_shed, agent_.id());
      if (auto* t = Tracer();
          t != nullptr && t->Enabled(obs::EventCategory::kDrop)) {
        t->Record(agent_.Now(), agent_.id(), obs::EventCategory::kDrop,
                  "mc.queue_shed", std::uint64_t(UrgencyOf(*worst->env.item)),
                  q.entries.size(), worst->env.item->id);
      }
      *worst = std::move(entry);
      // Preserve arrival order among survivors: the replacement slot keeps
      // the evicted entry's position, which is the best FIFO approximation
      // without an O(n) splice.
      return;
    }
    if (auto* t = Tracer();
        t != nullptr && t->Enabled(obs::EventCategory::kDrop)) {
      t->Record(agent_.Now(), agent_.id(), obs::EventCategory::kDrop,
                "mc.queue_drop", std::uint64_t(UrgencyOf(*entry.env.item)),
                q.entries.size(), entry.env.item->id);
    }
    return;
  }
  q.entries.push_back(std::move(entry));
}

bool MulticastService::SendEntry(QueueEntry& entry, double now) {
  const std::size_t wire = entry.env.WireBytes();
  const double cost = static_cast<double>(
      wire * std::max<std::size_t>(1, entry.destinations.size()));
  if (!budget_.TryConsume(now, cost)) return false;
  obs::MetricsRegistry* m = Metrics();
  for (sim::NodeId rep : entry.destinations) {
    ++stats_.forwards;
    if (m != nullptr) m->Add(obs_.forwards, agent_.id());
    stats_.forward_bytes += wire;
    if (pending_.size() < config_.reliable.max_pending) {
      const std::uint64_t hop_id = next_hop_id_++;
      PendingHop& hop = pending_[hop_id];
      hop.env = entry.env;
      hop.dest = rep;
      hop.attempt = 1;
      hop.first_sent = now;
      TransmitHop(hop_id, hop);
    } else {
      if (config_.reliable.max_pending > 0) ++stats_.pending_overflow;
      agent_.Send(sim::Message::Make(agent_.id(), rep, kForwardType,
                                     entry.env, wire));
    }
  }
  return true;
}

void MulticastService::TransmitHop(std::uint64_t hop_id, PendingHop& hop) {
  ReliableHop payload{hop.env, hop_id};
  const std::size_t wire = payload.WireBytes();
  agent_.Send(sim::Message::Make(agent_.id(), hop.dest, kReliableType,
                                 std::move(payload), wire));
  const double delay = backoff_.DelayFor(hop.attempt, agent_.Rng());
  hop.ack_timer =
      agent_.Schedule(delay, [this, hop_id] { OnAckTimeout(hop_id); });
}

void MulticastService::LiveContactsFor(const PendingHop& hop,
                                       std::vector<sim::NodeId>& out) const {
  // target_zone encodes the child zone exactly as Disseminate built it:
  // level = depth-1, row key = leaf. Looking it up afresh on every retry
  // means failover follows re-election instead of a stale snapshot.
  const std::string_view zone = hop.env.target_zone;
  const auto depth =
      static_cast<std::size_t>(std::count(zone.begin(), zone.end(), '/'));
  out.clear();
  if (zone == "/" || depth > agent_.Depth()) return;
  agent_.ContactsInto(depth - 1,
                      std::string(zone.substr(zone.rfind('/') + 1)), out);
}

void MulticastService::OnAckTimeout(std::uint64_t hop_id) {
  // Only a hop's one armed timer runs: an ack cancels it (HandleAck), and
  // so does a restart.
  auto it = pending_.find(hop_id);
  if (it == pending_.end()) return;
  PendingHop& hop = it->second;
  const double now = agent_.Now();
  obs::MetricsRegistry* m = Metrics();
  obs::EventTracer* t = Tracer();

  if (now - hop.first_sent >= config_.reliable.give_up_after) {
    ++stats_.abandoned;
    if (m != nullptr) m->Add(obs_.abandoned, agent_.id());
    if (t != nullptr && t->Enabled(obs::EventCategory::kReliable)) {
      t->Record(now, agent_.id(), obs::EventCategory::kReliable, "mc.abandon",
                hop.dest, std::uint64_t(hop.attempt), hop.env.item->id);
    }
    // Give-up is dead-level evidence: the peer failed every retransmission
    // and failover attempt for the whole give-up window.
    if (suspects_.Suspect(hop.dest, now)) {
      ++stats_.quarantines;
      if (m != nullptr) m->Add(obs_.quarantines, agent_.id());
    }
    pending_.erase(it);
    return;
  }

  std::vector<sim::NodeId>& contacts = contacts_buf_;
  LiveContactsFor(hop, contacts);
  const bool dest_is_current =
      contacts.empty() ||  // row expired/unknown: keep trying the last rep
      std::find(contacts.begin(), contacts.end(), hop.dest) != contacts.end();

  if (hop.attempt >= kAttemptsPerPeer || !dest_is_current) {
    // Fail over to an alternate representative of the same child zone.
    // Timing out is slow-level evidence, not death: gray peers re-admit
    // with backoff and only escalate to dead after repeated strikes.
    if (suspects_.SuspectSlow(hop.dest, now)) {
      ++stats_.quarantines;
      if (m != nullptr) m->Add(obs_.quarantines, agent_.id());
    }
    if (std::find(hop.tried.begin(), hop.tried.end(), hop.dest) ==
        hop.tried.end()) {
      hop.tried.push_back(hop.dest);
    }
    sim::NodeId next = hop.dest;
    // Preference order: untried & unsuspected, then unsuspected, then
    // untried & not-dead, then untried; keep the current peer only when it
    // is the sole option.
    auto pick = [&](auto&& admit) -> bool {
      std::vector<sim::NodeId> pool;
      for (sim::NodeId c : contacts) {
        if (c != hop.dest && admit(c)) pool.push_back(c);
      }
      if (pool.empty()) return false;
      next = pool[agent_.Rng().NextBelow(pool.size())];
      return true;
    };
    const auto untried = [&](sim::NodeId c) {
      return std::find(hop.tried.begin(), hop.tried.end(), c) ==
             hop.tried.end();
    };
    const auto unsuspected = [&](sim::NodeId c) {
      return suspects_.LevelOf(c, now) == SuspicionLevel::kNone;
    };
    const auto not_dead = [&](sim::NodeId c) {
      return suspects_.LevelOf(c, now) != SuspicionLevel::kDead;
    };
    (void)(pick([&](sim::NodeId c) { return untried(c) && unsuspected(c); }) ||
           pick(unsuspected) ||
           pick([&](sim::NodeId c) { return untried(c) && not_dead(c); }) ||
           pick(untried));
    if (next != hop.dest) {
      ++stats_.failovers;
      if (m != nullptr) m->Add(obs_.failovers, agent_.id());
      if (t != nullptr && t->Enabled(obs::EventCategory::kReliable)) {
        t->Record(now, agent_.id(), obs::EventCategory::kReliable,
                  "mc.failover", hop.dest, next, hop.env.item->id);
      }
      // The affinity "open connection" moves with the failover so later
      // items skip the dead peer immediately.
      queues_[hop.env.target_zone].affinity = next;
      hop.dest = next;
      hop.attempt = 1;
    } else {
      ++hop.attempt;  // sole contact: keep retrying at the backoff cap
    }
  } else {
    ++hop.attempt;
  }

  ++stats_.retransmits;
  if (m != nullptr) m->Add(obs_.retransmits, agent_.id());
  if (t != nullptr && t->Enabled(obs::EventCategory::kReliable)) {
    t->Record(now, agent_.id(), obs::EventCategory::kReliable, "mc.retx",
              hop.dest, std::uint64_t(hop.attempt), hop.env.item->id);
  }
  // Retransmissions bypass the token bucket: they are few (bounded by the
  // backoff schedule), and starving recovery behind fresh traffic would
  // invert the reliability priority. Bytes are still accounted.
  stats_.forward_bytes += hop.env.WireBytes();
  TransmitHop(hop_id, hop);
}

void MulticastService::DrainQueues() {
  const double now = agent_.Now();
  bool throttled = false;

  switch (config_.queue_strategy) {
    case QueueStrategy::kWeightedRoundRobin:
    case QueueStrategy::kRoundRobin: {
      // Each pass grants every non-empty queue credit — proportional to
      // its child zone's member count for WRR, one for plain RR — and
      // sends while the byte budget admits (§9).
      for (bool progress = true; progress && !throttled;) {
        progress = false;
        for (auto& [key, q] : queues_) {
          if (q.entries.empty()) continue;
          q.credit +=
              config_.queue_strategy == QueueStrategy::kWeightedRoundRobin
                  ? q.weight
                  : 1;
          while (!q.entries.empty() && q.credit > 0) {
            if (!SendEntry(q.entries.front(), now)) {
              throttled = true;
              break;
            }
            --q.credit;
            q.entries.pop_front();
            progress = true;
          }
          if (throttled) break;
        }
      }
      for (auto& [key, q] : queues_) q.credit = 0;
      break;
    }
    case QueueStrategy::kUrgencyFirst: {
      // Aggressive: always send the globally most-urgent queued entry
      // next — urgent items overtake backlogs inside their own queue too.
      for (;;) {
        ChildQueue* best_q = nullptr;
        std::deque<QueueEntry>::iterator best_it;
        std::int64_t best_urgency = 0;
        for (auto& [key, q] : queues_) {
          for (auto it = q.entries.begin(); it != q.entries.end(); ++it) {
            const std::int64_t u = UrgencyOf(*it->env.item);
            if (best_q == nullptr || u < best_urgency) {
              best_q = &q;
              best_it = it;
              best_urgency = u;
            }
          }
        }
        if (best_q == nullptr) break;
        if (!SendEntry(*best_it, now)) {
          throttled = true;
          break;
        }
        best_q->entries.erase(best_it);
      }
      break;
    }
  }

  bool any_left = throttled;
  for (auto& [key, q] : queues_) {
    if (!q.entries.empty()) any_left = true;
  }
  if (any_left && !drain_scheduled_) {
    drain_scheduled_ = true;
    agent_.Schedule(kDrainInterval, [this] {
      drain_scheduled_ = false;
      DrainQueues();
    });
  }
}

const char* QueueStrategyName(QueueStrategy s) noexcept {
  switch (s) {
    case QueueStrategy::kWeightedRoundRobin: return "weighted-round-robin";
    case QueueStrategy::kRoundRobin: return "round-robin";
    case QueueStrategy::kUrgencyFirst: return "urgency-first";
  }
  return "?";
}

}  // namespace nw::multicast
