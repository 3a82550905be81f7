#include "sim/network.h"

#include <algorithm>
#include <cassert>

#include "util/log.h"

namespace nw::sim {

Network::Network(Simulator& sim, NetworkConfig config)
    : sim_(sim), config_(config) {
  sim_.SetTimerGuard(this);
}

Network::~Network() { sim_.SetTimerGuard(nullptr); }

NodeId Network::AddNode(Node* node) {
  assert(node != nullptr);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  alive_.push_back(true);
  incarnation_.push_back(0);
  partition_.push_back(0);
  uplink_rate_.push_back(config_.uplink_bytes_per_sec);
  uplink_free_at_.push_back(0.0);
  proc_slowdown_.push_back(1.0);
  proc_delay_.push_back(0.0);
  stats_.emplace_back();
  link_rng_.push_back(sim_.Rng().Fork(0x4c696e6bu /*'Link'*/ + id));
  node->net_ = this;
  node->id_ = id;
  node->rng_ = sim_.Rng().Fork(0x4e6f6465u /*'Node'*/ + id);
  sim_.EnsureContexts(static_cast<std::uint32_t>(nodes_.size()));
  if (metrics_ != nullptr) metrics_->EnsureNodes(nodes_.size());
  return id;
}

void Network::SetMetrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  metrics_->EnsureNodes(std::max<std::size_t>(1, nodes_.size()));
  ids_.sent = metrics_->Counter("sim.network.messages_sent");
  ids_.bytes_sent = metrics_->Counter("sim.network.bytes_sent");
  ids_.delivered = metrics_->Counter("sim.network.messages_delivered");
  ids_.bytes_received = metrics_->Counter("sim.network.bytes_received");
  ids_.drops_loss = metrics_->Counter("sim.network.drops_loss");
  ids_.drops_dead = metrics_->Counter("sim.network.drops_dead_endpoint");
  ids_.drops_stale = metrics_->Counter("sim.network.drops_stale_incarnation");
  ids_.drops_partition = metrics_->Counter("sim.network.drops_partition");
  ids_.drops_asym = metrics_->Counter("sim.network.drops_asym");
  ids_.corruptions = metrics_->Counter("sim.network.corruptions");
  ids_.dup_frames = metrics_->Counter("sim.network.dup_frames");
  ids_.uplink_backlog = metrics_->Gauge("sim.network.uplink_backlog_s");
  ids_.kills = metrics_->Counter("sim.network.node_kills");
  ids_.restarts = metrics_->Counter("sim.network.node_restarts");
}

void Network::Send(Message msg) {
  assert(msg.from < nodes_.size());
  assert(msg.to < nodes_.size());
  const NodeId from = msg.from;
  const NodeId to = msg.to;
  msg.checksum = EnvelopeChecksum(msg);

  const std::size_t wire = msg.wire_bytes + config_.per_message_overhead;
  stats_[from].messages_sent += 1;
  stats_[from].bytes_sent += wire;
  if (msg.type.id() >= by_type_.size()) by_type_.resize(msg.type.id() + 1);
  TypeStats& ts = by_type_[msg.type.id()];
  ts.messages += 1;
  ts.bytes += wire;
  if (metrics_ != nullptr) {
    metrics_->Add(ids_.sent, from);
    metrics_->Add(ids_.bytes_sent, from, wire);
  }
  if (tracer_ != nullptr && tracer_->Enabled(obs::EventCategory::kSend)) {
    tracer_->Record(sim_.Now(), from, obs::EventCategory::kSend, "net.send",
                    to, wire, msg.type.name());
  }

  if (!alive_[from]) {
    stats_[from].messages_dropped += 1;
    if (metrics_ != nullptr) metrics_->Add(ids_.drops_dead, from);
    if (tracer_ != nullptr) {
      tracer_->Record(sim_.Now(), from, obs::EventCategory::kDrop,
                      "net.drop.sender_dead", to, wire, msg.type.name());
    }
    return;
  }

  // Serialize on the sender's uplink.
  const Time start = std::max(sim_.Now(), uplink_free_at_[from]);
  const Time departure = start + double(wire) / uplink_rate_[from];
  uplink_free_at_[from] = departure;
  if (metrics_ != nullptr) {
    // Queueing delay a message sent right now would see on this uplink.
    metrics_->Set(ids_.uplink_backlog, from, departure - sim_.Now());
  }

  // Inbound gray delay (a saturated receive path at `to`) adds on top of
  // the propagation latency, so the conservative lookahead still holds.
  const double jitter =
      config_.base_latency * config_.jitter_frac * link_rng_[from].NextDouble();
  const Time arrival =
      departure + config_.base_latency + jitter + proc_delay_[to];

  const bool lost = link_rng_[from].NextBool(config_.loss_prob);
  // Gray-fault draws are guarded by their probabilities so the per-sender
  // RNG streams (and every committed golden trace) are unchanged while the
  // faults are inactive.
  bool corrupt = false;
  std::uint32_t flip_bit = 0;
  if (!lost && corrupt_prob_ > 0 && link_rng_[from].NextBool(corrupt_prob_)) {
    corrupt = true;
    flip_bit = std::uint32_t(link_rng_[from].NextBelow(64));
  }
  bool dup = false;
  Time dup_extra = 0;
  if (!lost && dup_prob_ > 0 && link_rng_[from].NextBool(dup_prob_)) {
    dup = true;
    dup_extra =
        config_.base_latency * (0.5 + 1.5 * link_rng_[from].NextDouble());
  }

  if (dup) {
    stats_[from].messages_duplicated += 1;
    if (metrics_ != nullptr) metrics_->Add(ids_.dup_frames, from);
    // The duplicate is a clean copy (payload shared) arriving late, i.e.
    // reordered past messages sent after the original.
    DeliverAt(msg, arrival + dup_extra, wire, /*lost=*/false,
              /*corrupt=*/false, 0);
  }
  DeliverAt(std::move(msg), arrival, wire, lost, corrupt, flip_bit);
}

void Network::DeliverAt(Message msg, Time arrival, std::size_t wire, bool lost,
                        bool corrupt, std::uint32_t flip_bit) {
  const NodeId to = msg.to;
  std::uint32_t index;
  if (free_in_flight_.empty()) {
    index = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    index = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  in_flight_[index] = {std::move(msg), wire, incarnation_[to], flip_bit, lost,
                       corrupt};
  // The delivery runs in the receiver's context, so whatever it schedules
  // is keyed and owned as the receiver's own event.
  sim_.AtNode(to, arrival, [this, index] { Deliver(index); });
}

void Network::Deliver(std::uint32_t index) {
  // Moved out first: OnMessage may send, which can grow the slab.
  InFlight f = std::move(in_flight_[index]);
  free_in_flight_.push_back(index);
  Message& msg = f.msg;
  const NodeId from = msg.from;
  const NodeId to = msg.to;
  const std::size_t wire = f.wire;
  const bool lost = f.lost;
  const std::uint32_t flip_bit = f.flip_bit;
  const bool dead = !alive_[to];
  const bool stale = !dead && incarnation_[to] != f.to_inc;
  const bool partitioned =
      !lost && !dead && !stale && partition_[from] != partition_[to];
  const bool asym = !lost && !dead && !stale && !partitioned &&
                    AsymBlocked(from, to);
  if (lost || dead || stale || partitioned || asym) {
    stats_[to].messages_dropped += 1;
    if (metrics_ != nullptr) {
      metrics_->Add(lost    ? ids_.drops_loss
                    : dead  ? ids_.drops_dead
                    : stale ? ids_.drops_stale
                    : partitioned ? ids_.drops_partition
                            : ids_.drops_asym,
                    to);
    }
    if (tracer_ != nullptr && tracer_->Enabled(obs::EventCategory::kDrop)) {
      tracer_->Record(sim_.Now(), to, obs::EventCategory::kDrop,
                      lost    ? "net.drop.loss"
                      : dead  ? "net.drop.dead_endpoint"
                      : stale ? "net.drop.stale_incarnation"
                      : partitioned ? "net.drop.partition"
                              : "net.drop.asym",
                      from, wire, msg.type.name());
    }
    return;
  }
  if (f.corrupt) {
    msg.checksum ^= 1ull << flip_bit;
    stats_[to].messages_corrupted += 1;
    if (metrics_ != nullptr) metrics_->Add(ids_.corruptions, to);
    if (tracer_ != nullptr &&
        tracer_->Enabled(obs::EventCategory::kIntegrity)) {
      tracer_->Record(sim_.Now(), to, obs::EventCategory::kIntegrity,
                      "net.corrupt", from, flip_bit, msg.type.name());
    }
  }
  stats_[to].messages_received += 1;
  stats_[to].bytes_received += wire;
  if (metrics_ != nullptr) {
    metrics_->Add(ids_.delivered, to);
    metrics_->Add(ids_.bytes_received, to, wire);
  }
  if (tracer_ != nullptr && tracer_->Enabled(obs::EventCategory::kDeliver)) {
    tracer_->Record(sim_.Now(), to, obs::EventCategory::kDeliver,
                    "net.deliver", from, wire, msg.type.name());
  }
  nodes_[to]->OnMessage(msg);
}

int Network::AddAsymCut(NodeId from, NodeId to) {
  const int id = next_asym_id_++;
  asym_cut_by_id_[id] = {from, to};
  asym_pair_count_[{from, to}] += 1;
  return id;
}

void Network::RemoveAsymCut(int cut_id) {
  const auto it = asym_cut_by_id_.find(cut_id);
  if (it == asym_cut_by_id_.end()) return;
  const auto pair_it = asym_pair_count_.find(it->second);
  if (pair_it != asym_pair_count_.end() && --pair_it->second <= 0) {
    asym_pair_count_.erase(pair_it);
  }
  asym_cut_by_id_.erase(it);
}

void Network::Kill(NodeId id) {
  assert(id < nodes_.size());
  if (!alive_[id]) return;
  alive_[id] = false;
  incarnation_[id] += 1;  // invalidates in-flight deliveries and timers
  if (metrics_ != nullptr) metrics_->Add(ids_.kills, id);
  if (tracer_ != nullptr) {
    tracer_->Record(sim_.Now(), id, obs::EventCategory::kFault, "net.kill",
                    incarnation_[id]);
  }
  util::LogInfo("sim: node %u killed at t=%.2f", id, sim_.Now());
}

void Network::Restart(NodeId id) {
  assert(id < nodes_.size());
  if (alive_[id]) return;
  alive_[id] = true;
  incarnation_[id] += 1;
  uplink_free_at_[id] = sim_.Now();
  if (metrics_ != nullptr) metrics_->Add(ids_.restarts, id);
  if (tracer_ != nullptr) {
    tracer_->Record(sim_.Now(), id, obs::EventCategory::kFault, "net.restart",
                    incarnation_[id]);
  }
  nodes_[id]->OnRestart();
  util::LogInfo("sim: node %u restarted at t=%.2f", id, sim_.Now());
}

void Network::HealPartitions() {
  std::fill(partition_.begin(), partition_.end(), 0);
  asym_cut_by_id_.clear();
  asym_pair_count_.clear();
}

TrafficStats Network::TotalStats() const {
  TrafficStats total;
  for (const auto& s : stats_) {
    total.messages_sent += s.messages_sent;
    total.bytes_sent += s.bytes_sent;
    total.messages_received += s.messages_received;
    total.bytes_received += s.bytes_received;
    total.messages_dropped += s.messages_dropped;
    total.messages_corrupted += s.messages_corrupted;
    total.messages_duplicated += s.messages_duplicated;
  }
  return total;
}

void Network::ResetStats() {
  std::fill(stats_.begin(), stats_.end(), TrafficStats{});
  by_type_.clear();
}

const std::map<std::string, Network::TypeStats>& Network::StatsByType()
    const {
  by_type_name_.clear();
  for (std::uint32_t id = 0; id < by_type_.size(); ++id) {
    if (by_type_[id].messages == 0) continue;
    by_type_name_.emplace(MsgType::FromId(id).name(), by_type_[id]);
  }
  return by_type_name_;
}

Network::TypeStats Network::StatsForTypePrefix(const std::string& prefix) const {
  TypeStats total;
  for (std::uint32_t id = 0; id < by_type_.size(); ++id) {
    if (by_type_[id].messages == 0 ||
        !MsgType::FromId(id).name().starts_with(prefix)) {
      continue;
    }
    total.messages += by_type_[id].messages;
    total.bytes += by_type_[id].bytes;
  }
  return total;
}

}  // namespace nw::sim
