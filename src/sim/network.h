// Simulated network: connects Nodes through a latency/bandwidth/loss model,
// supports node failure and restart, partitions, and per-node traffic
// accounting. This is the substitution for the Internet testbed the paper
// assumes (see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/message.h"
#include "sim/simulator.h"

namespace nw::sim {

class Node;

struct NetworkConfig {
  double base_latency = 0.030;   // one-way seconds between any two nodes
  double jitter_frac = 0.25;     // uniform jitter as a fraction of base
  double loss_prob = 0.0;        // i.i.d. per-message loss
  double uplink_bytes_per_sec = 1e9;  // per-node send serialization rate
  std::size_t per_message_overhead = 64;  // header bytes added to wire size
};

struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_dropped = 0;  // loss, dead endpoint, partition, asym
  std::uint64_t messages_corrupted = 0;  // delivered with a flipped checksum
  std::uint64_t messages_duplicated = 0;  // extra copies injected by dup fault
};

class Network {
 public:
  Network(Simulator& sim, NetworkConfig config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a node and returns its id. The caller retains ownership and
  // must keep the node alive for the lifetime of the network.
  NodeId AddNode(Node* node);

  // Delivers `msg` to msg.to subject to loss/partition/liveness. Charges
  // the sender's uplink: back-to-back sends serialize at uplink rate.
  void Send(Message msg);

  void Kill(NodeId id);
  void Restart(NodeId id);
  bool IsAlive(NodeId id) const { return alive_[id]; }
  std::uint32_t Incarnation(NodeId id) const { return incarnation_[id]; }

  // Partitions: nodes in different partition groups cannot exchange
  // messages. Default: everyone in group 0.
  void SetPartitionGroup(NodeId id, int group) { partition_[id] = group; }
  // Restores full connectivity: partition groups AND asymmetric cuts.
  void HealPartitions();

  // Asymmetric (one-directional) link cuts: messages from `from` to `to`
  // are dropped while the cut is active; the reverse direction still
  // works. Returns a handle for removal; removing an unknown handle is a
  // no-op (HealPartitions may have cleared it already).
  int AddAsymCut(NodeId from, NodeId to);
  void RemoveAsymCut(int cut_id);

  // Runtime fault knobs (driven by FaultPlan): the ambient loss probability
  // and per-node uplink rates can change mid-run, e.g. a loss burst or a
  // congested access link.
  void SetLossProb(double p) { config_.loss_prob = p; }
  double LossProb() const noexcept { return config_.loss_prob; }
  void SetUplinkRate(NodeId id, double bytes_per_sec) {
    uplink_rate_[id] = bytes_per_sec;
  }
  void ResetUplinkRate(NodeId id) {
    uplink_rate_[id] = config_.uplink_bytes_per_sec;
  }

  // Gray-failure knobs (DESIGN.md §10), mutated from plan timers.
  //
  // Processing slowdown: multiplies every Node::Schedule delay on the
  // node, so a gray node's own timers (gossip rounds, ack timeouts, queue
  // drains) stretch — the node stays alive but falls behind.
  void SetProcSlowdown(NodeId id, double factor) {
    proc_slowdown_[id] = factor;
  }
  void ResetProcSlowdown(NodeId id) { proc_slowdown_[id] = 1.0; }
  double ProcSlowdown(NodeId id) const { return proc_slowdown_[id]; }
  // Inbound processing delay: added to the delivery latency of every
  // message addressed to the node (a saturated receive path).
  void SetProcDelay(NodeId id, double seconds) { proc_delay_[id] = seconds; }
  void ResetProcDelay(NodeId id) { proc_delay_[id] = 0.0; }
  double ProcDelay(NodeId id) const { return proc_delay_[id]; }
  // Corruption: each non-lost frame independently gets one checksum bit
  // flipped with probability p (receivers verify-and-drop).
  void SetCorruptProb(double p) { corrupt_prob_ = p; }
  double CorruptProb() const noexcept { return corrupt_prob_; }
  // Duplicate-and-reorder: each non-lost frame is delivered a second time
  // with probability p, after an extra latency draw.
  void SetDupProb(double p) { dup_prob_ = p; }
  double DupProb() const noexcept { return dup_prob_; }

  std::size_t NodeCount() const noexcept { return nodes_.size(); }
  const TrafficStats& StatsFor(NodeId id) const { return stats_[id]; }
  TrafficStats TotalStats() const;
  void ResetStats();

  // Per-message-type accounting, charged at Send time (headers included):
  // lets protocol layers be costed independently, e.g. the gossip wire
  // bytes of "astro.gossip*" vs the article traffic of "mc.fwd".
  struct TypeStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  const std::map<std::string, TypeStats>& StatsByType() const {
    return by_type_;
  }
  // Sum over every type whose name starts with `prefix`.
  TypeStats StatsForTypePrefix(const std::string& prefix) const;

  Simulator& simulator() noexcept { return sim_; }
  const NetworkConfig& config() const noexcept { return config_; }

  // ---- observability (optional; null by default) ------------------------
  // The registry/tracer are owned by the caller and must outlive the
  // network. Layers above reach them through node.network().metrics() etc.
  void SetMetrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const noexcept { return metrics_; }
  void SetTracer(obs::EventTracer* tracer) noexcept { tracer_ = tracer; }
  obs::EventTracer* tracer() const noexcept { return tracer_; }

 private:
  Simulator& sim_;
  NetworkConfig config_;
  std::vector<Node*> nodes_;
  std::vector<bool> alive_;
  std::vector<std::uint32_t> incarnation_;
  std::vector<int> partition_;
  std::vector<double> uplink_rate_;  // bytes/sec, default config value
  std::vector<Time> uplink_free_at_;
  std::vector<double> proc_slowdown_;  // timer stretch factor, default 1.0
  std::vector<double> proc_delay_;     // inbound delay seconds, default 0.0
  double corrupt_prob_ = 0.0;
  double dup_prob_ = 0.0;
  // Active one-directional cuts: handle -> directed pair, plus a per-pair
  // active count so overlapping group cuts compose.
  std::map<int, std::pair<NodeId, NodeId>> asym_cut_by_id_;
  std::map<std::pair<NodeId, NodeId>, int> asym_pair_count_;
  int next_asym_id_ = 0;
  std::vector<TrafficStats> stats_;
  // Per-sender RNG streams for jitter/loss draws: forked per node at
  // AddNode so stochastic outcomes depend only on that sender's own
  // (deterministic) send sequence, never on cross-node interleaving.
  std::vector<util::DeterministicRng> link_rng_;
  std::map<std::string, TypeStats> by_type_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  struct MetricIds {
    obs::MetricsRegistry::MetricId sent, bytes_sent, delivered,
        bytes_received, drops_loss, drops_dead, drops_stale, drops_partition,
        drops_asym, corruptions, dup_frames, uplink_backlog, kills, restarts;
  } ids_{};

  bool AsymBlocked(NodeId from, NodeId to) const {
    if (asym_pair_count_.empty()) return false;
    const auto it = asym_pair_count_.find({from, to});
    return it != asym_pair_count_.end() && it->second > 0;
  }
  // Schedules one delivery attempt of `msg` at `arrival` in the receiver's
  // context (Send may call it twice under the dup-reorder fault).
  void DeliverAt(Message msg, Time arrival, std::size_t wire, bool lost,
                 bool corrupt, std::uint32_t flip_bit);
};

// Base class for simulated hosts. Subclasses implement OnMessage and use
// Send/Schedule. Timers scheduled before a Kill are suppressed after it
// (the incarnation check), matching a crashed-and-rebooted process losing
// its in-memory timers.
class Node {
 public:
  virtual ~Node() = default;

  NodeId id() const noexcept { return id_; }
  bool alive() const { return net_ && net_->IsAlive(id_); }

  virtual void OnMessage(const Message& msg) = 0;

  // Called by Network::Restart so a node can reinitialize volatile state.
  virtual void OnRestart() {}

 protected:
  void Send(Message msg) {
    msg.from = id_;
    net_->Send(std::move(msg));
  }

  // Schedules fn after `delay`, suppressed if this node dies or restarts
  // in the meantime. A gray-slow fault stretches the delay: the node's
  // timers (and therefore everything it drives) run late.
  void Schedule(Time delay, std::function<void()> fn) {
    const std::uint32_t inc = net_->Incarnation(id_);
    net_->simulator().After(delay * net_->ProcSlowdown(id_),
                            [this, inc, fn = std::move(fn)]() {
      if (net_->IsAlive(id_) && net_->Incarnation(id_) == inc) fn();
    });
  }

  Time Now() const { return net_->simulator().Now(); }
  util::DeterministicRng& Rng() { return rng_; }
  Network& network() { return *net_; }
  // Null until the node is added to a network; lets instrumentation probe
  // for metrics()/tracer() without asserting attachment.
  Network* attached_network() const noexcept { return net_; }

 private:
  friend class Network;
  Network* net_ = nullptr;
  NodeId id_ = kInvalidNode;
  util::DeterministicRng rng_{0};
};

}  // namespace nw::sim
