// Application-level multicast on Astrolabe (paper §5 and §9).
//
// SendToZone(zone, item) disseminates an item to every leaf under `zone` as
// a recursive computation over the zone tables: at each hop the forwarding
// component looks up the representatives ("contacts") of every child zone,
// applies a pluggable forwarding filter (the pub/sub layer installs the
// Bloom-filter test here), and relays the item to `redundancy`
// representatives per child. Each forwarding component keeps a duplicate-
// suppression log and per-child forwarding queues drained by weighted
// round-robin under a byte budget (§9).
//
// One relay discipline (PROTOCOLS.md "Reliable forwarding"): every
// downward relay carries a hop id and the receiver acknowledges it; on
// timeout the sender retransmits with exponential backoff + jitter, and
// after kAttemptsPerPeer failures fails over to an alternate representative
// of the same child zone, re-consulting the live contacts list at every
// retry so failover tracks re-election. A per-peer suspicion cache steers
// fresh sends away from peers that recently timed out. Custody is bounded
// by ReliableConfig::max_pending: a relay sent while custody is full goes
// out as one unacknowledged mc.fwd, its loss left to redundancy and the
// subscriber repair layer. max_pending = 0 therefore is fire-and-forget.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "astrolabe/agent.h"
#include "multicast/reliable.h"
#include "util/token_bucket.h"

namespace nw::multicast {

// How forwarding queues are filled/drained under a constrained budget
// (paper §9: "The best strategy to fill queues is still under research.
// We are experimenting with weighted round-robin strategies, as well as
// some more aggressive techniques").
enum class QueueStrategy {
  kWeightedRoundRobin,  // credit proportional to child-zone member count
  kRoundRobin,          // one item per non-empty queue per pass
  kUrgencyFirst,        // "aggressive": drain most-urgent items first
};

const char* QueueStrategyName(QueueStrategy s) noexcept;

struct MulticastConfig {
  int redundancy = 1;  // representatives per child zone (paper §9, MIT-style)
  double forward_bytes_per_sec = 1e9;   // forwarding budget (token bucket)
  double forward_burst_bytes = 256e3;
  std::size_t max_queue_items = 10000;  // per child-zone queue bound
  std::size_t dup_log_capacity = 1 << 16;
  QueueStrategy queue_strategy = QueueStrategy::kWeightedRoundRobin;
  // Paper §5: representative election "combines the local knowledge of
  // availability of independent network paths ... the load on those paths
  // and the load on each node". When enabled, the forwarding component
  // periodically publishes its forwarding utilization into the agent's
  // "load" MIB attribute, which the default core aggregation uses to
  // elect the least-loaded contacts.
  // The same reporter publishes the self-assessed "health" score
  // (DESIGN.md §10).
  bool report_load = true;
  double load_report_interval = 5.0;
  // Hop-level ack/retransmit/failover discipline (see reliable.h).
  ReliableConfig reliable;
};

// Item metadata attribute consulted by kUrgencyFirst and by the overflow
// eviction policy; lower values drain first and are shed last (NITF
// urgency semantics: 1 = flash).
inline constexpr const char* kAttrUrgency = "urgency";  // int

// The unit of dissemination, as the publisher built it. SendToZone wraps
// it in one shared immutable object, so every queue entry, pending hop,
// wire payload and delivery of a publication refers to that object.
// Metadata rides along for filtering; the body is modeled by its size only
// (content does not affect the protocols).
struct Item {
  std::string id;           // globally unique (publisher-assigned, §9)
  astrolabe::Row metadata;
  std::size_t body_bytes = 0;
  double published_at = 0;

  // The item's share of a relay's wire size; Envelope adds the routing.
  std::size_t WireBytes() const {
    return id.size() + 16 + astrolabe::RowWireBytes(metadata) + body_bytes;
  }
};

// One relay of an item: the shared item plus the fields each hop rewrites.
struct Envelope {
  std::shared_ptr<const Item> item;
  std::string target_zone;  // zone the item is being disseminated within
  int hops = 0;             // network relays from the publisher so far

  std::size_t WireBytes() const {
    return item->WireBytes() + target_zone.size();
  }
};

struct MulticastStats {
  std::uint64_t delivered = 0;       // handed to the delivery callback
  std::uint64_t duplicates = 0;      // suppressed by the dup log
  std::uint64_t forwards = 0;        // messages relayed downward
  std::uint64_t forward_bytes = 0;
  std::uint64_t filtered = 0;        // child zones skipped by the filter
  std::uint64_t queue_drops = 0;     // overload losses (shed or refused)
  std::uint64_t queue_shed = 0;      // of which: lower-urgency entry evicted
  std::uint64_t misrouted = 0;       // received for a zone we are not in
  // Reliable-mode accounting.
  std::uint64_t acks_received = 0;
  std::uint64_t retransmits = 0;     // timed-out hops sent again
  std::uint64_t failovers = 0;       // hops redirected to an alternate rep
  std::uint64_t abandoned = 0;       // hops given up after give_up_after
  // Hops sent unreliably because custody was full (max_pending > 0 only).
  std::uint64_t pending_overflow = 0;
  // Gray-failure accounting (DESIGN.md §10).
  std::uint64_t dup_hops_received = 0;  // retransmitted rfwd hops seen again
  std::uint64_t quarantines = 0;        // peers newly entering suspicion
};

// Attaches the forwarding component to an Astrolabe agent. The service
// registers a message handler on the agent; one service per agent.
class MulticastService {
 public:
  // Receives the envelope the item arrived in; every delivery of one
  // publication shares `env.item`.
  using DeliveryCallback = std::function<void(const Envelope&)>;
  // Decides whether `item` should be forwarded into the child zone
  // described by `child_row` (aggregated attributes). Leaf rows are agent
  // MIB rows, so the same filter performs leaf-level selection.
  using ForwardFilter =
      std::function<bool(const Item&, const astrolabe::Row& child_row)>;

  MulticastService(astrolabe::Agent& agent, MulticastConfig config);

  void SetDeliveryCallback(DeliveryCallback cb) { deliver_ = std::move(cb); }
  void SetForwardFilter(ForwardFilter filter) { filter_ = std::move(filter); }

  // Local entry point: disseminates `item` to all (filter-passing) leaves
  // under `zone`. The caller must be a member of `zone`. The item is frozen
  // here: every hop shares it, and it never changes afterwards.
  void SendToZone(const astrolabe::ZonePath& zone, Item item);

  const MulticastStats& stats() const { return stats_; }
  astrolabe::Agent& agent() { return agent_; }

  // Unacked reliable hops currently awaiting ack or retransmission.
  std::size_t pending_hops() const { return pending_.size(); }
  // Peers currently under suspicion (negative cache, TTL-pruned).
  std::size_t suspected_peers() { return suspects_.LiveCount(agent_.Now()); }
  // Smoothed self-assessed health score (1 = healthy), as last computed by
  // the load/health reporter.
  double health() const { return health_ewma_; }

  // Message types used on the wire; exposed for traffic accounting.
  static inline const sim::MsgType kForwardType{"mc.fwd"};  // unacked
  static inline const sim::MsgType kReliableType{"mc.rfwd"};  // hop id, acked
  static inline const sim::MsgType kAckType{"mc.ack"};
  // Modeled ack size: hop id + header-level framing.
  static constexpr std::size_t kAckWireBytes = 16;

  // Reliable relay payload: the envelope plus the hop id the ack echoes.
  struct ReliableHop {
    Envelope env;
    std::uint64_t hop_id = 0;
    std::size_t WireBytes() const { return env.WireBytes() + 8; }
  };
  struct HopAck {
    std::uint64_t hop_id = 0;
  };

 private:
  struct QueueEntry {
    Envelope env;
    std::vector<sim::NodeId> destinations;
  };
  // Per child zone (keyed by its zone name): the forwarding queue and the
  // representative we last relayed to.
  struct ChildQueue {
    std::deque<QueueEntry> entries;
    std::uint64_t weight = 1;  // nmembers of the child zone
    std::uint64_t credit = 0;  // WRR state
    sim::NodeId affinity = sim::kInvalidNode;  // "open connection" (§5)
  };
  // One unacked reliable relay. The child zone is recovered from
  // env.target_zone at every retry so the contacts lookup always sees the
  // live table (failover tracks re-election, not a snapshot).
  struct PendingHop {
    Envelope env;
    sim::NodeId dest = sim::kInvalidNode;
    int attempt = 1;        // sends to `dest` so far
    double first_sent = 0;  // give-up clock
    std::vector<sim::NodeId> tried;  // peers already failed over from
    sim::EventId ack_timer;  // the one armed retransmit timer
  };

  // Observability (null-safe; ids registered lazily on first use).
  obs::MetricsRegistry* Metrics();
  obs::EventTracer* Tracer() const;
  struct ObsIds {
    bool init = false;
    std::uint32_t delivered, duplicates, forwards, queue_drops, queue_shed,
        acks, retransmits, failovers, abandoned, dup_hops, quarantines;
  };

  void HandleForward(const sim::Message& msg);
  void HandleReliableForward(const sim::Message& msg);
  void HandleAck(const sim::Message& msg);
  void Disseminate(const Envelope& env);
  // Depth of `zone` (a ZonePath's text) when it is this agent's zone or an
  // ancestor of it; kNotMember otherwise.
  static constexpr std::size_t kNotMember = ~std::size_t{0};
  std::size_t MemberDepth(std::string_view zone) const;
  bool SeenBefore(const std::string& id);
  void EnqueueForChild(ChildQueue& q, std::uint64_t weight, QueueEntry entry);
  void DrainQueues();
  bool SendEntry(QueueEntry& entry, double now);
  // Transmits one reliable hop (first send or retransmission) and arms its
  // ack timer.
  void TransmitHop(std::uint64_t hop_id, PendingHop& hop);
  void OnAckTimeout(std::uint64_t hop_id);
  // Representatives of the child zone `hop` targets, from the live tables,
  // into `out`.
  void LiveContactsFor(const PendingHop& hop,
                       std::vector<sim::NodeId>& out) const;
  std::int64_t UrgencyOf(const Item& item) const;
  void ReportLoad();
  void OnRestart();
  // Picks up to `redundancy` of `contacts` for the child zone of `q` into
  // `reps` (cleared first).
  void ChooseReps(ChildQueue& q, const std::vector<sim::NodeId>& contacts,
                  std::vector<sim::NodeId>& reps);

  astrolabe::Agent& agent_;
  MulticastConfig config_;
  // The agent's path as text, and the length of its prefix of each depth
  // ("" for the root), so routing compares and builds zone names as text.
  std::string path_text_;
  std::vector<std::size_t> prefix_len_;
  // Scratch buffers reused by every hop (never held across a callback).
  std::vector<sim::NodeId> contacts_buf_, candidates_buf_, reps_buf_;
  DeliveryCallback deliver_;
  ForwardFilter filter_;
  util::TokenBucket budget_;
  BackoffPolicy backoff_;
  SuspicionCache suspects_;
  std::map<std::string, ChildQueue> queues_;
  std::map<std::uint64_t, PendingHop> pending_;  // hop id -> unacked relay
  std::uint64_t next_hop_id_ = 1;
  bool drain_scheduled_ = false;
  // Bounded duplicate log: set + FIFO eviction order. Ordered set rather
  // than a hash set so any future iteration is deterministic by
  // construction (ISSUE 8 audit: hash iteration order must never leak into
  // protocol decisions or trace output).
  std::set<std::string> seen_;
  std::deque<std::string> seen_order_;
  std::uint64_t last_reported_bytes_ = 0;
  double load_ewma_ = 0.0;
  // Health reporting state (DESIGN.md §10). The reported score is
  // quantized to 0.05 steps so noise does not churn MIB content versions;
  // -1 forces the first report out.
  double health_ewma_ = 1.0;
  double last_health_reported_ = -1.0;
  std::uint64_t last_integrity_drops_ = 0;
  std::uint64_t last_dup_hops_ = 0;
  MulticastStats stats_;
  ObsIds obs_{};
};

}  // namespace nw::multicast
